"""Restore-path locality simulation (§6.2's read-performance argument).

The paper argues scrambling barely affects restore performance: it permutes
chunks only *within segments* (≤ 2 MB), while containers — the physical
read unit — are larger (4 MB), so the chunk→container layout, and hence the
number of container reads during a sequential restore, barely changes.

:func:`simulate_restore` replays a backup's *logical* chunk order (the
order a file-recipe-driven restore fetches chunks in) against the container
layout produced by the DDFS engine, with an LRU cache of open containers,
and counts container reads. Comparing deterministic MLE with the combined
defense quantifies the claim; the restore-locality ablation in
``tests/experiments/test_ablations.py`` asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup
from repro.index.cache import LRUCache
from repro.storage.ddfs import DDFSEngine


@dataclass(frozen=True)
class RestoreReport:
    """Outcome of one simulated sequential restore."""

    label: str
    chunks_read: int
    container_reads: int
    container_switches: int
    containers_in_layout: int

    @property
    def reads_per_mib_factor(self) -> float:
        """Container reads per chunk — the paper's read-amplification
        proxy (lower is better; 1/chunks-per-container is optimal)."""
        if self.chunks_read == 0:
            return 0.0
        return self.container_reads / self.chunks_read


def simulate_restore(
    engine: DDFSEngine,
    backup: Backup,
    cache_containers: int = 4,
) -> RestoreReport:
    """Replay a sequential restore of ``backup`` against ``engine``.

    Args:
        engine: a DDFS engine that already ingested the backup (and
            possibly others); its index and containers define the layout.
        backup: the *logical-order* chunk sequence to restore. With
            scrambling, this is the original pre-scramble order from the
            file recipes — the upload order differs, the restore order
            does not.
        cache_containers: how many open containers the restore client
            caches (restore clients stage a handful of container buffers).
    """
    if cache_containers <= 0:
        raise ConfigurationError("cache_containers must be positive")
    open_containers: LRUCache[int, bool] = LRUCache(cache_containers)
    container_reads = 0
    container_switches = 0
    previous_container: int | None = None
    touched: set[int] = set()
    for fingerprint in backup.fingerprints:
        container_id = engine.index.container_of(fingerprint)
        if container_id is None:
            raise ConfigurationError(
                f"chunk {fingerprint.hex()} was never stored; ingest the "
                "backup before simulating its restore"
            )
        touched.add(container_id)
        if container_id != previous_container:
            if previous_container is not None:
                container_switches += 1
            previous_container = container_id
        if open_containers.get(container_id) is None:
            container_reads += 1
            open_containers.put(container_id, True)
    return RestoreReport(
        label=backup.label,
        chunks_read=len(backup.fingerprints),
        container_reads=container_reads,
        container_switches=container_switches,
        containers_in_layout=len(touched),
    )
