"""Backup deletion and garbage collection for deduplicated storage.

Deduplication makes deletion non-trivial: a chunk may be referenced by many
backups, so removing one backup can only reclaim chunks no *other* backup
references. This module adds the standard mark-free machinery on top of the
DDFS engine:

* :class:`ReferenceTracker` — per-chunk reference counts registered per
  backup (the information file recipes provide in a full system);
* :func:`collect_garbage` — identifies dead chunks after deletions and
  reclaims *whole containers* whose live-byte ratio falls below a
  threshold, rewriting their surviving chunks into fresh containers
  (copy-forward compaction, as deployed in DDFS-lineage systems [23]).

The DSN paper does not evaluate GC, but a production encrypted-dedup
deployment needs it, and it interacts with the defenses: MinHash variants
increase the number of chunks that become dead when old backups expire.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress

from repro.common.errors import ConfigurationError, StorageError
from repro.datasets.model import Backup
from repro.storage.ddfs import DDFSEngine


@dataclass
class GCReport:
    """Outcome of one garbage-collection pass."""

    containers_scanned: int = 0
    containers_reclaimed: int = 0
    chunks_dead: int = 0
    chunks_copied_forward: int = 0
    bytes_reclaimed: int = 0
    bytes_copied_forward: int = 0


@dataclass
class ReferenceTracker:
    """Reference counts of stored chunks, registered per backup."""

    _counts: Counter = field(default_factory=Counter)
    _backups: dict[str, list[bytes]] = field(default_factory=dict)

    def register_backup(self, backup: Backup) -> None:
        """Register every chunk occurrence of a stored backup."""
        if backup.label in self._backups:
            raise ConfigurationError(
                f"backup {backup.label!r} already registered"
            )
        self._backups[backup.label] = list(backup.fingerprints)
        self._counts.update(backup.fingerprints)

    def delete_backup(self, label: str) -> int:
        """Drop a backup's references; returns chunks that became dead."""
        try:
            fingerprints = self._backups.pop(label)
        except KeyError:
            raise StorageError(f"unknown backup {label!r}") from None
        died = 0
        for fingerprint in fingerprints:
            self._counts[fingerprint] -= 1
            if self._counts[fingerprint] == 0:
                del self._counts[fingerprint]
                died += 1
        return died

    def is_live(self, fingerprint: bytes) -> bool:
        return self._counts[fingerprint] > 0

    def live_chunks(self) -> int:
        return len(self._counts)

    def registered_backups(self) -> list[str]:
        return list(self._backups)


def collect_garbage(
    engine: DDFSEngine,
    tracker: ReferenceTracker,
    live_ratio_threshold: float = 0.5,
) -> GCReport:
    """Reclaim containers whose live-data ratio dropped below the threshold.

    Containers above the threshold are left alone (their dead chunks are
    tolerated — the classic space/IO trade-off); containers below it have
    their live chunks copied forward into the open container and are then
    dropped. The fingerprint index is updated for moved chunks.
    """
    if not 0.0 < live_ratio_threshold <= 1.0:
        raise ConfigurationError("live_ratio_threshold must be in (0, 1]")
    report = GCReport()
    store = engine.containers
    for container_id in sorted(store.containers):
        container = store.containers[container_id]
        report.containers_scanned += 1
        fingerprints = container.fingerprints()
        live = list(map(tracker.is_live, fingerprints))
        live_fingerprints = list(compress(fingerprints, live))
        live_sizes = list(compress(container.sizes, live))
        live_bytes = sum(live_sizes)
        total_bytes = container.data_bytes
        if total_bytes == 0 or live_bytes / total_bytes >= live_ratio_threshold:
            continue
        # Unindex the dead chunks first: their Bloom-filter bits cannot be
        # cleared, so a future re-write of the same content must fall
        # through S3's index miss into the unique path instead of chasing
        # a reclaimed container.
        for fingerprint, is_live in zip(fingerprints, live):
            if not is_live:
                engine.index.remove(fingerprint)
        # Copy-forward the survivors, then drop the container.
        for fingerprint, size in zip(live_fingerprints, live_sizes):
            data = container.read_chunk(fingerprint) if store.keep_payload else None
            engine._index_sealed(store.append(fingerprint, size, data))
        report.chunks_copied_forward += len(live_fingerprints)
        report.bytes_copied_forward += live_bytes
        del store.containers[container_id]
        report.containers_reclaimed += 1
        report.chunks_dead += len(fingerprints) - len(live_fingerprints)
        report.bytes_reclaimed += total_bytes - live_bytes
    # Seal whatever copy-forward left open so the index stays complete.
    engine._index_sealed(store.flush())
    return report
