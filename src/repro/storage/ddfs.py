"""DDFS-like deduplication engine (§7.4.1).

Implements the paper's four-step deduplication workflow for each incoming
(ciphertext) chunk:

* **S1** — check the in-memory fingerprint cache; a hit means duplicate.
* **S2** — one Bloom-filter test-and-set
  (:meth:`~repro.index.bloom.BloomFilter.add`): if any of the
  fingerprint's bits was unset, the chunk is definitely unique — its bits
  are now set — so buffer it into the open container and, when the
  container fills, seal it and write its metadata to the on-disk
  fingerprint index (update access).
* **S3** — all bits already set may be a false positive, so query the
  on-disk index (index access); a miss stores the chunk as in S2.
* **S4** — an index hit confirms a duplicate: load the fingerprints of the
  whole container holding the chunk into the cache (loading access),
  banking on chunk locality to turn the following chunks into S1 hits.

There is one per-chunk path: :meth:`DDFSEngine.process_backup` and
:meth:`DDFSEngine.process_chunk` (the content path's entry) are shells
over the same bound loop. The multi-tenant service runs the same steps
over a whole upload in batches, each with the loop's exact outcome:
:meth:`DDFSEngine.dedup_response` (S1, the open buffer, one batched S3
probe, S4) and :meth:`DDFSEngine.ingest_unique_batch` (S2 as one Bloom
test-and-set, one container extend). Every container seal — the loop's,
the batch's, a backup boundary's, garbage collection's — writes the
index through the same method, from the sealed container's fingerprint
column: containers hold columns, not per-chunk entries (see
:mod:`repro.storage.container`), so an update and an S4 prefetch read
the container's own fingerprint list.

The engine processes whole backups and emits one
:class:`~repro.storage.metrics.BackupWriteReport` per backup — exactly the
series Figures 13/14 plot for MLE vs the combined defense.
"""

from __future__ import annotations

from itertools import filterfalse, repeat
from typing import Collection

from repro.common.errors import ConfigurationError
from repro.common.units import MiB
from repro.datasets.model import Backup
from repro.index.bloom import BloomFilter
from repro.index.cache import FingerprintCache
from repro.storage.container import ContainerStore
from repro.storage.fingerprint_index import OnDiskFingerprintIndex
from repro.storage.metrics import BackupWriteReport


class DDFSEngine:
    """Locality-aware deduplication engine with metered metadata access.

    Args:
        cache_budget_bytes: fingerprint-cache memory budget (the paper
            evaluates an insufficient and a sufficient size).
        bloom_capacity: expected number of unique fingerprints.
        bloom_fpr: Bloom filter false-positive target (0.01 in the paper).
        container_size: container payload size (4 MB in the paper).
        entry_bytes: metadata bytes per fingerprint entry (32 B).
        keep_payload: retain chunk payloads for the restore path.
        index_backend: backend for the on-disk fingerprint index — a
            :class:`~repro.index.backends.KVBackend` instance, a spec
            string (``"memory"``, ``"sqlite"``, ``"sharded[:N]"``, …), or
            ``None`` for the default in-process store.
        index_path: where a spec-string ``index_backend`` persists; a
            spec string without a path stays in process memory.
    """

    def __init__(
        self,
        cache_budget_bytes: int,
        bloom_capacity: int,
        bloom_fpr: float = 0.01,
        container_size: int = 4 * MiB,
        entry_bytes: int = 32,
        keep_payload: bool = False,
        index_backend=None,
        index_path=None,
    ):
        if bloom_capacity <= 0:
            raise ConfigurationError("bloom_capacity must be positive")
        self.cache = FingerprintCache(cache_budget_bytes, entry_bytes)
        self.bloom = BloomFilter(bloom_capacity, bloom_fpr)
        self.containers = ContainerStore(container_size, keep_payload)
        self.index = OnDiskFingerprintIndex(
            entry_bytes, store=index_backend, path=index_path
        )
        # Engine-lifetime bloom false positives (per-backup reports reset
        # their own counter; the service path has no report, so telemetry
        # reads this running total instead).
        self.bloom_false_positives = 0

    # -- chunk path -----------------------------------------------------------

    def _dedup(
        self,
        fingerprints,
        sizes,
        payloads=None,
        report: BackupWriteReport | None = None,
    ) -> int:
        """The one S1–S4 body: deduplicate a run of chunks in a single
        bound loop, tallies written to ``report`` once; returns how many
        chunks were stored."""
        lookup = self.cache.lookup
        buffered = self.containers.in_open_buffer
        test_and_set = self.bloom.add
        append = self.containers.append
        index = self.index
        hits = false_positives = 0
        stored = stored_bytes = logical_bytes = sealed = 0
        if payloads is None:
            payloads = repeat(None)
        for fingerprint, size, data in zip(fingerprints, sizes, payloads):
            logical_bytes += size
            # S1: in-memory fingerprint cache (plus the open container
            # buffer, so duplicates of not-yet-sealed chunks are not
            # double-stored).
            if lookup(fingerprint) is not None:
                hits += 1
                continue
            if buffered(fingerprint):
                continue
            # S2: one Bloom test-and-set; unset bits mean definitely unique.
            if test_and_set(fingerprint):
                # S3: possible duplicate — confirm against the on-disk
                # index.
                container_id = index.lookup(fingerprint)
                if container_id is not None:
                    # S4: confirmed duplicate — prefetch the whole
                    # container's fingerprints into the cache (chunk
                    # locality). The test-and-set changed no bit and is
                    # not an insertion.
                    self.bloom.inserted -= 1
                    self._load_container(container_id)
                    continue
                false_positives += 1
            stored += 1
            stored_bytes += size
            if self._index_sealed(append(fingerprint, size, data)):
                sealed += 1
        self.bloom_false_positives += false_positives
        if report is not None:
            chunks = len(fingerprints)
            report.total_chunks += chunks
            report.logical_bytes += logical_bytes
            report.unique_chunks += stored
            report.duplicate_chunks += chunks - stored
            report.stored_bytes += stored_bytes
            report.containers_written += sealed
            report.bloom_false_positives += false_positives
            report.cache_hits += hits
            report.cache_misses += chunks - hits
        return stored

    def _index_sealed(self, container_id: int | None) -> bool:
        """Write a just-sealed container's fingerprints to the on-disk
        index (update access); ``None`` means nothing was sealed."""
        if container_id is None:
            return False
        container = self.containers.get(container_id)
        self.index.update_batch(container.fingerprints(), container_id)
        return True

    def process_chunk(
        self,
        fingerprint: bytes,
        size: int,
        data: bytes | None = None,
        report: BackupWriteReport | None = None,
    ) -> bool:
        """Deduplicate one chunk; returns True if it was stored (unique)."""
        return bool(self._dedup((fingerprint,), (size,), (data,), report))

    def ingest_unique_batch(
        self,
        fingerprints: list[bytes],
        sizes: list[int],
        report: BackupWriteReport | None = None,
    ) -> None:
        """Store a batch of *distinct* chunks the dedup response already
        resolved as unique (not cached, not buffered, not indexed) — the
        multi-tenant service's transfer path.

        Dedup decisions and metered index/update bytes are identical to
        feeding each chunk through :meth:`process_chunk`: every chunk is
        definitely stored, so S2 runs as one batched Bloom test-and-set
        (:meth:`~repro.index.bloom.BloomFilter.add_many`) whose false
        positives each charge one index probe (the answer is known), and
        the chunks join the containers in one
        :meth:`~repro.storage.container.ContainerStore.extend`, each seal
        writing the index in order. The S1 cache is *not* consulted (the
        dedup response already probed it while resolving the needed-set),
        so the engine's cache hit/miss counters — and a report's
        ``cache_misses`` — advance only on the per-chunk path.
        """
        false_positives = self.bloom.add_many(fingerprints)
        self.index.charge_index_probes(false_positives)
        self.bloom_false_positives += false_positives
        sealed = self.containers.extend(fingerprints, sizes)
        for container_id in sealed:
            self._index_sealed(container_id)
        if report is not None:
            stored_bytes = sum(sizes)
            report.total_chunks += len(fingerprints)
            report.logical_bytes += stored_bytes
            report.unique_chunks += len(fingerprints)
            report.stored_bytes += stored_bytes
            report.containers_written += len(sealed)
            report.bloom_false_positives += false_positives

    def dedup_response(self, fingerprints: Collection[bytes]) -> tuple[list[bytes], int]:
        """Resolve an upload's distinct fingerprints to the ones this
        engine needs transferred — the multi-tenant service's batched
        dedup response.

        S1 is one bulk cache probe, then the open container buffer, then
        one batched on-disk index probe of what is left; each confirmed
        duplicate's container is prefetched (S4) in first-occurrence
        order, so later uploads of co-located chunks resolve at S1 —
        chunk locality, across tenants. Returns the needed fingerprints in
        stream order and how many the index probed.
        """
        candidates = list(
            filterfalse(
                self.containers.in_open_buffer, self.cache.lookup_many(fingerprints)
            )
        )
        known = self.index.lookup_batch(candidates)
        for container_id in dict.fromkeys(known.values()):
            self.prefetch_container(container_id)
        return [fp for fp in candidates if fp not in known], len(candidates)

    def _load_container(self, container_id: int) -> None:
        container = self.containers.get(container_id)
        self.index.charge_loading(container.num_chunks)
        self.cache.insert_many(container.fingerprints(), container_id)

    def prefetch_container(self, container_id: int) -> None:
        """Step S4 for front-ends that confirm duplicates themselves (the
        multi-tenant service's batched dedup response): load the whole
        container's fingerprints into the cache, charging loading access."""
        self._load_container(container_id)

    # -- backup path ----------------------------------------------------------

    def finish_backup(self, report: BackupWriteReport | None = None) -> None:
        """Seal the open container at a backup boundary."""
        if self._index_sealed(self.containers.flush()) and report is not None:
            report.containers_written += 1

    def process_backup(self, backup: Backup) -> BackupWriteReport:
        """Deduplicate a whole backup stream and report metadata access."""
        report = BackupWriteReport(label=backup.label)
        self._dedup(backup.fingerprints, backup.sizes, report=report)
        self.finish_backup(report)
        report.metadata = self.index.take_stats()
        return report

    def process_series(self, backups: list[Backup]) -> list[BackupWriteReport]:
        """Deduplicate a whole backup series in creation order."""
        return [self.process_backup(backup) for backup in backups]
