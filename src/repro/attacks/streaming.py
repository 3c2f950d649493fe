"""Streaming, backend-backed COUNT (the paper's LevelDB mode, §5.2).

The paper's attack implementation scales frequency analysis to
multi-million-chunk FSL traces by keeping the COUNT tables — frequencies F,
left/right co-occurrence tables L/R — in LevelDB rather than RAM. This
module reproduces that design on top of the pluggable
:class:`~repro.index.backends.KVBackend` layer:

* :class:`CountStores` — the three backend handles one COUNT run writes to
  (``meta`` for per-chunk size+frequency, ``left``/``right`` for the
  neighbor tables), built from a backend spec or supplied directly;
* :class:`NeighborStore` — serialized, insertion-ordered neighbor tables
  loaded lazily per chunk (the paper's sequential LevelDB lists);
* :class:`StreamingCount` — batch-ingesting COUNT: each batch is one
  shard of the COUNT kernel (the *streamed batches* row of the table in
  :mod:`repro.attacks.frequency`) whose adjacency deltas are merged
  through the backend with batched writes;
* :class:`BackendChunkStats` — the result object the locality/advanced
  attacks consume in place of :class:`~repro.attacks.frequency.ChunkStats`.

Because every backend preserves first-insertion order and the delta merge
appends new keys in stream order, the COUNT output — including the
tie-break-sensitive iteration order — is byte-identical across backends
and identical to the single-pass in-memory COUNT. The equivalence tests in
``tests/unit/test_backends.py`` pin this down.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

from repro.attacks.frequency import ChunkStats, accumulate_counts
from repro.attacks.interning import (
    ChunkVocabulary,
    count_shard,
    unpack_pairs,
)
from repro.common import accel
from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup
from repro.index.backends import KVBackend, open_backend

__all__ = [
    "BackendChunkStats",
    "CountStores",
    "DEFAULT_BATCH_SIZE",
    "NeighborStore",
    "StreamingCount",
    "streaming_count",
]

_META = struct.Struct(">IQ")  # size, frequency

#: Chunks accumulated per dict delta before a flush through the backend.
#: 64 Ki records keeps the delta dicts comfortably in cache while giving
#: the SQLite/sharded backends large ``executemany`` batches.
DEFAULT_BATCH_SIZE = 64 * 1024


class NeighborStore:
    """Insertion-ordered neighbor tables serialized into a backend.

    Each record is ``fingerprint -> [(neighbor, count), ...]`` with the
    neighbors in first-occurrence order, exactly like the sequential lists
    of the paper's LevelDB implementation.
    """

    def __init__(self, store: KVBackend, fingerprint_bytes: int):
        if fingerprint_bytes <= 0:
            raise ConfigurationError("fingerprint_bytes must be positive")
        self._store = store
        self._fp_len = fingerprint_bytes
        self._record = struct.Struct(f">{fingerprint_bytes}sI")

    def write_table(self, fingerprint: bytes, table: dict[bytes, int]) -> None:
        self._store.put(fingerprint, self.encode(table))

    def write_tables(self, tables: dict[bytes, dict[bytes, int]]) -> None:
        """Batch-write many tables through the backend's batched path."""
        self._store.put_batch(
            (fingerprint, self.encode(table))
            for fingerprint, table in tables.items()
        )

    def encode(self, table: dict[bytes, int]) -> bytes:
        return b"".join(
            self._record.pack(neighbor, count)
            for neighbor, count in table.items()
        )

    def decode(self, raw: bytes) -> dict[bytes, int]:
        table: dict[bytes, int] = {}
        for offset in range(0, len(raw), self._record.size):
            neighbor, count = self._record.unpack_from(raw, offset)
            table[neighbor] = count
        return table

    def get(
        self, fingerprint: bytes, default: dict[bytes, int] | None = None
    ) -> dict[bytes, int]:
        raw = self._store.get(fingerprint)
        if raw is None:
            return default if default is not None else {}
        return self.decode(raw)

    def __contains__(self, fingerprint: bytes) -> bool:
        return fingerprint in self._store

    def __len__(self) -> int:
        return len(self._store)


class CountStores:
    """The three backends one COUNT run writes to.

    Args:
        meta: ``fingerprint -> (size, frequency)`` records, first-insertion
            ordered (this order is what preserves the attacks' tie-break
            behaviour).
        left / right: serialized neighbor tables (see
            :class:`NeighborStore`).
    """

    def __init__(self, meta: KVBackend, left: KVBackend, right: KVBackend):
        self.meta = meta
        self.left = left
        self.right = right

    @classmethod
    def in_memory(cls) -> "CountStores":
        """Three dict-backed stores (no persistence)."""
        return cls(open_backend("memory"), open_backend("memory"), open_backend("memory"))

    @classmethod
    def open(
        cls,
        directory: str | os.PathLike,
        backend: str = "kvstore",
        shards: int | None = None,
    ) -> "CountStores":
        """Open (or create) persistent stores under ``directory``.

        Layout per backend spec: ``meta.kv``/``left.kv``/``right.kv`` log
        files for ``kvstore``, ``meta.db``/… SQLite files for ``sqlite``,
        and ``meta/``/… shard directories for ``sharded``.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        name = backend.partition(":")[0]
        if name == "memory":
            return cls.in_memory()
        if name == "kvstore":
            suffix = ".kv"
        elif name == "sqlite":
            suffix = ".db"
        elif name == "sharded":
            suffix = ""
        else:
            raise ConfigurationError(f"unknown backend spec {backend!r}")
        return cls(
            *(
                open_backend(backend, directory / f"{table}{suffix}", shards)
                for table in ("meta", "left", "right")
            )
        )

    def flush(self) -> None:
        for store in (self.meta, self.left, self.right):
            store.flush()

    def close(self) -> None:
        for store in (self.meta, self.left, self.right):
            store.close()


class BackendChunkStats:
    """COUNT output with backend-resident neighbor tables.

    ``frequencies`` and ``sizes`` stay in memory (they are needed in full
    for the global ranking anyway); the much larger ``left``/``right``
    co-occurrence tables are loaded lazily per chunk. The interface
    matches :class:`~repro.attacks.frequency.ChunkStats` where the attacks'
    table steps use it (``LocalityAttack._table_steps``), so
    :class:`~repro.attacks.locality.LocalityAttack` and
    :class:`~repro.attacks.advanced.AdvancedLocalityAttack` run against
    any backend, on fingerprints.
    """

    def __init__(
        self,
        frequencies: dict[bytes, int],
        sizes: dict[bytes, int],
        left: NeighborStore,
        right: NeighborStore,
    ):
        self.frequencies = frequencies
        self.sizes = sizes
        self.left = left
        self.right = right

    @property
    def unique_chunks(self) -> int:
        return len(self.frequencies)

    @classmethod
    def from_stores(cls, stores: CountStores) -> "BackendChunkStats":
        """Materialize the ranking tables from persisted stores.

        Frequencies and sizes are rebuilt in first-insertion order (the
        backends preserve it), keeping tie-break behaviour identical to
        the in-memory COUNT.
        """
        frequencies: dict[bytes, int] = {}
        sizes: dict[bytes, int] = {}
        for fingerprint, raw in stores.meta.insertion_items():
            size, frequency = _META.unpack(raw)
            frequencies[fingerprint] = frequency
            sizes[fingerprint] = size
        if not frequencies:
            raise ConfigurationError("no persisted COUNT state in stores")
        fp_len = len(next(iter(frequencies)))
        return cls(
            frequencies,
            sizes,
            NeighborStore(stores.left, fp_len),
            NeighborStore(stores.right, fp_len),
        )


def _group_pairs(previous_keys, current_keys, counts) -> tuple[dict, dict]:
    """Split aggregated adjacency pairs into the two directed delta tables
    ``(left, right)``.

    The pairs arrive in first-occurrence order, so each grouped outer and
    inner dict comes out in exactly the order the reference COUNT would
    have inserted it — the order the backend merge relies on.
    """
    left: dict = {}
    right: dict = {}
    for previous, current, count in zip(previous_keys, current_keys, counts):
        table = right.get(previous)
        if table is None:
            table = right[previous] = {}
        table[current] = count
        table = left.get(current)
        if table is None:
            table = left[current] = {}
        table[previous] = count
    return left, right


class StreamingCount:
    """Batch-ingesting COUNT that flushes adjacency deltas through a backend.

    Feed the logical chunk stream through :meth:`ingest` (any number of
    calls, any batch alignment). Each internal batch is counted as one
    shard — by :func:`~repro.attacks.interning.count_shard` over ids
    interned through a batch-local vocabulary, the carried previous chunk
    as the lead, or without numpy by
    :func:`~repro.attacks.frequency.accumulate_counts` — and merged:

    * frequencies/sizes stay in RAM (they are needed in full for the
      global ranking anyway) as two dicts in first-occurrence order, and
      are written to the ``meta`` store once, at :meth:`finalize`;
    * ``left``/``right``: the existing serialized table is decoded, the
      batch's delta counts added, new neighbors appended in delta order —
      which equals global first-occurrence order, so the merge is
      associative across any batching.

    Work per batch is O(batch) and resident state O(unique chunks) in
    either mode: nothing is kept per chunk occurrence and nothing scans
    the whole vocabulary. Call :meth:`finalize` once to flush and obtain
    the :class:`BackendChunkStats`.

    Args:
        stores: backend handles, which must be empty (a COUNT *merges*
            into its stores); defaults to fresh in-memory stores.
        batch_size: chunk records accumulated per flush.
    """

    def __init__(
        self,
        stores: CountStores | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        self.stores = stores if stores is not None else CountStores.in_memory()
        for store in (self.stores.meta, self.stores.left, self.stores.right):
            if len(store):
                raise ConfigurationError(
                    "StreamingCount needs empty stores: counting into "
                    "existing records would merge two runs into one table; "
                    "reopen a completed COUNT with load_chunk_stats"
                )
        self.batch_size = batch_size
        self._neighbors: tuple[NeighborStore, NeighborStore] | None = None
        self._total_chunks = 0
        self._previous: bytes | None = None  # last chunk of the previous batch
        self._frequencies: dict[bytes, int] = {}
        self._sizes: dict[bytes, int] = {}

    @property
    def total_chunks(self) -> int:
        """Logical chunk records ingested so far."""
        return self._total_chunks

    def ingest_backup(self, backup: Backup) -> None:
        """Ingest a whole backup's logical chunk sequence."""
        self.ingest(backup.fingerprints, backup.sizes)

    def ingest(self, fingerprints: list[bytes], sizes: list[int]) -> None:
        """Ingest a slice of the logical stream (order matters)."""
        if len(fingerprints) != len(sizes):
            raise ConfigurationError("fingerprints and sizes must have equal length")
        if not fingerprints:
            return
        if self._neighbors is None:
            fp_len = len(fingerprints[0])
            self._neighbors = (
                NeighborStore(self.stores.left, fp_len),
                NeighborStore(self.stores.right, fp_len),
            )
        for start in range(0, len(fingerprints), self.batch_size):
            stop = start + self.batch_size
            self._flush_batch(fingerprints[start:stop], sizes[start:stop])

    def _count_batch(self, fingerprints: list[bytes], sizes: list[int]):
        """Count one batch into the ranking tables; returns its two
        directed adjacency delta tables, fingerprint-keyed and in
        first-occurrence order."""
        numpy = accel.numpy
        previous, self._previous = self._previous, fingerprints[-1]
        if numpy is None:
            delta = ChunkStats(self._frequencies, {}, {}, self._sizes)
            accumulate_counts(delta, fingerprints, sizes, previous)
            return delta.left, delta.right
        # Batch-local ids keep the kernel O(batch): a stream-wide
        # vocabulary would make every batch scan it whole.
        local = ChunkVocabulary()
        seg = local.intern_array(fingerprints)
        lead = 0 if previous is None else 1
        if lead:
            seg = numpy.concatenate(([local.intern(previous)], seg))
        (present, counts, first), paired = count_shard(seg, 0, lead, len(local))
        # Local ids are assigned in stream order, so ascending ``present``
        # is the batch's first-occurrence order; a key that is new to the
        # tables is new to the stream, which keeps their insertion order.
        decode = local._fingerprints.__getitem__
        frequencies = self._frequencies
        first_sizes = self._sizes
        for fingerprint, count, position in zip(
            map(decode, present.tolist()), counts.tolist(), first.tolist()
        ):
            seen = frequencies.get(fingerprint)
            if seen is None:
                frequencies[fingerprint] = count
                first_sizes[fingerprint] = sizes[position]
            else:
                frequencies[fingerprint] = seen + count
        if paired is None:
            return {}, {}
        pairs, pair_first, pair_counts = paired
        order = numpy.argsort(pair_first)
        previous_ids, current_ids = unpack_pairs(pairs[order])
        return _group_pairs(
            map(decode, previous_ids.tolist()),
            map(decode, current_ids.tolist()),
            pair_counts[order].tolist(),
        )

    def _flush_batch(self, fingerprints: list[bytes], sizes: list[int]) -> None:
        deltas = self._count_batch(fingerprints, sizes)
        self._total_chunks += len(fingerprints)
        assert self._neighbors is not None
        for neighbor_store, delta_tables in zip(self._neighbors, deltas):
            merged: dict[bytes, dict[bytes, int]] = {}
            for fingerprint, delta_table in delta_tables.items():
                table = neighbor_store.get(fingerprint)
                if table:
                    for neighbor, count in delta_table.items():
                        table[neighbor] = table.get(neighbor, 0) + count
                else:
                    table = delta_table
                merged[fingerprint] = table
            neighbor_store.write_tables(merged)

    def finalize(self) -> BackendChunkStats:
        """Write the ranking tables, flush, and return the stats object.

        An empty ingest finalizes to empty stats, matching
        :func:`~repro.attacks.frequency.count_with_neighbors` on an empty
        backup.
        """
        frequencies = self._frequencies
        sizes = self._sizes
        self.stores.meta.put_batch(
            (fingerprint, _META.pack(sizes[fingerprint], frequency))
            for fingerprint, frequency in frequencies.items()
        )
        self.stores.flush()
        if self._neighbors is None:  # nothing ingested
            placeholder = 1
            return BackendChunkStats(
                {},
                {},
                NeighborStore(self.stores.left, placeholder),
                NeighborStore(self.stores.right, placeholder),
            )
        left, right = self._neighbors
        return BackendChunkStats(frequencies, sizes, left, right)


def streaming_count(
    backup: Backup,
    stores: CountStores | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> BackendChunkStats:
    """Run the streaming COUNT over one backup (convenience wrapper)."""
    counter = StreamingCount(stores, batch_size)
    counter.ingest_backup(backup)
    return counter.finalize()
