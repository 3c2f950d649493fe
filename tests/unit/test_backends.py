"""Conformance and equivalence tests for the pluggable KV backends.

Every backend must behave like a byte-keyed Python dict: overwrites keep
first-insertion order, ``keys()``/``items()`` iterate in ascending byte
order, and batch writes equal sequential puts. The equivalence tests pin
the tentpole property: the streaming COUNT produces byte-identical output
— including tie-break-sensitive iteration order — on every backend.
"""

import random

import pytest

from repro.attacks.frequency import count_with_neighbors
from repro.attacks.streaming import CountStores, StreamingCount, streaming_count
from repro.common.errors import ConfigurationError, StorageError
from repro.datasets.model import Backup
from repro.index.backends import (
    KVBackend,
    ShardedBackend,
    SQLiteBackend,
    open_backend,
)
from repro.index.kvstore import KVStore

ALL_SPECS = (
    "memory",
    "kvstore",
    "kvstore-file",
    "sqlite",
    "sqlite-file",
    "sharded",
    "sharded-file",
)
PERSISTENT_SPECS = ("kvstore-file", "sqlite-file", "sharded-file")


def make_backend(spec: str, tmp_path) -> KVBackend:
    if spec == "memory":
        return open_backend("memory")
    if spec == "kvstore":
        return KVStore()
    if spec == "kvstore-file":
        return KVStore(tmp_path / "store.kv")
    if spec == "sqlite":
        return SQLiteBackend(batch_size=3)  # tiny batches: exercise draining
    if spec == "sqlite-file":
        return SQLiteBackend(tmp_path / "store.db", batch_size=3)
    if spec == "sharded":
        return ShardedBackend([KVStore() for _ in range(3)])
    if spec == "sharded-file":
        return open_backend("sharded:3", tmp_path / "shards")
    raise AssertionError(spec)


def reopen_backend(spec: str, tmp_path) -> KVBackend:
    assert spec in PERSISTENT_SPECS
    return make_backend(spec, tmp_path)


@pytest.fixture(params=ALL_SPECS)
def backend(request, tmp_path):
    store = make_backend(request.param, tmp_path)
    yield store
    store.close()


class TestConformance:
    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, KVBackend)

    def test_put_get_roundtrip(self, backend):
        backend.put(b"key", b"value")
        assert backend.get(b"key") == b"value"
        assert backend.get(b"missing") is None
        assert backend.get(b"missing", b"fallback") == b"fallback"

    def test_contains_and_len(self, backend):
        assert b"a" not in backend
        assert len(backend) == 0
        backend.put(b"a", b"1")
        backend.put(b"b", b"2")
        backend.put(b"a", b"3")  # overwrite, not a new key
        assert b"a" in backend
        assert len(backend) == 2

    def test_empty_value(self, backend):
        backend.put(b"key", b"")
        assert backend.get(b"key") == b""
        assert b"key" in backend

    def test_overwrite_keeps_insertion_position(self, backend):
        backend.put(b"z", b"1")
        backend.put(b"m", b"2")
        backend.put(b"a", b"3")
        backend.put(b"m", b"22")  # must stay in the middle
        assert list(backend.insertion_items()) == [
            (b"z", b"1"),
            (b"m", b"22"),
            (b"a", b"3"),
        ]

    def test_ordered_iteration(self, backend):
        pairs = {b"cc": b"3", b"aa": b"1", b"bb": b"2", b"dd": b"4"}
        for key, value in pairs.items():
            backend.put(key, value)
        assert list(backend.keys()) == sorted(pairs)
        assert list(backend.items()) == [
            (key, pairs[key]) for key in sorted(pairs)
        ]

    def test_put_batch_equals_sequential_puts(self, backend):
        items = [(b"b", b"1"), (b"a", b"2"), (b"c", b"3"), (b"a", b"4")]
        backend.put_batch(items)
        reference = dict(items)  # sequential puts: last value, first slot
        assert list(backend.insertion_items()) == list(reference.items())
        assert list(backend.items()) == sorted(reference.items())

    def test_delete(self, backend):
        backend.put(b"a", b"1")
        backend.put(b"b", b"2")
        assert backend.delete(b"a") is True
        assert backend.delete(b"a") is False
        assert b"a" not in backend
        assert len(backend) == 1
        assert list(backend.insertion_items()) == [(b"b", b"2")]

    def test_rejects_non_bytes(self, backend):
        with pytest.raises(StorageError):
            backend.put("text", b"value")
        with pytest.raises(StorageError):
            backend.put(b"key", 42)

    def test_interleaved_reads_and_writes(self, backend):
        # Reads between puts must see buffered writes (the SQLite backend
        # holds a pending batch; the sharded backend wraps it).
        for i in range(10):
            key = b"k%02d" % i
            backend.put(key, b"v%d" % i)
            assert backend.get(key) == b"v%d" % i
            assert key in backend
        assert len(backend) == 10


class TestPersistence:
    @pytest.mark.parametrize("spec", PERSISTENT_SPECS)
    def test_roundtrip_preserves_data_and_order(self, spec, tmp_path):
        store = make_backend(spec, tmp_path)
        store.put(b"z", b"1")
        store.put(b"m", b"2")
        store.put(b"a", b"3")
        store.put(b"m", b"22")
        store.close()

        reopened = reopen_backend(spec, tmp_path)
        assert len(reopened) == 3
        assert reopened.get(b"m") == b"22"
        assert list(reopened.insertion_items()) == [
            (b"z", b"1"),
            (b"m", b"22"),
            (b"a", b"3"),
        ]
        reopened.close()

    @pytest.mark.parametrize("spec", PERSISTENT_SPECS)
    def test_writes_after_reopen_extend_insertion_order(self, spec, tmp_path):
        store = make_backend(spec, tmp_path)
        store.put(b"first", b"1")
        store.put(b"second", b"2")
        store.close()

        reopened = reopen_backend(spec, tmp_path)
        reopened.put(b"third", b"3")
        reopened.put(b"first", b"11")  # overwrite keeps the oldest slot
        assert [key for key, _ in reopened.insertion_items()] == [
            b"first",
            b"second",
            b"third",
        ]
        reopened.close()


class TestSQLiteLockedRetry:
    """The busy-timeout + bounded-retry path for concurrent writers."""

    def test_busy_timeout_validated(self):
        with pytest.raises(ConfigurationError):
            SQLiteBackend(busy_timeout_s=-1.0)

    def test_busy_timeout_pragma_applied(self, tmp_path):
        with SQLiteBackend(
            tmp_path / "store.db", busy_timeout_s=2.5
        ) as store:
            (timeout_ms,) = store._conn.execute(
                "PRAGMA busy_timeout"
            ).fetchone()
            assert timeout_ms == 2500

    def test_transient_lock_is_retried(self, tmp_path):
        import sqlite3

        store = SQLiteBackend(tmp_path / "store.db")
        calls = []

        def flaky_drain():
            calls.append(1)
            if len(calls) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "committed"

        assert store._write_retry(flaky_drain) == "committed"
        assert len(calls) == 3
        store.close()

    def test_non_lock_errors_propagate_untouched(self, tmp_path):
        import sqlite3

        store = SQLiteBackend(tmp_path / "store.db")

        def broken():
            raise sqlite3.OperationalError("no such table: kv")

        with pytest.raises(sqlite3.OperationalError):
            store._write_retry(broken)
        store.close()

    def test_persistent_lock_surfaces_storage_error(
        self, tmp_path, monkeypatch
    ):
        import sqlite3

        import repro.index.backends as backends_module

        # No real sleeping through the exponential backoff schedule.
        monkeypatch.setattr(backends_module.time, "sleep", lambda _s: None)
        path = tmp_path / "store.db"
        store = SQLiteBackend(path, busy_timeout_s=0.005)
        store.put(b"k", b"v")
        # A second connection holds an exclusive write lock across every
        # retry, so the drain must give up with a clean StorageError
        # rather than leaking sqlite3.OperationalError upward.
        blocker = sqlite3.connect(path, timeout=0.005)
        blocker.execute("PRAGMA busy_timeout = 5")
        blocker.execute("BEGIN EXCLUSIVE")
        try:
            with pytest.raises(StorageError):
                store.flush()
        finally:
            blocker.rollback()
            blocker.close()
            store.close()


class TestShardedBackend:
    def test_partitions_across_shards(self):
        shards = [KVStore() for _ in range(4)]
        store = ShardedBackend(shards)
        for i in range(64):
            store.put(b"key-%02d" % i, b"v")
        populated = sum(1 for shard in shards if len(shard) > 0)
        assert populated > 1
        assert sum(len(shard) for shard in shards) == 64

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ConfigurationError):
            ShardedBackend([])

    def test_global_insertion_order_across_shards(self):
        store = ShardedBackend([KVStore() for _ in range(5)])
        keys = [b"k%03d" % i for i in range(40)]
        rng = random.Random(3)
        rng.shuffle(keys)
        for key in keys:
            store.put(key, b"v")
        assert [key for key, _ in store.insertion_items()] == keys


class TestOpenBackend:
    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            open_backend("leveldb")

    def test_memory_cannot_persist(self, tmp_path):
        with pytest.raises(ConfigurationError):
            open_backend("memory", tmp_path / "x")

    def test_sharded_spec_with_count(self):
        store = open_backend("sharded:7")
        assert store.num_shards == 7

    def test_bad_shard_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            open_backend("sharded:zero")
        with pytest.raises(ConfigurationError):
            open_backend("sharded:0")

    def test_sharded_files_created(self, tmp_path):
        store = open_backend("sharded:2", tmp_path / "s")
        store.put(b"key", b"value")
        store.close()
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) >= [
            "shard-00.db",
            "shard-01.db",
        ]


# -- streaming COUNT equivalence ---------------------------------------------


def synthetic_backup(
    num_chunks: int = 2500, num_unique: int = 300, seed: int = 9
) -> Backup:
    """A skewed synthetic trace: few hot chunks, a long cold tail."""
    rng = random.Random(seed)
    pool = [rng.randbytes(8) for _ in range(num_unique)]
    size_of = {fp: rng.randrange(1024, 8192) for fp in pool}
    fingerprints = [
        pool[min(int(rng.random() ** 3 * num_unique), num_unique - 1)]
        for _ in range(num_chunks)
    ]
    return Backup(
        label="synthetic",
        fingerprints=fingerprints,
        sizes=[size_of[fp] for fp in fingerprints],
    )


def assert_stats_identical(reference, stats):
    """Byte-identical COUNT: same tables *and* same iteration order."""
    assert list(stats.frequencies.items()) == list(
        reference.frequencies.items()
    )
    assert stats.sizes == reference.sizes
    for fingerprint in reference.frequencies:
        for side in ("left", "right"):
            expected = getattr(reference, side).get(fingerprint, {})
            actual = getattr(stats, side).get(fingerprint, {})
            assert list(actual.items()) == list(expected.items())


def count_stores_for(spec: str, tmp_path) -> CountStores:
    return CountStores(
        make_backend(spec, tmp_path / "meta"),
        make_backend(spec, tmp_path / "left"),
        make_backend(spec, tmp_path / "right"),
    )


class TestStreamingCountEquivalence:
    @pytest.mark.parametrize(
        "spec", ("memory", "kvstore", "sqlite", "sqlite-file", "sharded")
    )
    def test_identical_to_in_memory_count(self, spec, tmp_path):
        backup = synthetic_backup()
        reference = count_with_neighbors(backup)
        stores = count_stores_for(spec, tmp_path)
        # A small, non-round batch size forces many delta merges and
        # unaligned batch boundaries.
        stats = streaming_count(backup, stores, batch_size=257)
        assert_stats_identical(reference, stats)
        assert stats.unique_chunks == reference.unique_chunks

    def test_incremental_ingest_matches_single_pass(self):
        backup = synthetic_backup(num_chunks=900)
        reference = count_with_neighbors(backup)
        counter = StreamingCount(batch_size=64)
        for start in range(0, 900, 123):  # uneven slices across calls
            counter.ingest(
                backup.fingerprints[start : start + 123],
                backup.sizes[start : start + 123],
            )
        assert counter.total_chunks == 900
        assert_stats_identical(reference, counter.finalize())

    def test_mismatched_lengths_rejected(self):
        counter = StreamingCount()
        with pytest.raises(ConfigurationError):
            counter.ingest([b"aa"], [1, 2])

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingCount(batch_size=0)

    def test_empty_count_finalizes_to_empty_stats(self):
        # Matches count_with_neighbors on an empty backup.
        stats = StreamingCount().finalize()
        assert stats.unique_chunks == 0
        assert stats.frequencies == {}
        assert stats.left.get(b"x") == {}


class TestCountStoresLayouts:
    @pytest.mark.parametrize("backend", ("kvstore", "sqlite", "sharded:2"))
    def test_open_then_reopen_roundtrip(self, backend, tmp_path):
        backup = synthetic_backup(num_chunks=400, num_unique=60)
        reference = count_with_neighbors(backup)
        stores = CountStores.open(tmp_path / "s", backend)
        streaming_count(backup, stores, batch_size=97)
        stores.close()

        from repro.attacks.streaming import BackendChunkStats

        reloaded = BackendChunkStats.from_stores(
            CountStores.open(tmp_path / "s", backend)
        )
        assert_stats_identical(reference, reloaded)

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CountStores.open(tmp_path, "leveldb")
