"""Conformance tests for the pluggable KV backends.

Every backend must behave like a byte-keyed Python dict whose views are
sorted: overwrites replace the value, ``keys()``/``items()`` iterate in
ascending byte order, batch writes equal sequential puts, and a
file-backed store reopens onto the same data.
"""

import random

import pytest

from repro.common.errors import ConfigurationError, StorageError
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
        reference = dict(items)  # sequential puts: the last value wins
        assert list(backend.items()) == sorted(reference.items())

    def test_delete(self, backend):
        backend.put(b"a", b"1")
        backend.put(b"b", b"2")
        assert backend.delete(b"a") is True
        assert backend.delete(b"a") is False
        assert b"a" not in backend
        assert len(backend) == 1
        assert list(backend.items()) == [(b"b", b"2")]

    def test_rejects_non_bytes(self, backend):
        with pytest.raises(StorageError):
            backend.put("text", b"value")
        with pytest.raises(StorageError):
            backend.put(b"key", 42)

    def test_empty_store_views(self, backend):
        assert list(backend.keys()) == []
        assert list(backend.items()) == []
        assert backend.delete(b"missing") is False
        assert len(backend) == 0

    def test_keys_sort_bytewise(self, backend):
        # Byte order, not text order: a prefix sorts before its
        # extensions, and 0x00 / 0xff sort at the two ends.
        keys = [b"b", b"a\x00", b"\xff", b"a", b"\x00", b"a\xff", b"B"]
        backend.put_batch((key, b"v") for key in keys)
        assert list(backend.keys()) == sorted(keys)
        assert [key for key, _ in backend.items()] == sorted(keys)

    def test_values_are_stored_verbatim(self, backend):
        # Values come back byte for byte: no framing, prefix or encoding
        # added on the way in, whatever their length or content.
        values = {
            b"all": bytes(range(256)),
            b"eight": b"\x00" * 8,
            b"one": b"\x01",
            b"empty": b"",
        }
        for key, value in values.items():
            backend.put(key, value)
        for key, value in values.items():
            assert backend.get(key) == value
        assert dict(backend.items()) == values

    def test_delete_of_a_buffered_write(self, backend):
        # The SQLite backend's batch of 3 still holds these two writes.
        backend.put(b"a", b"1")
        backend.put(b"b", b"2")
        assert backend.delete(b"a") is True
        assert backend.get(b"a") is None
        assert b"a" not in backend
        assert list(backend.items()) == [(b"b", b"2")]

    def test_reinsert_after_delete(self, backend):
        backend.put_batch([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
        assert backend.delete(b"b") is True
        backend.put(b"b", b"22")
        assert backend.get(b"b") == b"22"
        assert len(backend) == 3
        assert list(backend.items()) == [
            (b"a", b"1"),
            (b"b", b"22"),
            (b"c", b"3"),
        ]

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
        assert list(reopened.items()) == [
            (b"a", b"3"),
            (b"m", b"22"),
            (b"z", b"1"),
        ]
        reopened.close()

    @pytest.mark.parametrize("spec", PERSISTENT_SPECS)
    def test_writes_after_reopen_overwrite_and_extend(self, spec, tmp_path):
        store = make_backend(spec, tmp_path)
        store.put(b"first", b"1")
        store.put(b"second", b"2")
        store.close()

        reopened = reopen_backend(spec, tmp_path)
        reopened.put(b"third", b"3")
        reopened.put(b"first", b"11")
        assert list(reopened.items()) == [
            (b"first", b"11"),
            (b"second", b"2"),
            (b"third", b"3"),
        ]
        reopened.close()


    @pytest.mark.parametrize("spec", PERSISTENT_SPECS)
    def test_delete_survives_reopen(self, spec, tmp_path):
        store = make_backend(spec, tmp_path)
        store.put_batch([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
        assert store.delete(b"b") is True
        store.close()

        reopened = reopen_backend(spec, tmp_path)
        assert b"b" not in reopened
        assert list(reopened.items()) == [(b"a", b"1"), (b"c", b"3")]
        reopened.close()

    @pytest.mark.parametrize("spec", PERSISTENT_SPECS)
    def test_batch_larger_than_a_drain_survives_reopen(self, spec, tmp_path):
        pairs = [(b"k%02d" % i, b"v%d" % i) for i in range(20)]
        store = make_backend(spec, tmp_path)
        store.put_batch(reversed(pairs))
        store.close()

        reopened = reopen_backend(spec, tmp_path)
        assert len(reopened) == 20
        assert list(reopened.items()) == pairs
        reopened.close()

    @pytest.mark.parametrize("spec", PERSISTENT_SPECS)
    def test_empty_store_reopens_empty_and_writable(self, spec, tmp_path):
        make_backend(spec, tmp_path).close()

        reopened = reopen_backend(spec, tmp_path)
        assert len(reopened) == 0
        assert list(reopened.items()) == []
        reopened.put(b"key", b"value")
        assert reopened.get(b"key") == b"value"
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

    def test_merged_views_are_sorted_across_shards(self):
        store = ShardedBackend([KVStore() for _ in range(5)])
        keys = [b"k%03d" % i for i in range(40)]
        random.Random(3).shuffle(keys)
        for key in keys:
            store.put(key, b"v" + key)
        assert list(store.keys()) == sorted(keys)
        assert list(store.items()) == [(key, b"v" + key) for key in sorted(keys)]

    def test_each_shard_holds_its_pairs_verbatim(self):
        # A shard stores exactly what was put, so each one is readable
        # on its own as a plain backend.
        shards = [KVStore() for _ in range(3)]
        store = ShardedBackend(shards)
        pairs = {b"key-%02d" % i: b"value-%02d" % i for i in range(30)}
        store.put_batch(pairs.items())
        held = {}
        for shard in shards:
            held.update(shard.items())
        assert held == pairs

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ConfigurationError):
            ShardedBackend([])


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

