"""Tests for backup deletion and garbage collection."""

import pytest

from repro.common.errors import ConfigurationError, StorageError
from repro.datasets.model import Backup
from repro.storage.ddfs import DDFSEngine
from repro.storage.gc import ReferenceTracker, collect_garbage


def backup(tokens, sizes=None, label="b"):
    tokens = [t.encode() for t in tokens]
    if sizes is None:
        sizes = [4096] * len(tokens)
    return Backup(label=label, fingerprints=tokens, sizes=sizes)


def make_engine(container_chunks=4):
    return DDFSEngine(
        cache_budget_bytes=64 * 1024,
        bloom_capacity=10_000,
        container_size=container_chunks * 4096,
    )


class TestReferenceTracker:
    def test_register_and_counts(self):
        tracker = ReferenceTracker()
        tracker.register_backup(backup(["a", "b", "a"], label="b1"))
        assert tracker.is_live(b"a")
        assert tracker.live_chunks() == 2

    def test_duplicate_registration_rejected(self):
        tracker = ReferenceTracker()
        tracker.register_backup(backup(["a"], label="b1"))
        with pytest.raises(ConfigurationError):
            tracker.register_backup(backup(["a"], label="b1"))

    def test_delete_releases_references(self):
        tracker = ReferenceTracker()
        tracker.register_backup(backup(["a", "b"], label="b1"))
        tracker.register_backup(backup(["a", "c"], label="b2"))
        died = tracker.delete_backup("b1")
        assert died == 1  # b is dead, a still referenced by b2
        assert tracker.is_live(b"a")
        assert not tracker.is_live(b"b")

    def test_delete_unknown_backup(self):
        with pytest.raises(StorageError):
            ReferenceTracker().delete_backup("missing")

    def test_registered_backups(self):
        tracker = ReferenceTracker()
        tracker.register_backup(backup(["a"], label="b1"))
        assert tracker.registered_backups() == ["b1"]


class TestCollectGarbage:
    def _setup(self):
        """Two backups sharing half their chunks, then delete the first."""
        engine = make_engine(container_chunks=4)
        tracker = ReferenceTracker()
        first = backup([f"x{i}" for i in range(8)], label="b1")
        second = backup(
            [f"x{i}" for i in range(4)] + [f"y{i}" for i in range(4)],
            label="b2",
        )
        engine.process_backup(first)
        engine.process_backup(second)
        tracker.register_backup(first)
        tracker.register_backup(second)
        return engine, tracker

    def test_no_garbage_while_all_live(self):
        engine, tracker = self._setup()
        report = collect_garbage(engine, tracker)
        assert report.containers_reclaimed == 0
        assert report.bytes_reclaimed == 0

    def test_reclaim_after_deletion(self):
        engine, tracker = self._setup()
        tracker.delete_backup("b1")  # x4..x7 become dead
        report = collect_garbage(engine, tracker, live_ratio_threshold=0.9)
        assert report.containers_reclaimed >= 1
        assert report.bytes_reclaimed == 4 * 4096
        assert report.chunks_dead == 4

    def test_survivors_remain_restorable(self):
        engine, tracker = self._setup()
        tracker.delete_backup("b1")
        collect_garbage(engine, tracker, live_ratio_threshold=0.9)
        # Every live chunk still resolves through the index to an existing
        # container.
        for token in [f"x{i}" for i in range(4)] + [f"y{i}" for i in range(4)]:
            container_id = engine.index.container_of(token.encode())
            assert container_id is not None
            container = engine.containers.get(container_id)
            assert token.encode() in container.fingerprints()

    def test_dead_chunks_unindexed(self):
        engine, tracker = self._setup()
        tracker.delete_backup("b1")
        collect_garbage(engine, tracker, live_ratio_threshold=0.9)
        for index in range(4, 8):
            assert engine.index.container_of(f"x{index}".encode()) is None

    def test_rewriting_dead_content_after_gc(self):
        """A chunk whose content returns after GC must be storable again
        (Bloom filter says maybe, index says no -> unique path)."""
        engine, tracker = self._setup()
        tracker.delete_backup("b1")
        collect_garbage(engine, tracker, live_ratio_threshold=0.9)
        third = backup([f"x{i}" for i in range(4, 8)], label="b3")
        report = engine.process_backup(third)
        assert report.unique_chunks == 4
        assert report.bloom_false_positives == 4  # stale bloom bits

    def test_stored_bytes_after_gc(self):
        """The per-container ``data_bytes`` recorded at seal time follow a
        GC pass: reclaimed containers leave the total, copied-forward
        survivors re-enter it."""
        engine, tracker = self._setup()
        assert engine.containers.stored_bytes() == 12 * 4096
        tracker.delete_backup("b1")
        report = collect_garbage(engine, tracker, live_ratio_threshold=0.9)
        store = engine.containers
        assert store.stored_bytes() == 12 * 4096 - report.bytes_reclaimed
        assert store.stored_bytes() == sum(
            entry.size for c in store.containers.values() for entry in c.entries
        )

    def test_threshold_validation(self):
        engine, tracker = self._setup()
        with pytest.raises(ConfigurationError):
            collect_garbage(engine, tracker, live_ratio_threshold=0.0)

    def test_high_live_ratio_containers_left_alone(self):
        engine = make_engine(container_chunks=8)
        tracker = ReferenceTracker()
        first = backup([f"x{i}" for i in range(8)], label="b1")
        engine.process_backup(first)
        tracker.register_backup(first)
        # Kill one of eight chunks: live ratio 7/8 stays above 0.5.
        tracker.register_backup(backup([f"x{i}" for i in range(1, 8)], label="b2"))
        tracker.delete_backup("b1")
        report = collect_garbage(engine, tracker, live_ratio_threshold=0.5)
        assert report.containers_reclaimed == 0


class TestPayloadStoreCollectGarbage:
    """Copy-forward on a content-level (payload-keeping) engine."""

    @staticmethod
    def _data(token):
        # 1, 2, 3 or 4 KiB by index: offsets differ from index * size, so
        # a wrong (offset, size) in the read map shows.
        size = 1024 * (1 + int(token[1:]) % 4)
        return (token.encode() * size)[:size]

    def _setup(self):
        engine = DDFSEngine(
            cache_budget_bytes=64 * 1024,
            bloom_capacity=10_000,
            container_size=4 * 4096,
            keep_payload=True,
        )
        tracker = ReferenceTracker()
        # b1 fills one container with x0..x6 and seals x7 alone; b2 keeps
        # x0, x2, x4 and x6 live, so GC reclaims both.
        tokens = [f"x{i}" for i in range(8)]
        first = backup(tokens, [len(self._data(t)) for t in tokens], label="b1")
        tokens = [f"x{i}" for i in range(0, 8, 2)] + [f"y{i}" for i in range(4)]
        second = backup(tokens, [len(self._data(t)) for t in tokens], label="b2")
        for stream in (first, second):
            for fingerprint, size in zip(stream.fingerprints, stream.sizes):
                engine.process_chunk(fingerprint, size, self._data(fingerprint.decode()))
            engine.finish_backup()
            tracker.register_backup(stream)
        return engine, tracker

    def test_survivors_read_back_from_their_new_containers(self):
        engine, tracker = self._setup()
        before = set(engine.containers.containers)
        tracker.delete_backup("b1")
        report = collect_garbage(engine, tracker, live_ratio_threshold=0.9)
        assert report.chunks_copied_forward > 0
        moved = 0
        for token in [f"x{i}" for i in range(0, 8, 2)] + [f"y{i}" for i in range(4)]:
            container_id = engine.index.container_of(token.encode())
            moved += container_id not in before
            container = engine.containers.get(container_id)
            assert container.read_chunk(token.encode()) == self._data(token)
        assert moved == report.chunks_copied_forward

    def test_read_errors_survive_copy_forward(self):
        engine, tracker = self._setup()
        before = set(engine.containers.containers)
        tracker.delete_backup("b1")
        collect_garbage(engine, tracker, live_ratio_threshold=0.9)
        (new_id,) = set(engine.containers.containers) - before
        container = engine.containers.get(new_id)
        with pytest.raises(StorageError, match="not in container"):
            container.read_chunk(b"x5")  # dead, not copied forward
        last = container.fingerprints()[-1]
        container.payload = container.payload[:-1]
        with pytest.raises(StorageError, match="container payload truncated"):
            container.read_chunk(last)

