"""Tests for the storage substrate: containers, index, DDFS engine, recipes."""

import gc

import pytest

from repro.common.errors import ConfigurationError, IntegrityError, StorageError
from repro.datasets.model import Backup
from repro.storage.container import ContainerStore
from repro.storage.ddfs import DDFSEngine
from repro.storage.fingerprint_index import OnDiskFingerprintIndex
from repro.storage.metrics import MetadataAccessStats
from repro.storage.recipes import FileRecipe


def backup(tokens, sizes=None, label="b"):
    tokens = [t.encode() for t in tokens]
    if sizes is None:
        sizes = [4096] * len(tokens)
    return Backup(label=label, fingerprints=tokens, sizes=sizes)


class TestContainerStore:
    def test_flush_on_capacity(self):
        store = ContainerStore(container_size=10_000)
        assert store.append(b"a", 4096) is None
        assert store.append(b"b", 4096) is None
        sealed = store.append(b"c", 4096)  # 12288 >= 10000
        assert sealed == 0
        assert store.num_containers == 1
        assert store.get(0).num_chunks == 3

    def test_manual_flush(self):
        store = ContainerStore(container_size=10_000)
        store.append(b"a", 100)
        sealed = store.flush()
        assert sealed == 0
        assert store.flush() is None  # nothing pending

    def test_open_buffer_membership(self):
        store = ContainerStore(container_size=10_000)
        store.append(b"a", 100)
        assert store.in_open_buffer(b"a")
        store.flush()
        assert not store.in_open_buffer(b"a")

    def test_payload_round_trip(self):
        store = ContainerStore(container_size=1000, keep_payload=True)
        store.append(b"a", 3, b"AAA")
        store.append(b"b", 3, b"BBB")
        store.flush()
        container = store.get(0)
        assert container.read_chunk(b"a") == b"AAA"
        assert container.read_chunk(b"b") == b"BBB"

    def test_payload_required_when_keeping(self):
        store = ContainerStore(keep_payload=True)
        with pytest.raises(StorageError):
            store.append(b"a", 3)

    def test_payload_size_mismatch(self):
        store = ContainerStore(keep_payload=True)
        with pytest.raises(StorageError):
            store.append(b"a", 5, b"AAA")

    def test_missing_chunk_read(self):
        store = ContainerStore(keep_payload=True)
        store.append(b"a", 1, b"A")
        store.flush()
        with pytest.raises(StorageError, match="chunk 6e6f7065 not in container"):
            store.get(0).read_chunk(b"nope")

    def test_truncated_payload_read(self):
        store = ContainerStore(keep_payload=True)
        store.append(b"a", 3, b"AAA")
        store.append(b"b", 3, b"BBB")
        container = store.get(store.flush())
        container.payload = container.payload[:-1]
        assert container.read_chunk(b"a") == b"AAA"
        with pytest.raises(StorageError, match="container payload truncated"):
            container.read_chunk(b"b")

    def test_every_chunk_of_a_full_container_reads_back(self):
        # One lookup per read (sealed containers map fingerprint → entry
        # once), so restoring a whole container is linear in its chunks.
        store = ContainerStore(container_size=4000 * 7, keep_payload=True)
        chunks = {b"%04d" % i: bytes([i % 251]) * 7 for i in range(4000)}
        sealed = [store.append(fp, 7, data) for fp, data in chunks.items()]
        assert sealed[:-1] == [None] * 3999 and sealed[-1] == 0
        container = store.get(0)
        assert [e.offset for e in container.entries] == list(range(0, 28000, 7))
        assert all(container.read_chunk(fp) == data for fp, data in chunks.items())

    def test_unknown_container(self):
        with pytest.raises(StorageError):
            ContainerStore().get(99)

    def test_stored_bytes(self):
        store = ContainerStore(container_size=10_000)
        store.append(b"a", 4096)
        store.append(b"b", 4096)
        assert store.stored_bytes() == 8192

    def test_stored_bytes_counts_sealed_and_open_and_forgets_deleted(self):
        store = ContainerStore(container_size=200)
        for index, size in enumerate([120, 90, 150, 60, 30]):
            store.append(b"%d" % index, size)
        # Sealed: [120, 90] and [150, 60]; open: [30].
        assert [c.data_bytes for c in store.containers.values()] == [210, 210]
        assert store.stored_bytes() == 450
        del store.containers[0]  # what garbage collection does
        assert store.stored_bytes() == 240

    @pytest.mark.parametrize("write", ["extend", "append"])
    def test_write_side_allocates_per_container_not_per_chunk(self, write):
        # A container holds columns: storing a metadata-only chunk adds an
        # item to two lists and a set, no GC-tracked object of its own.
        # The bound (16 per sealed container, plus slack) is an order of
        # magnitude under one object per chunk.
        fingerprints = [b"%08d" % i for i in range(10_000)]
        sizes = [4096] * len(fingerprints)
        store = ContainerStore(container_size=200 * 4096)
        gc.disable()
        try:
            before = len(gc.get_objects())
            if write == "extend":
                for start in range(0, len(fingerprints), 1000):
                    store.extend(fingerprints[start : start + 1000], sizes[start : start + 1000])
            else:
                for fingerprint, size in zip(fingerprints, sizes):
                    store.append(fingerprint, size)
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert store.num_containers == 50 and store.open_chunks == 0
        assert grown <= 16 * store.num_containers + 100, grown


class TestFingerprintIndex:
    def test_lookup_and_update(self):
        index = OnDiskFingerprintIndex()
        assert index.lookup(b"fp") is None
        index.update_batch([b"fp"], container_id=7)
        assert index.lookup(b"fp") == 7
        assert index.container_of(b"fp") == 7

    def test_metering(self):
        index = OnDiskFingerprintIndex(entry_bytes=32)
        index.lookup(b"a")
        index.lookup(b"b")
        index.update_batch([b"a", b"b", b"c"], 0)
        index.charge_loading(10)
        stats = index.take_stats()
        assert stats.index_bytes == 64
        assert stats.update_bytes == 96
        assert stats.loading_bytes == 320
        # counters reset after take_stats
        assert index.stats.total_bytes == 0

    def test_container_of_is_unmetered(self):
        index = OnDiskFingerprintIndex()
        index.update_batch([b"a"], 1)
        index.take_stats()
        index.container_of(b"a")
        assert index.stats.total_bytes == 0


class TestMetadataAccessStats:
    def test_total_and_add(self):
        a = MetadataAccessStats(update_bytes=1, index_bytes=2, loading_bytes=3)
        b = MetadataAccessStats(update_bytes=10, index_bytes=20, loading_bytes=30)
        a.add(b)
        assert a.total_bytes == 66
        assert a.breakdown() == {"update": 11, "index": 22, "loading": 33}


class TestDDFSEngine:
    def make_engine(self, cache_bytes=32 * 64, container_size=8 * 4096):
        return DDFSEngine(
            cache_budget_bytes=cache_bytes,
            bloom_capacity=10_000,
            container_size=container_size,
        )

    def test_exact_deduplication(self):
        engine = self.make_engine()
        stream = backup(["a", "b", "a", "c", "b", "a"])
        report = engine.process_backup(stream)
        assert report.unique_chunks == 3
        assert report.duplicate_chunks == 3
        assert report.total_chunks == 6
        assert report.stored_bytes == 3 * 4096

    def test_cross_backup_dedup(self):
        engine = self.make_engine()
        first = engine.process_backup(backup(["a", "b", "c"], label="b1"))
        second = engine.process_backup(backup(["a", "b", "d"], label="b2"))
        assert first.unique_chunks == 3
        assert second.unique_chunks == 1
        assert second.duplicate_chunks == 2

    def test_buffered_duplicates_not_double_stored(self):
        # duplicates arriving before the container seals
        engine = self.make_engine(container_size=100 * 4096)
        report = engine.process_backup(backup(["a", "a", "a"]))
        assert report.unique_chunks == 1

    def test_duplicate_detection_charges_loading_once_per_container(self):
        engine = self.make_engine()
        engine.process_backup(backup([f"c{i}" for i in range(8)], label="b1"))
        report = engine.process_backup(
            backup([f"c{i}" for i in range(8)], label="b2")
        )
        # First duplicate triggers S4 (one container load of 8 fps); the
        # following 7 hit the warmed cache.
        assert report.metadata.loading_bytes == 8 * 32
        assert report.cache_hits == 7

    def test_update_access_proportional_to_unique_chunks(self):
        engine = self.make_engine()
        report = engine.process_backup(
            backup([f"u{i}" for i in range(20)])
        )
        assert report.metadata.update_bytes == 20 * 32

    def test_dedup_ratio_report(self):
        engine = self.make_engine()
        report = engine.process_backup(backup(["a"] * 10))
        assert report.dedup_ratio == pytest.approx(10.0)

    def test_series_processing(self, tiny_fsl_series):
        engine = DDFSEngine(
            cache_budget_bytes=64 * 1024,
            bloom_capacity=50_000,
            container_size=64 * 4096,
        )
        reports = engine.process_series(tiny_fsl_series.backups)
        assert len(reports) == len(tiny_fsl_series)
        # deduplication exact: stored unique == series-wide unique count
        stored_unique = sum(r.unique_chunks for r in reports)
        all_unique = set()
        for b in tiny_fsl_series.backups:
            all_unique |= b.unique_fingerprints()
        assert stored_unique == len(all_unique)
        # later backups are mostly duplicates
        assert reports[-1].duplicate_chunks > reports[-1].unique_chunks

    def test_loading_dominates_with_small_cache(self, tiny_fsl_series):
        engine = DDFSEngine(
            cache_budget_bytes=32 * 64,  # tiny cache forces reloads
            bloom_capacity=50_000,
            container_size=16 * 4096,
        )
        reports = engine.process_series(tiny_fsl_series.backups)
        last = reports[-1].metadata
        assert last.loading_bytes > last.update_bytes
        assert last.loading_bytes > last.index_bytes

    def test_invalid_bloom_capacity(self):
        with pytest.raises(ConfigurationError):
            DDFSEngine(cache_budget_bytes=1024, bloom_capacity=0)


class TestFileRecipe:
    def test_seal_unseal(self):
        recipe = FileRecipe(filename="doc.txt")
        recipe.add(b"\x01" * 8, 4096)
        recipe.add(b"\x02" * 8, 100)
        sealed = recipe.seal(b"user-secret")
        restored = FileRecipe.unseal(sealed, b"user-secret")
        assert restored.filename == "doc.txt"
        assert restored.chunks == recipe.chunks
        assert restored.logical_bytes == 4196

    def test_wrong_secret(self):
        recipe = FileRecipe(filename="doc.txt")
        sealed = recipe.seal(b"alice")
        with pytest.raises(IntegrityError):
            FileRecipe.unseal(sealed, b"bob")

    def test_len(self):
        recipe = FileRecipe(filename="f")
        assert len(recipe) == 0
        recipe.add(b"t", 1)
        assert len(recipe) == 1
