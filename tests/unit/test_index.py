"""Tests for repro.index: KV store, Bloom filter, LRU caches."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, IntegrityError, StorageError
from repro.index.bloom import BloomFilter
from repro.index.cache import FingerprintCache, LRUCache
from repro.index.kvstore import KVStore


class TestKVStoreBasics:
    def test_put_get(self):
        store = KVStore()
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        assert b"k" in store
        assert len(store) == 1

    def test_get_default(self):
        assert KVStore().get(b"missing") is None
        assert KVStore().get(b"missing", b"dflt") == b"dflt"

    def test_overwrite(self):
        store = KVStore()
        store.put(b"k", b"v1")
        store.put(b"k", b"v2")
        assert store.get(b"k") == b"v2"
        assert len(store) == 1

    def test_delete(self):
        store = KVStore()
        store.put(b"k", b"v")
        assert store.delete(b"k")
        assert not store.delete(b"k")
        assert b"k" not in store

    def test_non_bytes_rejected(self):
        store = KVStore()
        with pytest.raises(StorageError):
            store.put("str", b"v")
        with pytest.raises(StorageError):
            store.put(b"k", 42)

    def test_ordered_iteration(self):
        store = KVStore()
        for key in (b"c", b"a", b"b"):
            store.put(key, key.upper())
        assert list(store.keys()) == [b"a", b"b", b"c"]
        assert list(store.items()) == [(b"a", b"A"), (b"b", b"B"), (b"c", b"C")]

    def test_range_scan(self):
        store = KVStore()
        for index in range(10):
            store.put(bytes([index]), b"v")
        keys = [key for key, _ in store.range(bytes([3]), bytes([7]))]
        assert keys == [bytes([3]), bytes([4]), bytes([5]), bytes([6])]


class TestKVStorePersistence:
    def test_replay_after_close(self, tmp_path):
        path = tmp_path / "store.log"
        with KVStore.open(path) as store:
            store.put(b"a", b"1")
            store.put(b"b", b"2")
            store.delete(b"a")
        reopened = KVStore.open(path)
        assert reopened.get(b"a") is None
        assert reopened.get(b"b") == b"2"
        reopened.close()

    def test_compaction_preserves_state_and_shrinks_log(self, tmp_path):
        path = tmp_path / "store.log"
        store = KVStore.open(path)
        for index in range(50):
            store.put(b"key", str(index).encode())  # 50 versions
        store.flush()
        size_before = path.stat().st_size
        store.compact()
        store.flush()
        assert path.stat().st_size < size_before
        store.close()
        reopened = KVStore.open(path)
        assert reopened.get(b"key") == b"49"
        reopened.close()

    def test_truncated_log_detected(self, tmp_path):
        path = tmp_path / "store.log"
        with KVStore.open(path) as store:
            store.put(b"a", b"1")
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        with pytest.raises(IntegrityError):
            KVStore.open(path)

    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from([b"a", b"b", b"c", b"d"]),
                st.binary(max_size=8),
                st.booleans(),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_model_equivalence_with_dict(self, operations, tmp_path_factory):
        """KVStore behaves like a plain dict through arbitrary op sequences,
        including across a close/reopen cycle."""
        path = tmp_path_factory.mktemp("kv") / "store.log"
        model: dict[bytes, bytes] = {}
        store = KVStore.open(path)
        for key, value, is_delete in operations:
            if is_delete:
                model.pop(key, None)
                store.delete(key)
            else:
                model[key] = value
                store.put(key, value)
        store.close()
        reopened = KVStore.open(path)
        assert dict(reopened.items()) == model
        reopened.close()


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(capacity=1000, false_positive_rate=0.01)
        keys = [str(i).encode() for i in range(1000)]
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter(capacity=5000, false_positive_rate=0.01)
        for i in range(5000):
            bloom.add(f"in-{i}".encode())
        false_hits = sum(
            1 for i in range(20_000) if f"out-{i}".encode() in bloom
        )
        rate = false_hits / 20_000
        assert rate < 0.03, f"observed FPR {rate:.3%}"

    def test_sizing_formulas(self):
        bloom = BloomFilter(capacity=65_000_000, false_positive_rate=0.01)
        # The paper quotes 7 hash functions and ~74 MB for this config.
        assert bloom.num_hashes == 7
        assert 70 * 2**20 < bloom.size_bytes < 80 * 2**20

    def test_expected_fpr_monotone(self):
        bloom = BloomFilter(capacity=100, false_positive_rate=0.01)
        assert bloom.expected_fpr() == 0.0
        for i in range(100):
            bloom.add(str(i).encode())
        assert 0.0 < bloom.expected_fpr() < 0.05

    @pytest.mark.parametrize("capacity,fpr", [(0, 0.01), (10, 0.0), (10, 1.0)])
    def test_invalid_parameters(self, capacity, fpr):
        with pytest.raises(ConfigurationError):
            BloomFilter(capacity, fpr)

    def test_known_answer(self):
        """Bits, ``inserted``, test-and-set answers and false positives of a
        seeded run, pinned on the commit before ``add`` became a
        test-and-set (there: ``key in bloom`` followed by ``add``)."""
        rng = random.Random(2017)
        bloom = BloomFilter(capacity=2000, false_positive_rate=0.05)
        assert (bloom.num_bits, bloom.num_hashes) == (12471, 4)
        keys = [rng.randbytes(rng.randrange(1, 33)) for _ in range(3000)]
        already_present = sum(bloom.add(key) for key in keys)
        probes = [rng.randbytes(16) for _ in range(5000)]
        assert hashlib.sha256(bloom._bits).hexdigest() == (
            "e3ccee1e20e7ad4f4b201ae1837312650fe89292f0cb8cdedba47c8aa111bc31"
        )
        assert bloom.inserted == 3000
        assert already_present == 128
        assert sum(probe in bloom for probe in probes) == 703

    @pytest.mark.parametrize(
        "num_bits,num_hashes",
        [(8, 6), (9, 3), (4099, 7), (4100, 7), (4096, 5), (1 << 20, 7)],
    )
    def test_walk_matches_position_oracle(self, num_bits, num_hashes):
        """The incremental walk visits ``(h1 + i*h2) % m`` — minimum, odd,
        even and power-of-two ``m`` — and ``add`` answers what
        ``in`` said just before it."""
        rng = random.Random(num_bits)
        bloom = BloomFilter(capacity=1, false_positive_rate=0.5)
        assert bloom.num_bits == 8  # the floor; resized below
        bloom.num_bits, bloom.num_hashes = num_bits, num_hashes
        bloom._bits = bytearray((num_bits + 7) // 8)
        model: set[int] = set()
        keys = [rng.randbytes(rng.randrange(0, 24)) for _ in range(400)]
        for count, key in enumerate(keys + keys[:50], start=1):
            positions = oracle_positions(key, num_bits, num_hashes)
            present = model.issuperset(positions)
            assert (key in bloom) == present
            assert bloom.add(key) == present
            assert key in bloom
            assert bloom.inserted == count
            model.update(positions)
        expected = bytearray(len(bloom._bits))
        for pos in model:
            expected[pos >> 3] |= 1 << (pos & 7)
        assert bloom._bits == expected


def oracle_positions(key: bytes, num_bits: int, num_hashes: int) -> list[int]:
    """The list builder ``BloomFilter`` used before the fused walk (kept
    here as the oracle): Kirsch–Mitzenmacher double hashing from one
    128-bit digest."""
    digest = hashlib.blake2b(key, digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1
    return [(h1 + i * h2) % num_bits for i in range(num_hashes)]


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        evicted = cache.put("c", 3)
        assert evicted == [("a", 1)]
        assert "a" not in cache

    def test_get_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        evicted = cache.put("c", 3)
        assert evicted == [("b", 2)]
        assert "a" in cache

    def test_put_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        evicted = cache.put("c", 3)
        assert evicted == [("b", 2)]
        assert cache.get("a") == 10

    def test_len_never_exceeds_capacity(self):
        cache = LRUCache(capacity=3)
        for index in range(10):
            cache.put(index, index)
            assert len(cache) <= 3

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            LRUCache(0)

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_lru_invariant_most_recent_survive(self, accesses):
        """After any access sequence, the cache holds exactly the most
        recently used distinct keys."""
        capacity = 4
        cache = LRUCache(capacity=capacity)
        for key in accesses:
            cache.put(key, key)
        recent: list[int] = []
        for key in reversed(accesses):
            if key not in recent:
                recent.append(key)
            if len(recent) == capacity:
                break
        assert set(cache) == set(recent)


class TestFingerprintCache:
    def test_budget_to_capacity(self):
        cache = FingerprintCache(budget_bytes=1024, entry_bytes=32)
        assert cache.capacity_entries == 32

    def test_hit_miss_accounting(self):
        cache = FingerprintCache(budget_bytes=1024)
        assert cache.lookup(b"fp") is None
        cache.insert(b"fp", 7)
        assert cache.lookup(b"fp") == 7
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_eviction_count(self):
        cache = FingerprintCache(budget_bytes=64, entry_bytes=32)  # 2 entries
        cache.insert(b"a", 1)
        cache.insert(b"b", 2)
        assert cache.insert(b"c", 3) == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            FingerprintCache(budget_bytes=16, entry_bytes=32)
