"""LRU caches for fingerprint metadata (DDFS prototype, §7.4.1).

The DDFS prototype front-ends its on-disk fingerprint index with an
in-memory fingerprint cache: on an index hit it loads the fingerprints of
the *whole container* holding the chunk (exploiting chunk locality), and
evicts least-recently-used entries when the byte budget is exhausted.

:class:`LRUCache` is the generic mechanism; :class:`FingerprintCache` adds
the paper's sizing convention (a fixed number of metadata bytes per
fingerprint entry, 32 B in the evaluation) plus hit/miss accounting.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import filterfalse
from typing import Collection, Generic, Hashable, Iterable, Iterator, TypeVar

from repro.common.errors import ConfigurationError

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """Bounded mapping with least-recently-used eviction.

    ``get`` and ``put`` both refresh recency. Capacity is measured in
    entries; see :class:`FingerprintCache` for a byte-budgeted wrapper.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[K, V] = OrderedDict()

    def get(self, key: K, default: V | None = None) -> V | None:
        if key not in self._entries:
            return default
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key: K, value: V) -> list[tuple[K, V]]:
        """Insert/refresh ``key``; returns the entries evicted (oldest first)."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        evicted: list[tuple[K, V]] = []
        while len(self._entries) > self.capacity:
            evicted.append(self._entries.popitem(last=False))
        return evicted

    def put_many(self, keys: Iterable[K], value: V) -> None:
        """``put(key, value)`` for each key in order, evictions dropped."""
        entries, capacity = self._entries, self.capacity
        for key in keys:
            if key in entries:
                entries.move_to_end(key)
            entries[key] = value
            if len(entries) > capacity:
                entries.popitem(last=False)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[K]:
        """Keys from least- to most-recently used."""
        return iter(self._entries)

    def clear(self) -> None:
        self._entries.clear()


class FingerprintCache:
    """Byte-budgeted LRU cache of fingerprint → container-id mappings.

    Args:
        budget_bytes: total memory budget (the paper evaluates 512 MB and
            4 GB).
        entry_bytes: metadata bytes charged per cached fingerprint (32 B in
            the paper's configuration).
    """

    def __init__(self, budget_bytes: int, entry_bytes: int = 32):
        if entry_bytes <= 0:
            raise ConfigurationError("entry_bytes must be positive")
        capacity = budget_bytes // entry_bytes
        if capacity <= 0:
            raise ConfigurationError(
                f"budget {budget_bytes} B holds no {entry_bytes} B entries"
            )
        self.budget_bytes = budget_bytes
        self.entry_bytes = entry_bytes
        self._lru: LRUCache[bytes, int] = LRUCache(capacity)
        self.hits = 0
        self.misses = 0

    @property
    def capacity_entries(self) -> int:
        return self._lru.capacity

    def lookup(self, fingerprint: bytes) -> int | None:
        """Container id for ``fingerprint`` or ``None``; counts hit/miss."""
        value = self._lru.get(fingerprint)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def lookup_many(self, fingerprints: Collection[bytes]) -> list[bytes]:
        """:meth:`lookup` of each fingerprint in order; returns the misses
        in order. Hits are refreshed in stream order, and the hit/miss
        counters advance exactly as the loop would move them."""
        entries = self._lru._entries
        deque(
            map(entries.move_to_end, filter(entries.__contains__, fingerprints)),
            maxlen=0,
        )
        misses = list(filterfalse(entries.__contains__, fingerprints))
        self.misses += len(misses)
        self.hits += len(fingerprints) - len(misses)
        return misses

    def insert(self, fingerprint: bytes, container_id: int) -> int:
        """Cache a mapping; returns how many entries were evicted."""
        return len(self._lru.put(fingerprint, container_id))

    def insert_many(self, fingerprints: Iterable[bytes], container_id: int) -> None:
        """Cache one container's fingerprints (step S4's prefetch)."""
        self._lru.put_many(fingerprints, container_id)

    def __contains__(self, fingerprint: bytes) -> bool:
        return fingerprint in self._lru

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
