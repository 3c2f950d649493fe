"""Indexing substrate.

* :class:`KVBackend` and its implementations (:class:`KVStore`,
  :class:`SQLiteBackend`, :class:`ShardedBackend`, built via
  :func:`open_backend`) — the pluggable backend seam every
  storage-side fingerprint-keyed table sits behind (the paper keeps its
  tables in LevelDB, §5.2).
* :class:`KVStore` — an embedded, ordered key-value store with optional
  write-ahead-log persistence; without a path, the in-memory backend.
* :class:`BloomFilter` — the in-memory filter of the DDFS prototype
  (§7.4.1), parameterised by capacity and target false-positive rate;
  ``add`` is a test-and-set (one digest per key for DDFS step S2).
* :class:`LRUCache` / :class:`FingerprintCache` — the byte-budgeted
  fingerprint cache of the DDFS prototype.
"""

from repro.index.backends import (
    BACKEND_SPECS,
    KVBackend,
    ShardedBackend,
    SQLiteBackend,
    open_backend,
)
from repro.index.bloom import BloomFilter
from repro.index.cache import FingerprintCache, LRUCache
from repro.index.kvstore import KVStore

__all__ = [
    "BACKEND_SPECS",
    "BloomFilter",
    "FingerprintCache",
    "KVBackend",
    "KVStore",
    "LRUCache",
    "ShardedBackend",
    "SQLiteBackend",
    "open_backend",
]
