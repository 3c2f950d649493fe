"""On-disk fingerprint index with byte-metered access (§7.4.1).

The fingerprint index maps every stored chunk's fingerprint to the container
holding its physical copy. It grows with the number of unique chunks, so the
prototype keeps it "on disk" — behind any
:class:`~repro.index.backends.KVBackend` — and meters every access in bytes
of metadata moved (``entry_bytes`` per fingerprint entry, 32 B in the
paper's configuration), which is the quantity Figures 13/14 report.
"""

from __future__ import annotations

import struct
from itertools import repeat

from repro.common.errors import ConfigurationError
from repro.index.backends import KVBackend, open_backend
from repro.index.kvstore import KVStore
from repro.storage.metrics import MetadataAccessStats

_CONTAINER_ID = struct.Struct(">q")


class OnDiskFingerprintIndex:
    """Byte-metered fingerprint → container-id index.

    Args:
        entry_bytes: metered metadata bytes per fingerprint entry.
        store: the backend holding the index — a
            :class:`~repro.index.backends.KVBackend` instance, a backend
            spec string for :func:`~repro.index.backends.open_backend`
            (``"memory"``, ``"sqlite"``, ``"sharded[:N]"``, …), or ``None``
            for the default in-process store.
        path: where a spec-string backend persists (file for ``sqlite``,
            directory for ``sharded``); without it, spec-string backends
            stay in process memory.
    """

    def __init__(
        self,
        entry_bytes: int = 32,
        store: KVBackend | str | None = None,
        path: str | None = None,
    ):
        self.entry_bytes = entry_bytes
        if store is None:
            if path is not None:
                raise ConfigurationError(
                    "path requires a backend spec string (e.g. 'sqlite')"
                )
            store = KVStore()
        elif isinstance(store, str):
            store = open_backend(store, path)
        elif path is not None:
            raise ConfigurationError(
                "pass either a backend instance or a spec string with a "
                "path, not both"
            )
        self._store = store
        self.stats = MetadataAccessStats()

    def __len__(self) -> int:
        return len(self._store)

    def lookup(self, fingerprint: bytes) -> int | None:
        """Query the on-disk index (index access, step S3)."""
        self.stats.index_bytes += self.entry_bytes
        raw = self._store.get(fingerprint)
        if raw is None:
            return None
        return _CONTAINER_ID.unpack(raw)[0]

    def lookup_batch(self, fingerprints) -> dict[bytes, int]:
        """Batched index probe: one metered access per fingerprint, one
        round through the backend (the dedup-response path of the
        multi-tenant service).  Returns only the fingerprints found."""
        store_get = self._store.get
        found: dict[bytes, int] = {}
        probed = 0
        for fingerprint in fingerprints:
            probed += 1
            raw = store_get(fingerprint)
            if raw is not None:
                found[fingerprint] = _CONTAINER_ID.unpack(raw)[0]
        self.stats.index_bytes += self.entry_bytes * probed
        return found

    def update_batch(self, fingerprints: list[bytes], container_id: int) -> None:
        """Record a sealed container's chunks (update access, steps S2/S3)."""
        packed = _CONTAINER_ID.pack(container_id)
        self._store.put_batch(zip(fingerprints, repeat(packed)))
        self.stats.update_bytes += self.entry_bytes * len(fingerprints)

    def container_of(self, fingerprint: bytes) -> int | None:
        """Unmetered lookup (restore path / tests)."""
        raw = self._store.get(fingerprint)
        if raw is None:
            return None
        return _CONTAINER_ID.unpack(raw)[0]

    def remove(self, fingerprint: bytes) -> bool:
        """Drop a fingerprint's entry (garbage collection); returns whether
        it was present."""
        return self._store.delete(fingerprint)

    def charge_index_probes(self, num_probes: int) -> None:
        """Meter ``num_probes`` index accesses whose outcome the caller
        already knows (the batched unique-ingest path: a bloom false
        positive still costs one on-disk probe, it just doesn't need the
        answer round-tripped per chunk)."""
        self.stats.index_bytes += self.entry_bytes * num_probes

    def charge_loading(self, num_fingerprints: int) -> None:
        """Meter a whole-container fingerprint prefetch (loading access,
        step S4)."""
        self.stats.loading_bytes += self.entry_bytes * num_fingerprints

    def take_stats(self) -> MetadataAccessStats:
        """Return and reset the accumulated counters."""
        stats = self.stats
        self.stats = MetadataAccessStats()
        return stats

    def close(self) -> None:
        """Flush and release the underlying backend (idempotent)."""
        self._store.close()
