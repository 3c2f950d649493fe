"""Container management (§7.4.1).

Deduplicated storage appends unique chunks in logical order into fixed-size
*containers* (4 MB in the paper) that serve as the basic on-disk read/write
units; chunk locality then means that chunks likely to be accessed together
sit in the same container, which is what makes step S4's whole-container
fingerprint prefetch effective.

Containers optionally carry chunk payloads (the content-level system stores
ciphertext bytes; the trace-driven prototype stores metadata only).

A container is the unit of metadata, so it holds columns: a fingerprint
list and a size list in append order. Writing a chunk appends one item to
each (a metadata-only batch extends them with slices), so the write side
allocates no per-chunk object and no per-chunk map slot; what the readers
of a sealed container need — the fingerprint column for the index update
and the S4 prefetch, (offset, size) for a content read,
:class:`ContainerEntry` triples for inspection — is derived when read.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

from repro.common.errors import ConfigurationError, StorageError
from repro.common.units import MiB


class ContainerEntry(NamedTuple):
    """One chunk stored in a container."""

    fingerprint: bytes
    size: int
    offset: int


@dataclass(slots=True)
class Container:
    """A sealed (immutable) container: fingerprint and size columns plus
    optional payload bytes.

    ``data_bytes`` is recorded once, by the store that sealed it; a
    fingerprint occurs once per container.
    """

    container_id: int
    _fingerprints: list[bytes]
    sizes: list[int]
    payload: bytes
    data_bytes: int
    _positions: dict[bytes, tuple[int, int]] | None = field(default=None, init=False, compare=False)

    @property
    def num_chunks(self) -> int:
        return len(self._fingerprints)

    def fingerprints(self) -> list[bytes]:
        """The fingerprint column in append order — the container's own
        list, not a copy: read-only to every caller."""
        return self._fingerprints

    @property
    def entries(self) -> list[ContainerEntry]:
        """``(fingerprint, size, offset)`` of every chunk in append order,
        built on each access: nothing on the write path keeps them."""
        offsets = accumulate(self.sizes, initial=0)
        return list(map(ContainerEntry, self._fingerprints, self.sizes, offsets))

    def read_chunk(self, fingerprint: bytes) -> bytes:
        """Payload bytes for ``fingerprint`` (content-level containers).

        The fingerprint → (offset, size) map is built on the first read,
        so only containers that are read pay for it.
        """
        if self._positions is None:
            offsets = accumulate(self.sizes, initial=0)
            self._positions = dict(zip(self._fingerprints, zip(offsets, self.sizes)))
        position = self._positions.get(fingerprint)
        if position is None:
            raise StorageError(f"chunk {fingerprint.hex()} not in container")
        offset, size = position
        data = self.payload[offset : offset + size]
        if len(data) != size:
            raise StorageError("container payload truncated")
        return data


class ContainerStore:
    """Accumulates chunks into an open container and seals full ones."""

    def __init__(self, container_size: int = 4 * MiB, keep_payload: bool = False):
        if container_size <= 0:
            raise ConfigurationError("container_size must be positive")
        self.container_size = container_size
        self.keep_payload = keep_payload
        self.containers: dict[int, Container] = {}
        self._next_id = 0
        self._empty_open_container()

    def _empty_open_container(self) -> None:
        self._open_fingerprints: list[bytes] = []
        self._open_sizes: list[int] = []
        self._open_payload: list[bytes] = []
        self._open_bytes = 0
        self._open_set: set[bytes] = set()

    # -- writing -------------------------------------------------------------

    def append(self, fingerprint: bytes, size: int, data: bytes | None = None) -> int | None:
        """Buffer a unique chunk; returns the sealed container id if the
        buffer filled up and was flushed, else ``None``."""
        if self.keep_payload:
            if data is None:
                raise StorageError("payload-keeping store requires chunk data")
            if len(data) != size:
                raise StorageError("chunk data length disagrees with size")
            self._open_payload.append(data)
        self._open_fingerprints.append(fingerprint)
        self._open_sizes.append(size)
        self._open_set.add(fingerprint)
        self._open_bytes += size
        if self._open_bytes >= self.container_size:
            return self.flush()
        return None

    def extend(self, fingerprints: list[bytes], sizes: list[int]) -> list[int]:
        """:meth:`append` of each metadata-only chunk in order; returns the
        ids of the containers sealed on the way, in order.

        The running sizes give every seal point at once: a run of chunks
        fills the open container up to the first chunk that takes it to
        ``container_size``, and the next run starts on an empty one. Each
        run extends the open columns with one slice.
        """
        if self.keep_payload and fingerprints:
            raise StorageError("payload-keeping store requires chunk data")
        # totals[i]: open bytes before chunk i, were nothing sealed.
        totals = list(accumulate(sizes, initial=self._open_bytes))
        sealed: list[int] = []
        start, base, count = 0, 0, len(fingerprints)
        while start < count:
            end = min(count, bisect_left(totals, base + self.container_size, start + 1))
            run = fingerprints[start:end]
            self._open_fingerprints += run
            self._open_sizes += sizes[start:end]
            self._open_set.update(run)
            self._open_bytes = totals[end] - base
            if self._open_bytes >= self.container_size:
                sealed.append(self.flush())
                base = totals[end]
            start = end
        return sealed

    def flush(self) -> int | None:
        """Seal the open container; returns its id, or None if empty."""
        if not self._open_fingerprints:
            return None
        container = Container(
            self._next_id,
            self._open_fingerprints,
            self._open_sizes,
            b"".join(self._open_payload),
            self._open_bytes,
        )
        self.containers[container.container_id] = container
        self._next_id += 1
        self._empty_open_container()
        return container.container_id

    # -- reading -------------------------------------------------------------

    def in_open_buffer(self, fingerprint: bytes) -> bool:
        """Whether the chunk is buffered but not yet sealed (duplicate
        suppression must consider these too, or back-to-back duplicates
        would be double-stored)."""
        return fingerprint in self._open_set

    def get(self, container_id: int) -> Container:
        try:
            return self.containers[container_id]
        except KeyError:
            raise StorageError(f"unknown container {container_id}") from None

    @property
    def num_containers(self) -> int:
        return len(self.containers)

    @property
    def open_chunks(self) -> int:
        """Chunks buffered in the open (unsealed) container."""
        return len(self._open_fingerprints)

    def stored_bytes(self) -> int:
        """Sealed plus buffered chunk bytes; O(containers)."""
        sealed = sum(c.data_bytes for c in self.containers.values())
        return sealed + self._open_bytes
