"""Container management (§7.4.1).

Deduplicated storage appends unique chunks in logical order into fixed-size
*containers* (4 MB in the paper) that serve as the basic on-disk read/write
units; chunk locality then means that chunks likely to be accessed together
sit in the same container, which is what makes step S4's whole-container
fingerprint prefetch effective.

Containers optionally carry chunk payloads (the content-level system stores
ciphertext bytes; the trace-driven prototype stores metadata only).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import NamedTuple

from repro.common.errors import ConfigurationError, StorageError
from repro.common.units import MiB


class ContainerEntry(NamedTuple):
    """One chunk stored in a container."""

    fingerprint: bytes
    size: int
    offset: int


@dataclass
class Container:
    """A sealed (immutable) container: entries plus optional payload bytes.

    ``data_bytes`` and the fingerprint → entry map are recorded once, by
    the store that sealed it; a fingerprint occurs once per container.
    """

    container_id: int
    entries: list[ContainerEntry]
    payload: bytes
    data_bytes: int
    by_fingerprint: dict[bytes, ContainerEntry]

    @property
    def num_chunks(self) -> int:
        return len(self.entries)

    def fingerprints(self) -> list[bytes]:
        return [entry.fingerprint for entry in self.entries]

    def read_chunk(self, fingerprint: bytes) -> bytes:
        """Payload bytes for ``fingerprint`` (content-level containers)."""
        entry = self.by_fingerprint.get(fingerprint)
        if entry is None:
            raise StorageError(f"chunk {fingerprint.hex()} not in container")
        data = self.payload[entry.offset : entry.offset + entry.size]
        if len(data) != entry.size:
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
        self._open_entries: list[ContainerEntry] = []
        self._open_payload: list[bytes] = []
        self._open_bytes = 0
        self._open_index: dict[bytes, ContainerEntry] = {}

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
        entry = ContainerEntry(fingerprint, size, self._open_bytes)
        self._open_entries.append(entry)
        self._open_index[fingerprint] = entry
        self._open_bytes += size
        if self._open_bytes >= self.container_size:
            return self.flush()
        return None

    def extend(self, fingerprints: list[bytes], sizes: list[int]) -> list[int]:
        """:meth:`append` of each metadata-only chunk in order; returns the
        ids of the containers sealed on the way, in order.

        The running sizes give every seal point at once: a run of chunks
        fills the open container up to the first chunk that takes it to
        ``container_size``, and the next run starts on an empty one.
        """
        if self.keep_payload and fingerprints:
            raise StorageError("payload-keeping store requires chunk data")
        # totals[i]: open bytes before chunk i, were nothing sealed.
        totals = list(accumulate(sizes, initial=self._open_bytes))
        sealed: list[int] = []
        start, base, count = 0, 0, len(fingerprints)
        while start < count:
            end = min(count, bisect_left(totals, base + self.container_size, start + 1))
            # tuple.__new__ builds each entry without the Python-level
            # ``ContainerEntry.__new__`` frame.
            entries = list(
                map(
                    tuple.__new__,
                    repeat(ContainerEntry),
                    zip(
                        fingerprints[start:end],
                        sizes[start:end],
                        [total - base for total in totals[start:end]],
                    ),
                )
            )
            self._open_entries += entries
            self._open_index.update(zip(fingerprints[start:end], entries))
            self._open_bytes = totals[end] - base
            if self._open_bytes >= self.container_size:
                sealed.append(self.flush())
                base = totals[end]
            start = end
        return sealed

    def flush(self) -> int | None:
        """Seal the open container; returns its id, or None if empty."""
        if not self._open_entries:
            return None
        container = Container(
            container_id=self._next_id,
            entries=self._open_entries,
            payload=b"".join(self._open_payload),
            data_bytes=self._open_bytes,
            by_fingerprint=self._open_index,
        )
        self.containers[container.container_id] = container
        self._next_id += 1
        self._open_entries = []
        self._open_payload = []
        self._open_bytes = 0
        self._open_index = {}
        return container.container_id

    # -- reading -------------------------------------------------------------

    def in_open_buffer(self, fingerprint: bytes) -> bool:
        """Whether the chunk is buffered but not yet sealed (duplicate
        suppression must consider these too, or back-to-back duplicates
        would be double-stored)."""
        return fingerprint in self._open_index

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
        return len(self._open_entries)

    def stored_bytes(self) -> int:
        """Sealed plus buffered chunk bytes; O(containers)."""
        sealed = sum(c.data_bytes for c in self.containers.values())
        return sealed + self._open_bytes
