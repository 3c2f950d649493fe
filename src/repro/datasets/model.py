"""Backup trace model.

The paper's evaluation is trace-driven: each backup is the *logical* sequence
of chunks (identified by fingerprint, with sizes) as the storage system would
observe them before deduplication. Identical chunks may repeat, both within a
backup (intra-backup duplicates) and across backups (temporal redundancy).

:class:`Backup` stores the sequence as parallel ``fingerprints``/``sizes``
lists — compact enough for the 10⁴–10⁵-chunk backups the reproduction uses,
while still letting the attacks iterate ``(fingerprint, size)`` records.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from repro.common.errors import ConfigurationError


def resolve_index(index: int, length: int) -> int:
    """A backup's position in a series of ``length`` backups; negative
    indices count from the end.

    Raises:
        ConfigurationError: the index falls outside the series.
    """
    resolved = index if index >= 0 else length + index
    if not 0 <= resolved < length:
        raise ConfigurationError(
            f"backup index {index} out of range for series of length {length}"
        )
    return resolved


@dataclass(frozen=True)
class ChunkRecord:
    """One logical chunk occurrence: its fingerprint and plaintext size."""

    fingerprint: bytes
    size: int


@dataclass
class Backup:
    """One full backup: the logical (pre-deduplication) chunk sequence.

    Attributes:
        label: human-readable backup name (e.g. ``"Mar 22"`` or ``"week-07"``).
        fingerprints: chunk fingerprints in logical order.
        sizes: chunk sizes, parallel to ``fingerprints``.
    """

    label: str
    fingerprints: list[bytes] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.fingerprints) != len(self.sizes):
            raise ConfigurationError(
                "fingerprints and sizes must have equal length"
            )

    def append(self, fingerprint: bytes, size: int) -> None:
        self.fingerprints.append(fingerprint)
        self.sizes.append(size)

    def __len__(self) -> int:
        return len(self.fingerprints)

    def records(self) -> Iterator[ChunkRecord]:
        """Iterate the logical sequence as :class:`ChunkRecord` objects."""
        for fingerprint, size in zip(self.fingerprints, self.sizes):
            yield ChunkRecord(fingerprint, size)

    @property
    def logical_bytes(self) -> int:
        """Total bytes before deduplication."""
        return sum(self.sizes)

    def unique_fingerprints(self) -> set[bytes]:
        return set(self.fingerprints)

    def first_sizes(self) -> dict[bytes, int]:
        """Each distinct fingerprint's size at its first occurrence, in
        first-occurrence order."""
        sizes: dict[bytes, int] = {}
        # ``setdefault`` keeps the first; the empty deque drains the map
        # without a Python-level loop.
        deque(map(sizes.setdefault, self.fingerprints, self.sizes), maxlen=0)
        return sizes

    def unique_bytes(self) -> int:
        """Bytes after intra-backup deduplication."""
        return sum(self.first_sizes().values())

    def size_of(self, fingerprint: bytes) -> int:
        """Size of the first occurrence of ``fingerprint`` (all occurrences
        of a fingerprint share one size; used by tests)."""
        index = self.fingerprints.index(fingerprint)
        return self.sizes[index]


@dataclass
class BackupSeries:
    """An ordered series of full backups from one primary data source.

    Attributes:
        name: dataset name (``fsl``, ``vm``, ``synthetic``, ...).
        backups: backups ordered by creation time (oldest first).
        chunking: ``"variable"`` or ``"fixed"`` — fixed-size chunking makes
            the advanced locality-based attack equivalent to the plain
            locality-based attack (§5.3).
    """

    name: str
    backups: list[Backup] = field(default_factory=list)
    chunking: str = "variable"

    def __post_init__(self) -> None:
        if self.chunking not in ("variable", "fixed"):
            raise ConfigurationError("chunking must be 'variable' or 'fixed'")

    def __len__(self) -> int:
        return len(self.backups)

    def __getitem__(self, index: int) -> Backup:
        return self.backups[index]

    def labels(self) -> list[str]:
        return [backup.label for backup in self.backups]

    @property
    def logical_bytes(self) -> int:
        return sum(backup.logical_bytes for backup in self.backups)

    def unique_bytes(self) -> int:
        """Bytes after global (cross-backup) deduplication."""
        seen: set[bytes] = set()
        total = 0
        for backup in self.backups:
            for fingerprint, size in zip(backup.fingerprints, backup.sizes):
                if fingerprint not in seen:
                    seen.add(fingerprint)
                    total += size
        return total

    def dedup_ratio(self) -> float:
        """Logical bytes over physically stored bytes (paper §5.1)."""
        unique = self.unique_bytes()
        if unique == 0:
            return 0.0
        return self.logical_bytes / unique
