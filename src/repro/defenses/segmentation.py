"""Variable-size segmentation (§7.1, following Lillibridge et al. [45]).

Both defenses operate on *segments*: non-overlapping sub-sequences of
adjacent chunks. Boundaries are content-defined at segment granularity — a
segment ends at a chunk whose fingerprint satisfies a modulus test — so the
same chunk content produces the same segmentation across backups, which is
what lets MinHash encryption keep most duplicate chunks deduplicable.

The paper's configuration: 512 KB minimum, 1 MB average, 2 MB maximum
segment size. The divisor of the modulus test sets the average *chunk count*
per segment, so it is derived from the target average segment size and the
stream's mean chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.units import KiB, MiB
from repro.datasets.model import Backup


@dataclass(frozen=True)
class SegmentationSpec:
    """Segment size bounds (bytes). Defaults follow the paper (§7.1)."""

    min_bytes: int = 512 * KiB
    avg_bytes: int = 1 * MiB
    max_bytes: int = 2 * MiB

    def __post_init__(self) -> None:
        if not 0 < self.min_bytes <= self.avg_bytes <= self.max_bytes:
            raise ConfigurationError(
                "require 0 < min_bytes <= avg_bytes <= max_bytes"
            )

    @classmethod
    def scaled(cls, avg_chunk_size: int = 8192) -> "SegmentationSpec":
        """Bench-scale segmentation: 8/16/32 chunks per segment.

        The paper's 512 KB/1 MB/2 MB segments hold ~64–256 chunks and are
        *small* relative to the duplicated objects in its multi-TB datasets.
        Our reduced-scale workloads have proportionally smaller files and
        duplicated artifacts, so benchmarks scale the segment size down with
        them; otherwise one segment spans several files and MinHash
        encryption loses far more deduplication than it would at full scale
        (see EXPERIMENTS.md, Fig. 11 notes).
        """
        return cls(
            min_bytes=8 * avg_chunk_size,
            avg_bytes=16 * avg_chunk_size,
            max_bytes=32 * avg_chunk_size,
        )

    def divisor_for(self, mean_chunk_size: float) -> int:
        """Divisor whose per-chunk boundary probability yields the target
        average segment size for the given mean chunk size."""
        if mean_chunk_size <= 0:
            raise ConfigurationError("mean_chunk_size must be positive")
        return max(2, round(self.avg_bytes / mean_chunk_size))


@dataclass(frozen=True)
class Segment:
    """A half-open chunk-index range [start, end) within a backup stream."""

    start: int
    end: int

    def __len__(self) -> int:
        return self.end - self.start


def segment_stream(
    fingerprints: list[bytes],
    sizes: list[int],
    spec: SegmentationSpec | None = None,
    divisor: int | None = None,
) -> list[Segment]:
    """Partition a chunk stream into segments.

    A boundary is placed at the end of chunk *i* when (i) the segment
    holds at least ``min_bytes`` and the chunk's fingerprint value modulo
    ``divisor`` equals ``divisor - 1`` (the paper's "constant −1"), or
    (ii) including the chunk pushed the segment to ``max_bytes`` or beyond.
    Consequently segments never exceed ``max_bytes`` by more than one chunk.
    """
    spec = spec or SegmentationSpec()
    if len(fingerprints) != len(sizes):
        raise ConfigurationError("fingerprints and sizes must align")
    if not fingerprints:
        return []
    if not any(sizes):
        # Only empty chunks (an empty file): no boundary rule can fire.
        return [Segment(0, len(fingerprints))]
    if divisor is None:
        mean_chunk = sum(sizes) / len(sizes)
        divisor = spec.divisor_for(mean_chunk)
    target_residue = divisor - 1

    segments: list[Segment] = []
    start = 0
    segment_bytes = 0
    for index, fingerprint in enumerate(fingerprints):
        segment_bytes += sizes[index]
        fingerprint_value = int.from_bytes(fingerprint, "big")
        at_boundary = (
            segment_bytes >= spec.min_bytes
            and fingerprint_value % divisor == target_residue
        )
        if at_boundary or segment_bytes >= spec.max_bytes:
            segments.append(Segment(start, index + 1))
            start = index + 1
            segment_bytes = 0
    if start < len(fingerprints):
        segments.append(Segment(start, len(fingerprints)))
    return segments


def segment_backup(
    backup: Backup,
    spec: SegmentationSpec | None = None,
    divisor: int | None = None,
) -> list[Segment]:
    """:func:`segment_stream` over a :class:`~repro.datasets.model.Backup`."""
    return segment_stream(backup.fingerprints, backup.sizes, spec, divisor)
