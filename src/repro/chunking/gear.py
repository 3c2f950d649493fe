"""Gear-hash content-defined chunking.

Gear hashing (the core of FastCDC-style chunkers) replaces Rabin's polynomial
arithmetic with ``h = (h << 1) + gear[byte]`` over a table of random 64-bit
values. The low ``log2(avg_size)`` bits of ``h`` depend only on the most
recent ``log2(avg_size)`` bytes, so boundaries remain content-defined and
shift-robust while the per-byte work is a single shift/add.

We use it as the default chunker for the content-level dataset pipeline
because it is several times faster than :class:`~repro.chunking.rabin.
RabinChunker` in pure Python while producing statistically equivalent chunk
size distributions.

:meth:`GearChunker.cut_points` exploits the bounded effective width: the
boundary test reads only ``mask.bit_length()`` low bits, whose carries
propagate strictly upward, so the test value at every position is the
position-local sum ``sum_j gear[data[i - j]] << j`` over the trailing
``mask.bit_length()`` bytes — either computed for the whole buffer at once
(one 256-entry gather and ``ceil(log2(bits))`` shifted adds, when numpy is
available) or scanned with a skip-ahead loop whose warm-up feeds only that
many bytes. Both are byte-identical to
:meth:`GearChunker.cut_points_reference`, the pre-optimization loop kept as
the equivalence oracle.
"""

from __future__ import annotations

import random
from functools import lru_cache

from repro.chunking import fastscan
from repro.chunking.base import Chunker, ChunkerSpec

_GEAR_TABLE_SEED = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _build_gear_table(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(64) for _ in range(256)]


@lru_cache(maxsize=8)
def _gear_low_table(table_seed: int, mask: int):
    """The gear table truncated to the narrowest dtype holding the mask bits
    (all the vectorized boundary scan keeps per chunker key)."""
    gear = fastscan.numpy.array(_build_gear_table(table_seed), dtype="uint64")
    return gear.astype(fastscan.mask_dtype(mask))  # unsigned narrowing keeps the low bits


class GearChunker(Chunker):
    """Content-defined chunking with a gear rolling hash.

    A boundary is placed once ``spec.min_size`` bytes have accumulated and
    ``hash & spec.mask == 0``; a cut is forced at ``spec.max_size``. The hash
    state resets at every boundary, so each chunk's cuts depend only on its
    own content.
    """

    def __init__(self, spec: ChunkerSpec | None = None, table_seed: int = _GEAR_TABLE_SEED):
        self.spec = spec or ChunkerSpec(
            min_size=2048, avg_size=8192, max_size=65536
        )
        self._table_seed = table_seed
        self._gear = _build_gear_table(table_seed)
        # Effective width of the gear hash for the boundary test: bit i of
        # ``h = (h << 1) + gear[byte]`` depends only on the most recent
        # ``i + 1`` bytes (carries propagate strictly upward), so the low
        # ``log2(avg_size)`` bits the test reads are fully warmed after
        # ``mask.bit_length()`` bytes.
        self._warm_width = self.spec.mask.bit_length()

    def cut_points(self, data: bytes) -> list[int]:
        length = len(data)
        if not length:
            return []
        min_size = self.spec.min_size
        if length <= min_size:
            # Single short chunk: no eligible boundary, cut at the end.
            return [length]
        # The whole-buffer scan is exact from position ``warm_width - 1``
        # on, so the min-size prefix must cover the warm span (always true
        # for real specs; degenerate tiny specs take the scan loop, as does
        # a mask wider than the 64-bit hash).
        if fastscan.numpy is not None and 0 < self._warm_width <= min(min_size, 64):
            return self._cut_points_vectorized(data)
        return self._cut_points_skip_ahead(data)

    # -- fast paths -----------------------------------------------------------

    def _cut_points_vectorized(self, data: bytes) -> list[int]:
        """Whole-buffer candidate scan (numpy), then the cut walk."""
        numpy = fastscan.numpy
        from bisect import bisect_left

        spec = self.spec
        mask = spec.mask
        length = len(data)
        raw = numpy.frombuffer(data, dtype=numpy.uint8)
        # tested[i] = sum_j gear[data[i - j]] << j over the trailing bytes,
        # the span doubling each round: after rounds 1, 2, 4, ... every
        # position holds at least warm_width terms. Terms shifted past the
        # mask width vanish under the mask, as in the 64-bit rolling hash;
        # positions before warm_width - 1 hold partial sums and are never
        # tested because min_size >= warm_width.
        tested = _gear_low_table(self._table_seed, mask).take(raw)
        span = 1
        while span < self._warm_width:
            tested[span:] += tested[:-span] << span
            span *= 2
        tested &= mask
        candidates = numpy.flatnonzero(tested == 0).tolist()

        min_size = spec.min_size
        max_size = spec.max_size
        num_candidates = len(candidates)
        cuts: list[int] = []
        start = 0
        while start < length:
            end = start + max_size
            if end > length:
                end = length
            first = start + min_size
            if first >= end:
                cuts.append(end)
                start = end
                continue
            index = bisect_left(candidates, first)
            if index < num_candidates and candidates[index] < end:
                cut = candidates[index] + 1
            else:
                # No content boundary: forced cut at max_size, or the tail.
                cut = end
            cuts.append(cut)
            start = cut
        return cuts

    def _cut_points_skip_ahead(self, data: bytes) -> list[int]:
        """Pure-Python fallback: per-chunk scan warming only the effective
        hash width."""
        spec = self.spec
        gear = self._gear
        mask = spec.mask
        min_size = spec.min_size
        max_size = spec.max_size
        warm_width = self._warm_width

        cuts: list[int] = []
        length = len(data)
        start = 0
        while start < length:
            end = min(start + max_size, length)
            # Skip the first min_size bytes: no boundary may fall there, and
            # the low mask bits the boundary test reads are fully determined
            # by the warm_width bytes fed below.
            pos = start + min_size
            if pos >= end:
                cuts.append(end)
                start = end
                continue
            hash_value = 0
            for byte in data[max(start, pos - warm_width) : pos]:
                hash_value = ((hash_value << 1) + gear[byte]) & _MASK64
            cut = 0
            for byte in data[pos:end]:
                hash_value = ((hash_value << 1) + gear[byte]) & _MASK64
                pos += 1
                if hash_value & mask == 0:
                    cut = pos
                    break
            if not cut:
                cut = end
            cuts.append(cut)
            start = cut
        return cuts

    # -- reference ------------------------------------------------------------

    def cut_points_reference(self, data: bytes) -> list[int]:
        """Byte-indexing reference loop with the fixed 64-byte warm-up (the
        pre-optimization behaviour; the equivalence oracle for
        :meth:`cut_points`)."""
        spec = self.spec
        gear = self._gear
        mask = spec.mask
        min_size = spec.min_size
        max_size = spec.max_size

        cuts: list[int] = []
        length = len(data)
        start = 0
        while start < length:
            end = min(start + max_size, length)
            pos = start + min_size
            if pos >= end:
                cuts.append(end)
                start = end
                continue
            hash_value = 0
            warm_from = max(start, pos - 64)
            for i in range(warm_from, pos):
                hash_value = ((hash_value << 1) + gear[data[i]]) & _MASK64
            cut = end
            for i in range(pos, end):
                hash_value = ((hash_value << 1) + gear[data[i]]) & _MASK64
                if (hash_value & mask) == 0:
                    cut = i + 1
                    break
            cuts.append(cut)
            start = cut
        return cuts

    def __repr__(self) -> str:
        return (
            f"GearChunker(min={self.spec.min_size}, avg={self.spec.avg_size}, "
            f"max={self.spec.max_size})"
        )
