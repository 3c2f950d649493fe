"""Bloom filter (DDFS prototype, §7.4.1).

The prototype sizes its filter for a 1 % false-positive rate over the
expected fingerprint population (the paper's FSL configuration: ~65 M
fingerprints, 7 hash functions, ~74 MB of bits). This implementation derives
(m, k) from (capacity, target FPR) with the standard optimal formulas and
reports its own memory footprint so experiments can budget it.
"""

from __future__ import annotations

import hashlib
import math
import struct

from repro.common import accel
from repro.common.errors import ConfigurationError

_HALVES = struct.Struct(">QQ").unpack
_BIT = tuple(1 << shift for shift in range(8))

#: Fewest keys :meth:`BloomFilter.add_many` hands to numpy; a smaller batch
#: runs the scalar :meth:`~BloomFilter.add` loop. The vector form's fixed
#: cost (~20 array calls) makes the two break even near 24 keys on a
#: 10⁶-key filter; at 64 the vector form is 1.8× ahead.
NUMPY_MIN_BATCH = 64


class BloomFilter:
    """Standard Bloom filter over byte keys.

    :meth:`add` is a test-and-set: it reports whether the key was already
    (possibly) present, so a caller that inserts on "absent" — DDFS step
    S2 — hashes each key once instead of once for ``in`` and once for
    ``add``. ``inserted`` counts ``add`` calls.

    Args:
        capacity: expected number of distinct inserted keys.
        false_positive_rate: target FPR at ``capacity`` insertions.
    """

    def __init__(self, capacity: int, false_positive_rate: float = 0.01):
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        if not 0.0 < false_positive_rate < 1.0:
            raise ConfigurationError("false_positive_rate must be in (0, 1)")
        self.capacity = capacity
        self.false_positive_rate = false_positive_rate
        ln2 = math.log(2)
        self.num_bits = max(8, int(math.ceil(-capacity * math.log(false_positive_rate) / (ln2 * ln2))))
        self.num_hashes = max(1, int(round(self.num_bits / capacity * ln2)))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.inserted = 0

    def _walk(self, key: bytes) -> tuple[int, int]:
        # Kirsch–Mitzenmacher double hashing from one 128-bit digest:
        # probe i sits at (h1 + i·h2) mod m, walked incrementally as
        # pos += step with one conditional subtract (pos, step < m).
        h1, h2 = _HALVES(hashlib.blake2b(key, digest_size=16).digest())
        return h1 % self.num_bits, (h2 | 1) % self.num_bits

    def add(self, key: bytes) -> bool:
        """Insert ``key``; returns whether every one of its bits was
        already set — i.e. what ``key in self`` said just before (one
        digest and one walk for the test *and* the set)."""
        num_bits, bits = self.num_bits, self._bits
        pos, step = self._walk(key)
        present = True
        for _ in range(self.num_hashes):
            index = pos >> 3
            byte = bits[index]
            mask = _BIT[pos & 7]
            if not byte & mask:
                bits[index] = byte | mask
                present = False
            pos += step
            if pos >= num_bits:
                pos -= num_bits
        self.inserted += 1
        return present

    def add_many(self, keys: list[bytes]) -> int:
        """:meth:`add` of each key in order; returns how many reported
        present.

        A probe counts as already set if its bit was set before the batch
        or an earlier key of the batch set it, so the bits, ``inserted``
        and the count equal the scalar loop's.
        """
        numpy = accel.numpy
        count = len(keys)
        if numpy is None or count < NUMPY_MIN_BATCH:
            return sum(map(self.add, keys))
        num_bits, hashes = self.num_bits, self.num_hashes
        halves = numpy.frombuffer(
            b"".join([hashlib.blake2b(key, digest_size=16).digest() for key in keys]),
            dtype=">u8",
        ).reshape(count, 2)
        # Probe i of a key is (h1 + i·h2) mod m, exactly the scalar walk.
        probes = (
            halves[:, :1] % num_bits
            + (halves[:, 1:] | 1) % num_bits * numpy.arange(hashes, dtype=numpy.uint64)
        ) % num_bits
        probes = probes.ravel().astype(numpy.int64)
        total = probes.size
        bits = numpy.frombuffer(self._bits, dtype=numpy.uint8)
        was_set = bits[probes >> 3] & numpy.left_shift(1, probes & 7) != 0
        # One sort orders the probes by (position, probe number), so the
        # first probe of each run of equal positions is the batch's first.
        ordered = numpy.sort(probes * total + numpy.arange(total))
        positions, order = numpy.divmod(ordered, total)
        starts = numpy.empty(total, dtype=bool)
        starts[0] = True
        numpy.not_equal(positions[1:], positions[:-1], out=starts[1:])
        if not starts.all():
            # A position probed again: the key that probed it first set
            # it for every later key (its own later probes see it unset
            # anyway, through the first one).
            first = order[numpy.maximum.accumulate(numpy.where(starts, numpy.arange(total), 0))]
            later = first // hashes < order // hashes
            was_set[order[later]] = True
        present = int(was_set.reshape(count, hashes).all(axis=1).sum())
        # Distinct positions ascend, so the bits of one byte are adjacent:
        # OR them together and store each touched byte once.
        positions = positions[starts]
        index = positions >> 3
        masks = numpy.left_shift(1, positions & 7).astype(numpy.uint8)
        byte_starts = numpy.flatnonzero(numpy.diff(index, prepend=-1))
        bits[index[byte_starts]] |= numpy.bitwise_or.reduceat(masks, byte_starts)
        self.inserted += count
        return present

    def __contains__(self, key: bytes) -> bool:
        num_bits, bits = self.num_bits, self._bits
        pos, step = self._walk(key)
        for _ in range(self.num_hashes):
            if not bits[pos >> 3] & _BIT[pos & 7]:
                return False
            pos += step
            if pos >= num_bits:
                pos -= num_bits
        return True

    @property
    def size_bytes(self) -> int:
        """Memory footprint of the bit array."""
        return len(self._bits)

    def expected_fpr(self) -> float:
        """Theoretical FPR at the current number of insertions."""
        if self.inserted == 0:
            return 0.0
        exponent = -self.num_hashes * self.inserted / self.num_bits
        return (1.0 - math.exp(exponent)) ** self.num_hashes
