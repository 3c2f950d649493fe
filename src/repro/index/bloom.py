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

from repro.common.errors import ConfigurationError

_HALVES = struct.Struct(">QQ").unpack
_BIT = tuple(1 << shift for shift in range(8))


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
