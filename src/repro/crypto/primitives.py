"""Low-level crypto primitives built on the standard library.

No third-party crypto package is available offline, so everything here is
constructed from :mod:`hashlib`/:mod:`hmac`. The constructions are standard
(HMAC, HKDF-expand, a SHAKE-256 XOF keystream); their purpose in this
reproduction is behavioural fidelity — determinism, key separation, and
length preservation — not resistance review.

:func:`prf_stream` and :func:`xor_bytes` are the content path's kernels,
one C call per chunk each; ``tests/unit/test_crypto.py`` anchors the
keystream on FIPS 202's SHAKE-256 vector and pins their output with
known-answer vectors taken from an independent spelling of the definition.
"""

from __future__ import annotations

import hashlib
import hmac


def sha256(data: bytes) -> bytes:
    """SHA-256 digest."""
    return hashlib.sha256(data).digest()


def hmac_digest(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256 digest."""
    return hmac.new(key, data, hashlib.sha256).digest()


def hkdf_expand(key: bytes, info: bytes, length: int = 32) -> bytes:
    """HKDF-expand (RFC 5869) with SHA-256, without the extract step.

    Used for deriving purpose-separated subkeys, e.g. a cipher key and a tag
    key from one MLE key. At most 255 blocks (8160 bytes) can be derived.
    """
    if length > 255 * 32:
        raise ValueError("hkdf_expand length too large")
    output = b""
    block = b""
    counter = 1
    while len(output) < length:
        block = hmac_digest(key, block + info + bytes([counter]))
        output += block
        counter += 1
    return output[:length]


def prf_stream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Deterministic keystream of ``length`` bytes from (key, nonce).

    The first ``length`` bytes of ``SHAKE-256(len(key) || key || nonce)``,
    the key length as 8 big-endian bytes so that no two (key, nonce) pairs
    absorb the same string. Distinct pairs give independent streams;
    identical inputs always give identical streams, which is exactly the
    determinism MLE requires (§2.2); and an XOF's output is a prefix code,
    so a longer request extends a shorter one. One C call whatever the
    length — no per-block loop.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    framed = len(key).to_bytes(8, "big") + key + nonce
    return hashlib.shake_256(framed).digest(length)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings as one wide-integer operation."""
    if len(a) != len(b):
        raise ValueError("xor_bytes operands differ in length")
    word = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return word.to_bytes(len(a), "big")
