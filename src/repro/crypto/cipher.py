"""Deterministic symmetric cipher with 16-byte block semantics.

The paper assumes AES for chunk encryption; the only properties the attacks
and defenses rely on are:

1. *Determinism*: the same (key, plaintext) always yields the same
   ciphertext — this is what makes deduplication of ciphertext chunks work
   and what frequency analysis exploits.
2. *Block-length preservation*: a plaintext of ``n`` bytes encrypts to
   ``ceil((n + 1) / 16) * 16`` bytes (PKCS#7-style padding), so the
   adversary can read off the plaintext's block count from the ciphertext —
   the side channel used by the advanced locality-based attack (§4.3).

:class:`BlockCipher` provides both, using a PRF keystream XOR (deterministic
CTR with an all-zero nonce) over padded plaintext. AES itself is not
available offline; see DESIGN.md §2.

Both directions apply one keystream — SHAKE-256 output squeezed in a
single call (:func:`~repro.crypto.primitives.prf_stream`) and XORed on as
one wide integer (:func:`~repro.crypto.primitives.xor_bytes`) — around
:func:`pad`/:func:`unpad`. The keystream is looked up as this module's
global at every call, which is where the benchmark's tracer wraps it.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError, IntegrityError
from repro.crypto.primitives import prf_stream, xor_bytes

BLOCK_SIZE = 16


def _check_block_size(block_size: int) -> None:
    # PKCS#7 stores the pad length in one byte.
    if not 1 <= block_size <= 255:
        raise ConfigurationError("block_size must be between 1 and 255")


def pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """PKCS#7 padding: always appends between 1 and ``block_size`` bytes."""
    _check_block_size(block_size)
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Inverse of :func:`pad`; raises :class:`IntegrityError` on bad padding."""
    _check_block_size(block_size)
    if not data or len(data) % block_size:
        raise IntegrityError("ciphertext length is not a multiple of block size")
    pad_len = data[-1]
    if not 1 <= pad_len <= block_size:
        raise IntegrityError("invalid padding length byte")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise IntegrityError("corrupt padding")
    return data[:-pad_len]


def ciphertext_blocks(plaintext_size: int, block_size: int = BLOCK_SIZE) -> int:
    """Number of cipher blocks for a plaintext of ``plaintext_size`` bytes.

    This is the quantity the advanced locality-based attack classifies
    chunks by: ``ceil(size / 16)`` in the paper's Algorithm 3 (the paper
    elides padding; with PKCS#7 it is ``floor(size / 16) + 1``, which is the
    same monotone size signal — see tests for the exact correspondence).
    """
    return plaintext_size // block_size + 1


class BlockCipher:
    """Deterministic symmetric encryption with 16-byte block granularity."""

    def __init__(self, block_size: int = BLOCK_SIZE):
        _check_block_size(block_size)
        self.block_size = block_size

    @staticmethod
    def _apply_keystream(key: bytes, data: bytes) -> bytes:
        if not key:
            raise ConfigurationError("empty encryption key")
        return xor_bytes(data, prf_stream(key, b"freqdedup-cipher", len(data)))

    def encrypt(self, key: bytes, plaintext: bytes) -> bytes:
        """Encrypt ``plaintext`` under ``key`` (deterministic)."""
        return self._apply_keystream(key, pad(plaintext, self.block_size))

    def decrypt(self, key: bytes, ciphertext: bytes) -> bytes:
        """Invert :meth:`encrypt`; raises on malformed ciphertext."""
        return unpad(self._apply_keystream(key, ciphertext), self.block_size)
