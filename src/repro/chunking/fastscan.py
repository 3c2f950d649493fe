"""Vectorized boundary-candidate scanning for content-defined chunking.

The boundary tests of both CDC algorithms read only a *position-local*
hash: the Rabin fingerprint at position ``i`` covers exactly the trailing
``window`` bytes, and the gear hash's low ``log2(avg_size)`` bits cover
the trailing ``log2(avg_size)`` bytes. Neither depends on where the
current chunk started (chunk starts only gate *which* positions are
eligible). That makes the per-position boundary test computable for the
whole buffer at once — independent of the sequential cut walk — after
which cut selection is a cheap walk over the (sparse) candidate list.
Rabin's fingerprint is reduced mod P, so it is a handful of table gathers
over a 16-bit byte-pair key stream; gear's is truncated, so one 256-entry
gather and log-many shifted adds build it.

This module holds the shared, dependency-gated plumbing; the per-
algorithm scan lives next to each chunker. NumPy is an
optional accelerator: when it is not importable the chunkers fall back
to their pure-Python skip-ahead loops, with identical output (pinned by
the fastpath-vs-reference property tests).
"""

from __future__ import annotations

from repro.common.accel import numpy


def available() -> bool:
    """Whether the vectorized scan path can run."""
    return numpy is not None


def pair_key_stream(data: bytes) -> "numpy.ndarray":
    """16-bit keys ``(data[j] << 8) | data[j - 1]`` for ``j >= 1``.

    Returned as index-ready ``intp`` so each table gather skips the
    implicit index-cast pass. Entry ``k`` of the result is the key for
    position ``j = k + 1``.
    """
    raw = numpy.frombuffer(data, dtype=numpy.uint8)
    keys = raw[1:].astype(numpy.intp)
    keys <<= 8
    keys |= raw[:-1]
    return keys


def mask_dtype(mask: int) -> "numpy.dtype":
    """Narrowest of uint16/32/64 holding ``mask``-masked hash values."""
    bits = mask.bit_length()
    return numpy.dtype(
        numpy.uint16 if bits <= 16 else numpy.uint32 if bits <= 32 else numpy.uint64
    )
