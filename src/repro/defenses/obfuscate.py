"""Tunable frequency-obfuscated encryption (the journal extension's
relaxed MLE; arXiv 1904.05736, PAPERS.md).

Exact MLE maps each plaintext chunk to exactly one ciphertext, so the
adversary's COUNT pass recovers the true frequency distribution.  The
relaxation here gives every plaintext chunk ``t`` ciphertext *variants*
``H("obf" ∥ j ∥ fp)`` for ``j ∈ [0, t)`` and spreads the chunk's
occurrences across them with a **keyed balance function**: the k-th
occurrence of chunk ``c`` within one backup encrypts to variant
``(offset_K(c) + k) mod t``, where ``offset_K`` is a keyed starting
phase.  Round-robin assignment splits a true count ``f`` into per-variant
counts of ``⌈f/t⌉`` or ``⌊f/t⌋`` — the flattest split possible for a
given ``t`` — so the observed frequency distribution moves toward
uniform as ``t`` grows and frequency analysis loses its signal.

The price is deduplication: a chunk occurring ``f`` times stores
``min(f, t)`` distinct ciphertexts instead of one, so the dedup ratio
degrades monotonically (and gracefully) in ``t``.  Encryption is a pure
function of the plaintext stream — the occurrence counter resets per
backup — so identical uploads still produce identical ciphertexts:
cross-user deduplication survives at the variant level, and restore
keeps the exact-ciphertext-map round-trip guarantee of the other
schemes.  ``t = 1`` degenerates to deterministic one-to-one encryption
(MLE in a different hash domain).

:func:`frequency_kld` is the flatness metric the defense frontier and
the property tests share: the KL divergence of an observed ciphertext
frequency distribution from the uniform distribution over its support
(0 = perfectly flat; larger = more analyzable skew).
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import Iterable

from repro.common.errors import ConfigurationError

#: Default variant count of the ``obfuscate`` scheme (the smallest knob
#: value that actually obfuscates; ``t = 1`` is deterministic).
DEFAULT_VARIANTS = 2


def parse_scheme(spec) -> tuple["DefenseScheme", int]:  # noqa: F821
    """Resolve a scheme spec to ``(DefenseScheme, obfuscation variants)``.

    Args:
        spec: a :class:`~repro.defenses.pipeline.DefenseScheme`, a plain
            scheme name (``"mle"``, ``"obfuscate"``, …), or a
            parameterized obfuscation spec ``"obfuscate:t"`` (e.g.
            ``"obfuscate:4"``).

    Returns:
        The scheme plus its variant count — :data:`DEFAULT_VARIANTS` for
        a bare ``"obfuscate"``, 1 for every non-obfuscating scheme.

    Raises:
        ConfigurationError: unknown scheme name or a bad variant count.
    """
    from repro.defenses.pipeline import DefenseScheme

    if isinstance(spec, DefenseScheme):
        variants = DEFAULT_VARIANTS if spec is DefenseScheme.OBFUSCATE else 1
        return spec, variants
    name, _, knob = str(spec).partition(":")
    try:
        scheme = DefenseScheme(name)
    except ValueError:
        raise ConfigurationError(
            f"unknown scheme {name!r}; choose from "
            f"{sorted(s.value for s in DefenseScheme)}"
        ) from None
    if not knob:
        return parse_scheme(scheme)
    if scheme is not DefenseScheme.OBFUSCATE:
        raise ConfigurationError(
            f"scheme {name!r} takes no parameter (only obfuscate:t does)"
        )
    try:
        variants = int(knob)
    except ValueError:
        raise ConfigurationError(
            f"bad obfuscation variant count {knob!r}; expected an integer"
        ) from None
    if variants < 1:
        raise ConfigurationError("obfuscation variant count must be >= 1")
    return scheme, variants


def scheme_spec(scheme, variants: int = 1) -> str:
    """The canonical CLI/report spelling of a (scheme, variants) pair."""
    from repro.defenses.pipeline import DefenseScheme

    scheme = DefenseScheme(scheme)
    if scheme is DefenseScheme.OBFUSCATE:
        return f"{scheme.value}:{variants}"
    return scheme.value


class FrequencyObfuscator:
    """The keyed balance function and its variant fingerprints.

    Args:
        variants: the knob ``t`` — ciphertext variants per plaintext
            chunk (``1`` = deterministic).
        seed: keys the balance function's starting phase.  The variant
            *fingerprints* are seed-independent (content-derived, like
            MLE), so pipelines with different balance keys still
            deduplicate against each other's ciphertexts.
    """

    def __init__(self, variants: int = DEFAULT_VARIANTS, seed: int = 0):
        if variants < 1:
            raise ConfigurationError(
                "obfuscation variant count must be >= 1"
            )
        self.variants = variants
        self.seed = seed
        self._phase_key = b"obf-balance|" + seed.to_bytes(
            8, "big", signed=True
        )
        self._phases: dict[bytes, int] = {}

    def offset(self, plaintext_fp: bytes) -> int:
        """The keyed starting phase of one chunk's round-robin (hashed
        once per distinct chunk, then remembered)."""
        if self.variants == 1:
            return 0
        phase = self._phases.get(plaintext_fp)
        if phase is None:
            digest = hashlib.sha256(self._phase_key + plaintext_fp).digest()
            phase = int.from_bytes(digest[:4], "big") % self.variants
            self._phases[plaintext_fp] = phase
        return phase

    def assign(self, plaintext_fp: bytes, occurrence: int) -> int:
        """Variant index of a chunk's ``occurrence``-th appearance."""
        return (self.offset(plaintext_fp) + occurrence) % self.variants

    @staticmethod
    def variant_prefix(variant: int) -> bytes:
        """Key prefix of one variant's ciphertext map."""
        return b"obf|" + variant.to_bytes(4, "big") + b"|"

    @staticmethod
    def variant_fingerprint(
        plaintext_fp: bytes, variant: int, length: int
    ) -> bytes:
        """Ciphertext fingerprint of one (chunk, variant) pair."""
        from repro.defenses.pipeline import cipher_fingerprint

        return cipher_fingerprint(
            FrequencyObfuscator.variant_prefix(variant), plaintext_fp, length
        )


def frequency_kld(fingerprints: Iterable[bytes]) -> float:
    """KL divergence of a stream's frequency distribution from uniform.

    ``D(P ‖ U) = log₂ N − H(P)`` over the ``N`` distinct fingerprints
    observed — the flatness metric of the obfuscation frontier: 0 bits
    for a perfectly flat stream, growing with frequency skew.  Splitting
    any chunk's count into near-equal variant shares (what the balance
    function does) can only move the distribution toward uniform, so the
    metric is non-increasing as the knob ``t`` grows.

    Returns:
        The divergence in bits (0.0 for an empty stream).
    """
    counts = Counter(fingerprints)
    total = sum(counts.values())
    if total == 0 or len(counts) <= 1:
        return 0.0
    entropy = 0.0
    for count in counts.values():
        probability = count / total
        entropy -= probability * math.log2(probability)
    return math.log2(len(counts)) - entropy
