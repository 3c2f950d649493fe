"""Defense pipelines: plaintext backup streams → adversary-visible
ciphertext streams, with ground truth for evaluation.

This is the trace-driven methodology of §7.1. The datasets carry
fingerprints rather than content, so encryption is simulated exactly as the
paper does:

* **MLE** (baseline): ciphertext fingerprint = truncate(SHA-256("mle|" ∥
  plaintext fp)), a fixed bijection — deterministic encryption.
* **MinHash**: segment the stream, compute the segment's minimum
  fingerprint *h*, then ciphertext fingerprint = truncate(SHA-256(h ∥
  plaintext fp)). Identical plaintext chunks under the same *h* deduplicate;
  under different *h* they diverge.
* **Scramble**: MLE encryption, but the upload order is scrambled within
  each segment (Algorithm 5) — an ablation isolating order perturbation.
* **Combined**: scrambling inside each segment followed by MinHash
  encryption — the paper's recommended defense.
* **Obfuscate**: tunable frequency-obfuscated encryption (the journal
  extension's relaxed MLE): each plaintext chunk maps to one of ``t``
  ciphertext variants chosen by a keyed balance function, flattening the
  adversary's COUNT distribution as ``t`` grows while the dedup ratio
  degrades gracefully (see :mod:`repro.defenses.obfuscate`).

Ciphertext sizes are plaintext sizes padded to 16-byte cipher blocks, which
is what the advanced attack observes.

Every encrypted backup records the ground-truth map (ciphertext fingerprint
→ plaintext fingerprint) used solely by the evaluator to score attacks.

Every scheme is thus one truncated hash (:func:`cipher_fingerprint`) of
the *distinct* chunk under a small key prefix — ``"mle|"``, the segment
minimum, the variant — so a pipeline keeps one :class:`CipherMap` per
prefix for as long as it lives and hashes a chunk the first time the map
misses it; what is left per *occurrence* (the stream, the padded sizes,
the scrambled order, the ground truth and its collision rule) is C-level
``map`` / ``zip`` / ``dict`` calls. The per-occurrence loops this replaced
are the differential oracle in ``tests/unit/test_pipeline_oracle.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

from repro.common.errors import ConfigurationError
from repro.common.rng import rng_from
from repro.crypto.cipher import BLOCK_SIZE
from repro.datasets.model import Backup, BackupSeries
from repro.defenses.obfuscate import (
    DEFAULT_VARIANTS,
    FrequencyObfuscator,
    parse_scheme,
)
from repro.defenses.scramble import DEQUE, check_scramble_mode, scramble_indices
from repro.defenses.segmentation import SegmentationSpec, segment_stream


class DefenseScheme(str, Enum):
    """Which encryption pipeline protects the backup stream."""

    MLE = "mle"
    MINHASH = "minhash"
    SCRAMBLE = "scramble"
    COMBINED = "combined"
    OBFUSCATE = "obfuscate"


@dataclass
class EncryptedBackup:
    """Adversary view of one backup plus evaluation ground truth.

    ``ciphertext`` is the *upload-order* stream the adversary taps (with
    scrambling, the scrambled order). ``restore_order`` is the same
    ciphertext stream in the original logical order — what a file-recipe-
    driven restore fetches — used by the restore-locality simulation.
    """

    label: str
    ciphertext: Backup
    truth: dict[bytes, bytes] = field(default_factory=dict)
    num_segments: int = 0
    restore_order: Backup | None = None

    @cached_property
    def unique_ciphertext_chunks(self) -> int:
        # Counted once: the pipeline hands over a finished stream and
        # nothing appends to ``ciphertext`` afterwards.
        return len(set(self.ciphertext.fingerprints))

    def logical_ciphertext(self) -> Backup:
        """Ciphertext stream in logical (restore) order."""
        if self.restore_order is not None:
            return self.restore_order
        return self.ciphertext


@dataclass
class EncryptedSeries:
    """An encrypted backup series with its plaintext source retained for
    auxiliary-information experiments."""

    name: str
    scheme: DefenseScheme
    plaintext: BackupSeries
    backups: list[EncryptedBackup] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.backups)

    def __getitem__(self, index: int) -> EncryptedBackup:
        return self.backups[index]

    def ciphertext_series(self) -> BackupSeries:
        """The ciphertext stream as a plain series (for storage studies)."""
        return BackupSeries(
            name=f"{self.name}-{self.scheme.value}",
            backups=[backup.ciphertext for backup in self.backups],
            chunking=self.plaintext.chunking,
        )


def padded_size(plaintext_size: int, block_size: int = BLOCK_SIZE) -> int:
    """Ciphertext size of a chunk: PKCS#7 padding to full blocks."""
    return (plaintext_size // block_size + 1) * block_size


#: Key prefix of the deterministic (MLE) map; MinHash keys its maps with
#: the segment minimum, ``obfuscate:t`` with
#: :meth:`~repro.defenses.obfuscate.FrequencyObfuscator.variant_prefix`.
MLE_PREFIX = b"mle|"
_DIGEST_BYTES = hashlib.sha256().digest_size


def _check_width(length: int) -> None:
    if not 0 <= length <= _DIGEST_BYTES:
        raise ConfigurationError(
            f"cannot truncate a {_DIGEST_BYTES}-byte digest to {length} "
            "bytes; set fingerprint_bytes"
        )


def cipher_fingerprint(prefix: bytes, plaintext_fp: bytes, length: int) -> bytes:
    """§7.1's simulated encryption, the one place it is spelt:
    ``SHA-256(prefix ∥ plaintext fingerprint)`` truncated to ``length``
    bytes — and never silently to fewer than were asked for."""
    _check_width(length)
    return hashlib.sha256(prefix + plaintext_fp).digest()[:length]


def cipher_fingerprints(
    prefix: bytes, plaintext_fps: Iterable[bytes], length: int
) -> list[bytes]:
    """:func:`cipher_fingerprint` of every chunk of a batch, the width
    checked once for all of them."""
    _check_width(length)
    sha256 = hashlib.sha256
    return [sha256(prefix + fp).digest()[:length] for fp in plaintext_fps]


class CipherMap(dict):
    """Plaintext → ciphertext fingerprints under one key prefix, each
    computed the first time it is asked for.

    Deterministic encryption is a function of the *distinct* chunk, so a
    stream is encrypted with ``map(cipher_map.__getitem__, fingerprints)``
    and only a chunk this map has never seen reaches Python. Every
    occurrence then shares one ``bytes`` object. ``length=None`` keeps
    each plaintext fingerprint's own width.
    """

    __slots__ = ("prefix", "length")

    def __init__(self, prefix: bytes, length: int | None):
        self.prefix = prefix
        self.length = length

    def __missing__(self, plaintext_fp: bytes) -> bytes:
        cipher_fp = self[plaintext_fp] = cipher_fingerprint(
            self.prefix, plaintext_fp, self.length or len(plaintext_fp)
        )
        return cipher_fp


def _ground_truth(cipher: list[bytes], plain: Sequence[bytes]) -> dict[bytes, bytes]:
    """One backup's ciphertext → plaintext map, in first-occurrence order.

    The single collision rule: a truncated fingerprint width that sends
    two distinct plaintext chunks of this backup to one ciphertext
    fingerprint would make ``truth`` stop being a function (and break the
    restore round trip), so it is rejected whatever the scheme — the map
    must send every occurrence's ciphertext back to its own plaintext.
    """
    truth = dict(zip(cipher, plain))
    if list(map(truth.__getitem__, cipher)) != list(plain):
        raise ConfigurationError(
            "ciphertext fingerprint collision; increase fingerprint_bytes"
        )
    return truth


class DefensePipeline:
    """Encrypts plaintext backup streams under a chosen defense scheme.

    ``scheme`` accepts a :class:`DefenseScheme`, a plain scheme name, or
    a parameterized obfuscation spec (``"obfuscate:4"``); a spec's knob
    overrides ``obfuscate_variants``.

    The pipeline owns one :class:`CipherMap` per key prefix for its whole
    lifetime, so the backups of a series and the uploads of a service
    hash each distinct chunk once; the maps are a cache of a pure
    function and change no output.
    """

    def __init__(
        self,
        scheme: DefenseScheme | str = DefenseScheme.MLE,
        segmentation: SegmentationSpec | None = None,
        seed: int = 0,
        scramble_mode: str = DEQUE,
        fingerprint_bytes: int | None = None,
        obfuscate_variants: int = DEFAULT_VARIANTS,
    ):
        self.scheme, spec_variants = parse_scheme(scheme)
        check_scramble_mode(scramble_mode)
        if fingerprint_bytes is not None and not (
            1 <= fingerprint_bytes <= _DIGEST_BYTES
        ):
            raise ConfigurationError(
                f"fingerprint_bytes must be in 1..{_DIGEST_BYTES} (a "
                f"truncated SHA-256), got {fingerprint_bytes}"
            )
        self.segmentation = segmentation or SegmentationSpec()
        self.seed = seed
        self.scramble_mode = scramble_mode
        self.fingerprint_bytes = fingerprint_bytes
        if self.scheme is DefenseScheme.OBFUSCATE:
            if isinstance(scheme, str) and ":" in scheme:
                obfuscate_variants = spec_variants
            self.obfuscate_variants = obfuscate_variants
        else:
            self.obfuscate_variants = 1
        self._obfuscator = FrequencyObfuscator(
            variants=self.obfuscate_variants, seed=seed
        )
        self._maps: dict[bytes, CipherMap] = {}

    def _map(self, prefix: bytes) -> CipherMap:
        found = self._maps.get(prefix)
        if found is None:
            found = self._maps[prefix] = CipherMap(prefix, self.fingerprint_bytes)
        return found

    def encrypt_backup(self, backup: Backup, backup_index: int = 0) -> EncryptedBackup:
        """Encrypt one plaintext backup stream."""
        scheme = self.scheme
        minhash = scheme in (DefenseScheme.MINHASH, DefenseScheme.COMBINED)
        scramble = scheme in (DefenseScheme.SCRAMBLE, DefenseScheme.COMBINED)
        plain = backup.fingerprints
        segments: list = []
        if minhash or scramble:
            segments = segment_stream(plain, backup.sizes, self.segmentation)
        if scheme is DefenseScheme.OBFUSCATE:
            cipher = self._obfuscated(plain)
        elif minhash:
            # §7.1: the segment minimum keys every chunk of the segment.
            cipher = []
            for segment in segments:
                block = plain[segment.start : segment.end]
                cipher += map(self._map(min(block)).__getitem__, block)
        else:
            cipher = list(map(self._map(MLE_PREFIX).__getitem__, plain))
        truth = _ground_truth(cipher, plain)
        # ``padded_size`` inlined: one call per occurrence is what this
        # method exists to avoid.
        sizes = [(size // BLOCK_SIZE + 1) * BLOCK_SIZE for size in backup.sizes]
        logical = Backup(label=backup.label, fingerprints=cipher, sizes=sizes)
        if not scramble:
            return EncryptedBackup(
                label=backup.label,
                ciphertext=logical,
                truth=truth,
                num_segments=len(segments),
            )
        # Algorithm 5 per segment, as one index list over the stream; the
        # recipe (``restore_order``) keeps the logical order.
        rng = rng_from(self.seed, "scramble", backup.label, backup_index)
        order: list[int] = []
        for segment in segments:
            start = segment.start
            order += [
                start + offset
                for offset in scramble_indices(
                    len(segment), rng, self.scramble_mode
                )
            ]
        return EncryptedBackup(
            label=backup.label,
            ciphertext=Backup(
                label=backup.label,
                fingerprints=list(map(cipher.__getitem__, order)),
                sizes=list(map(sizes.__getitem__, order)),
            ),
            truth=truth,
            num_segments=len(segments),
            restore_order=logical,
        )

    def encrypt_series(self, series: BackupSeries) -> EncryptedSeries:
        """Encrypt every backup of a series."""
        encrypted = EncryptedSeries(
            name=series.name, scheme=self.scheme, plaintext=series
        )
        for index, backup in enumerate(series.backups):
            encrypted.backups.append(self.encrypt_backup(backup, index))
        return encrypted

    def _obfuscated(self, plain: list[bytes]) -> list[bytes]:
        """Relaxed MLE: round-robin each chunk's occurrences over its
        ``t`` keyed variants (see :mod:`repro.defenses.obfuscate`).  The
        occurrence counter resets per backup, so encryption stays a pure
        function of the plaintext stream — identical uploads produce
        identical ciphertexts and cross-user dedup survives per variant.
        """
        obfuscator = self._obfuscator
        variants = obfuscator.variants
        lookups = [
            self._map(obfuscator.variant_prefix(variant)).__getitem__
            for variant in range(variants)
        ]
        # The variant each chunk's next occurrence takes: the keyed phase
        # (memoised per distinct chunk by the obfuscator), then stepped —
        # the k-th occurrence lands on ``assign(fp, k)`` all the same.
        upcoming: dict[bytes, int] = {}
        cipher = []
        for plaintext_fp in plain:
            variant = upcoming.get(plaintext_fp)
            if variant is None:
                variant = obfuscator.offset(plaintext_fp)
            upcoming[plaintext_fp] = (variant + 1) % variants
            cipher.append(lookups[variant](plaintext_fp))
        return cipher
