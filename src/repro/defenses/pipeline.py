"""Defense pipelines: plaintext backup streams → adversary-visible
ciphertext streams, with ground truth for evaluation.

This is the trace-driven methodology of §7.1. The datasets carry
fingerprints rather than content, so encryption is simulated exactly as the
paper does:

* **MLE** (baseline): ciphertext fingerprint = H("mle" ∥ plaintext fp),
  a fixed bijection — deterministic encryption.
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
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from repro.common.errors import ConfigurationError
from repro.common.rng import rng_from
from repro.crypto.cipher import BLOCK_SIZE
from repro.datasets.model import Backup, BackupSeries
from repro.defenses.obfuscate import (
    DEFAULT_VARIANTS,
    FrequencyObfuscator,
    parse_scheme,
)
from repro.defenses.scramble import DEQUE, scramble_indices
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


class DefensePipeline:
    """Encrypts plaintext backup streams under a chosen defense scheme.

    ``scheme`` accepts a :class:`DefenseScheme`, a plain scheme name, or
    a parameterized obfuscation spec (``"obfuscate:4"``); a spec's knob
    overrides ``obfuscate_variants``.
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

    # -- fingerprint-level encryption ---------------------------------------

    def _output_length(self, plaintext_fp: bytes) -> int:
        if self.fingerprint_bytes is not None:
            return self.fingerprint_bytes
        return len(plaintext_fp)

    @staticmethod
    def _mle_fingerprint(plaintext_fp: bytes, length: int) -> bytes:
        return hashlib.sha256(b"mle|" + plaintext_fp).digest()[:length]

    @staticmethod
    def _minhash_fingerprint(
        minimum_fp: bytes, plaintext_fp: bytes, length: int
    ) -> bytes:
        # §7.1: concatenate the segment minimum with the chunk fingerprint,
        # hash with SHA-256, truncate to the dataset's fingerprint width.
        return hashlib.sha256(minimum_fp + plaintext_fp).digest()[:length]

    @staticmethod
    def _record_truth(
        truth: dict[bytes, bytes], cipher_fp: bytes, plaintext_fp: bytes
    ) -> None:
        """Record one ground-truth pair, rejecting ciphertext collisions.

        Every encryption path funnels through this one check, so a
        truncated fingerprint width that maps two distinct plaintext
        chunks to the same ciphertext fingerprint fails identically
        whatever the scheme (or scheme order) — the restore round-trip
        guarantee requires ``truth`` to stay a function.
        """
        existing = truth.get(cipher_fp)
        if existing is not None and existing != plaintext_fp:
            raise ConfigurationError(
                "ciphertext fingerprint collision; increase "
                "fingerprint_bytes"
            )
        truth[cipher_fp] = plaintext_fp

    def encrypt_backup(self, backup: Backup, backup_index: int = 0) -> EncryptedBackup:
        """Encrypt one plaintext backup stream."""
        if self.scheme is DefenseScheme.MLE:
            return self._encrypt_plain_mle(backup)
        if self.scheme is DefenseScheme.OBFUSCATE:
            return self._encrypt_obfuscated(backup)
        return self._encrypt_segmented(backup, backup_index)

    def encrypt_series(self, series: BackupSeries) -> EncryptedSeries:
        """Encrypt every backup of a series."""
        encrypted = EncryptedSeries(
            name=series.name, scheme=self.scheme, plaintext=series
        )
        for index, backup in enumerate(series.backups):
            encrypted.backups.append(self.encrypt_backup(backup, index))
        return encrypted

    # -- internals ----------------------------------------------------------

    def _encrypt_plain_mle(self, backup: Backup) -> EncryptedBackup:
        ciphertext = Backup(label=backup.label)
        truth: dict[bytes, bytes] = {}
        cache: dict[bytes, bytes] = {}
        for plaintext_fp, size in zip(backup.fingerprints, backup.sizes):
            cipher_fp = cache.get(plaintext_fp)
            if cipher_fp is None:
                cipher_fp = self._mle_fingerprint(
                    plaintext_fp, self._output_length(plaintext_fp)
                )
                self._record_truth(truth, cipher_fp, plaintext_fp)
                cache[plaintext_fp] = cipher_fp
            ciphertext.append(cipher_fp, padded_size(size))
        return EncryptedBackup(
            label=backup.label, ciphertext=ciphertext, truth=truth
        )

    def _encrypt_obfuscated(self, backup: Backup) -> EncryptedBackup:
        """Relaxed MLE: round-robin each chunk's occurrences over its
        ``t`` keyed variants (see :mod:`repro.defenses.obfuscate`).  The
        occurrence counter resets per backup, so encryption stays a pure
        function of the plaintext stream — identical uploads produce
        identical ciphertexts and cross-user dedup survives per variant.
        """
        ciphertext = Backup(label=backup.label)
        truth: dict[bytes, bytes] = {}
        obfuscator = self._obfuscator
        variants = obfuscator.variants
        # The variant each chunk's next occurrence takes: the keyed
        # phase is hashed once per distinct chunk, then stepped — the
        # k-th occurrence lands on ``assign(fp, k)`` all the same.
        upcoming: dict[bytes, int] = {}
        variant_cache: dict[tuple[bytes, int], bytes] = {}
        for plaintext_fp, size in zip(backup.fingerprints, backup.sizes):
            variant = upcoming.get(plaintext_fp)
            if variant is None:
                variant = obfuscator.offset(plaintext_fp)
            upcoming[plaintext_fp] = (variant + 1) % variants
            cipher_fp = variant_cache.get((plaintext_fp, variant))
            if cipher_fp is None:
                cipher_fp = obfuscator.variant_fingerprint(
                    plaintext_fp, variant, self._output_length(plaintext_fp)
                )
                self._record_truth(truth, cipher_fp, plaintext_fp)
                variant_cache[(plaintext_fp, variant)] = cipher_fp
            ciphertext.append(cipher_fp, padded_size(size))
        return EncryptedBackup(
            label=backup.label, ciphertext=ciphertext, truth=truth
        )

    def _encrypt_segmented(
        self, backup: Backup, backup_index: int
    ) -> EncryptedBackup:
        segments = segment_stream(
            backup.fingerprints, backup.sizes, self.segmentation
        )
        scramble = self.scheme in (DefenseScheme.SCRAMBLE, DefenseScheme.COMBINED)
        minhash = self.scheme in (DefenseScheme.MINHASH, DefenseScheme.COMBINED)
        rng = rng_from(self.seed, "scramble", backup.label, backup_index)

        ciphertext = Backup(label=backup.label)
        logical = Backup(label=backup.label) if scramble else None
        truth: dict[bytes, bytes] = {}
        for segment in segments:
            indices = list(range(segment.start, segment.end))
            cipher_fps: dict[int, bytes] = {}
            if minhash:
                minimum_fp = min(
                    backup.fingerprints[segment.start : segment.end]
                )
            for index in indices:
                plaintext_fp = backup.fingerprints[index]
                length = self._output_length(plaintext_fp)
                if minhash:
                    cipher_fp = self._minhash_fingerprint(
                        minimum_fp, plaintext_fp, length
                    )
                else:
                    cipher_fp = self._mle_fingerprint(plaintext_fp, length)
                self._record_truth(truth, cipher_fp, plaintext_fp)
                cipher_fps[index] = cipher_fp
                if logical is not None:
                    logical.append(cipher_fp, padded_size(backup.sizes[index]))
            if scramble:
                order = scramble_indices(len(indices), rng, self.scramble_mode)
                indices = [segment.start + offset for offset in order]
            for index in indices:
                ciphertext.append(
                    cipher_fps[index], padded_size(backup.sizes[index])
                )
        return EncryptedBackup(
            label=backup.label,
            ciphertext=ciphertext,
            truth=truth,
            num_segments=len(segments),
            restore_order=logical,
        )
