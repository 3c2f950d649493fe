"""Attack evaluation harness: attack modes, leakage sampling, inference
rate (§3.3, §5).

The *inference rate* is the fraction of the target backup's unique
ciphertext chunks whose original plaintext chunk the attack inferred
correctly. In known-plaintext mode an adversary additionally knows a small
fraction of ciphertext–plaintext pairs of the target (the *leakage rate*,
relative to the unique ciphertext chunk count); leaked pairs count toward
the inference rate, as in the paper's Figs. 8–10.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.base import Attack
from repro.common.errors import ConfigurationError
from repro.common.rng import rng_from
from repro.defenses.pipeline import EncryptedBackup, EncryptedSeries


@dataclass(frozen=True)
class InferenceReport:
    """Outcome of one attack run.

    Attributes:
        attack: name of the attack that produced this report (e.g.
            ``"locality"``).
        scheme: defense scheme the target series was encrypted under.
        auxiliary_label: label of the auxiliary (plaintext) backup.
        target_label: label of the target (ciphertext) backup.
        unique_ciphertext_chunks: unique ciphertext chunks in the target —
            the denominator of the inference rate.
        inferred_pairs: ciphertext–plaintext pairs the attack output.
        correct_pairs: inferred pairs that match the ground truth.
        leakage_rate: requested known-plaintext leakage (0 for
            ciphertext-only mode).
        leaked_pairs: pairs actually leaked to the attack.
        iterations: neighbor-analysis iterations the attack performed.
    """

    attack: str
    scheme: str
    auxiliary_label: str
    target_label: str
    unique_ciphertext_chunks: int
    inferred_pairs: int
    correct_pairs: int
    leakage_rate: float
    leaked_pairs: int
    iterations: int

    @property
    def inference_rate(self) -> float:
        """Correctly inferred unique ciphertext chunks over all unique
        ciphertext chunks in the target backup (§4)."""
        if self.unique_ciphertext_chunks == 0:
            return 0.0
        return self.correct_pairs / self.unique_ciphertext_chunks

    @property
    def precision(self) -> float:
        """Fraction of the attack's output pairs that are correct."""
        if self.inferred_pairs == 0:
            return 0.0
        return self.correct_pairs / self.inferred_pairs

    def __str__(self) -> str:
        return (
            f"{self.attack} [{self.scheme}] aux={self.auxiliary_label} "
            f"target={self.target_label} leak={self.leakage_rate:.2%}: "
            f"rate={self.inference_rate:.2%} "
            f"({self.correct_pairs}/{self.unique_ciphertext_chunks}, "
            f"precision {self.precision:.2%})"
        )


def sample_leakage(
    target: EncryptedBackup,
    leakage_rate: float,
    seed: int = 0,
) -> dict[bytes, bytes]:
    """Sample leaked ciphertext–plaintext pairs of the target backup.

    ``leakage_rate`` is relative to the number of unique ciphertext chunks;
    the sample is drawn uniformly over unique ciphertext chunks (stolen-
    device leakage does not favour any particular chunk).

    Args:
        target: the encrypted backup whose pairs leak.
        leakage_rate: fraction of unique ciphertext chunks leaked, in
            ``[0, 1]``.
        seed: determinises the sample (same seed, same leaked set).

    Returns:
        A ``ciphertext fingerprint -> plaintext fingerprint`` dict; empty
        when the rate rounds down to zero pairs.

    Raises:
        ConfigurationError: if ``leakage_rate`` is outside ``[0, 1]``.
    """
    if not 0.0 <= leakage_rate <= 1.0:
        raise ConfigurationError("leakage_rate must be in [0, 1]")
    if leakage_rate == 0.0:
        return {}
    unique = sorted(set(target.ciphertext.fingerprints))
    count = int(round(leakage_rate * len(unique)))
    if count == 0:
        return {}
    rng = rng_from(seed, "leakage", target.label, leakage_rate)
    sampled = rng.sample(unique, min(count, len(unique)))
    return {cipher_fp: target.truth[cipher_fp] for cipher_fp in sampled}


class AttackEvaluator:
    """Runs attacks against an :class:`EncryptedSeries` and scores them."""

    def __init__(self, encrypted: EncryptedSeries):
        self.encrypted = encrypted

    def run(
        self,
        attack: Attack,
        auxiliary: int,
        target: int,
        leakage_rate: float = 0.0,
        seed: int = 0,
    ) -> InferenceReport:
        """Run ``attack`` with backup ``auxiliary`` as the adversary's prior
        knowledge against backup ``target``.

        Args:
            auxiliary: index into the series of the auxiliary backup (the
                adversary's plaintext knowledge). Negative indices count
                from the end.
            target: index of the target backup (adversary sees ciphertext).
            leakage_rate: fraction of the target's unique ciphertext chunks
                leaked as known pairs (0 = ciphertext-only mode).
            seed: determinises the leakage sample.

        Returns:
            An :class:`InferenceReport` scoring the attack's output pairs
            against the series' ground truth.
        """
        plaintext_aux = self.encrypted.plaintext[auxiliary]
        encrypted_target = self.encrypted[target]
        leaked = sample_leakage(encrypted_target, leakage_rate, seed)
        result = attack.run(
            encrypted_target.ciphertext, plaintext_aux, leaked or None
        )
        return InferenceReport(
            attack=result.attack_name,
            scheme=self.encrypted.scheme.value,
            auxiliary_label=plaintext_aux.label,
            target_label=encrypted_target.label,
            unique_ciphertext_chunks=encrypted_target.unique_ciphertext_chunks,
            inferred_pairs=len(result.pairs),
            correct_pairs=result.correct_pairs(encrypted_target.truth),
            leakage_rate=leakage_rate,
            leaked_pairs=len(leaked),
            iterations=result.iterations,
        )
