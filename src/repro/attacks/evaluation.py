"""Attack evaluation harness: attack modes, leakage sampling, inference
rate (§3.3, §5).

The *inference rate* is the fraction of the target backup's unique
ciphertext chunks whose original plaintext chunk the attack inferred
correctly. In known-plaintext mode an adversary additionally knows a small
fraction of ciphertext–plaintext pairs of the target (the *leakage rate*,
relative to the unique ciphertext chunk count); leaked pairs count toward
the inference rate, as in the paper's Figs. 8–10.

:func:`evaluate` is the one place an attack is run and scored. What
differs between adversaries — what they observed of the target, what
they know besides, what the truth is and what the rate is relative to —
is an :class:`AttackSource`; every driver (:class:`AttackEvaluator`,
:func:`repro.attacks.sharded.columnar_attack_report`,
:func:`repro.cluster.partial.evaluate_partial_view`) only builds one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Collection, Sequence

from repro.attacks.advanced import AdvancedLocalityAttack
from repro.attacks.base import Attack
from repro.attacks.basic import BasicAttack
from repro.attacks.locality import LocalityAttack
from repro.common.errors import ConfigurationError
from repro.common.rng import rng_from
from repro.datasets.model import Backup, resolve_index
from repro.defenses.pipeline import EncryptedBackup, EncryptedSeries

# The attacks build_attack knows; CLI validation derives from this.
KNOWN_ATTACKS = ("basic", "locality", "advanced")


def build_attack(
    name: str, u: int = 1, v: int = 15, w: int = 200_000, block_size: int = 16
) -> Attack:
    """Instantiate a paper attack by CLI-friendly name.

    Args:
        name: one of :data:`KNOWN_ATTACKS` (``"basic"`` ignores the
            other parameters).
        u / v / w: the locality-attack knobs of §4 (seed pairs, accepted
            co-occurrence pairs per neighbor analysis, queue bound).
        block_size: cipher block size of the advanced attack's size
            classes.

    Raises:
        ConfigurationError: the name is not a known attack, or a knob is
            out of range.
    """
    if name == "basic":
        return BasicAttack()
    if name == "locality":
        return LocalityAttack(u=u, v=v, w=w)
    if name == "advanced":
        return AdvancedLocalityAttack(u=u, v=v, w=w, block_size=block_size)
    raise ConfigurationError(
        f"unknown attack {name!r}; choose from {sorted(KNOWN_ATTACKS)}"
    )


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

    def row(self, *names: str) -> tuple[tuple[str, object], ...]:
        """The report as ``(field, value)`` pairs, rates rounded to 5
        decimals: the row of an ``attack`` cell — or, given ``names``,
        just those fields in that order, which is how the other cell
        kinds and JSON reports take theirs."""
        fields = {
            "auxiliary": self.auxiliary_label,
            "target": self.target_label,
            "inference_rate": round(self.inference_rate, 5),
            "precision": round(self.precision, 5),
            "correct_pairs": self.correct_pairs,
            "inferred_pairs": self.inferred_pairs,
            "unique_ciphertext_chunks": self.unique_ciphertext_chunks,
            "leaked_pairs": self.leaked_pairs,
            "iterations": self.iterations,
        }
        return tuple((name, fields[name]) for name in names or fields)

    def __str__(self) -> str:
        return (
            f"{self.attack} [{self.scheme}] aux={self.auxiliary_label} "
            f"target={self.target_label} leak={self.leakage_rate:.2%}: "
            f"rate={self.inference_rate:.2%} "
            f"({self.correct_pairs}/{self.unique_ciphertext_chunks}, "
            f"precision {self.precision:.2%})"
        )


def leaked_positions(
    unique_chunks: int, target_label: str, leakage_rate: float, seed: int = 0
) -> list[int]:
    """The one known-plaintext draw: which of a target's unique ciphertext
    chunks leak, as positions into its *sorted* unique ciphertext
    fingerprints.

    ``leakage_rate`` is relative to ``unique_chunks``; the sample is
    uniform over them (stolen-device leakage does not favour any
    particular chunk). ``random.sample`` picks positions independently of
    the population's values, so a source that cannot afford the sorted
    fingerprint list (a columnar trace) maps the same positions through
    its own index and leaks the identical set.

    Raises:
        ConfigurationError: if ``leakage_rate`` is outside ``[0, 1]``.
    """
    if not 0.0 <= leakage_rate <= 1.0:
        raise ConfigurationError("leakage_rate must be in [0, 1]")
    count = int(round(leakage_rate * unique_chunks))
    if count == 0:
        return []
    rng = rng_from(seed, "leakage", target_label, leakage_rate)
    return rng.sample(range(unique_chunks), min(count, unique_chunks))


def _pairs_at(target: EncryptedBackup, positions: Sequence[int]) -> dict[bytes, bytes]:
    if not positions:
        return {}
    unique = sorted(set(target.ciphertext.fingerprints))
    return {unique[at]: target.truth[unique[at]] for at in positions}


def sample_leakage(
    target: EncryptedBackup,
    leakage_rate: float,
    seed: int = 0,
) -> dict[bytes, bytes]:
    """Sample leaked ciphertext–plaintext pairs of the target backup
    (:func:`leaked_positions` over an in-RAM backup).

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
    return _pairs_at(
        target,
        leaked_positions(
            target.unique_ciphertext_chunks, target.label, leakage_rate, seed
        ),
    )


@dataclass(frozen=True)
class AttackSource:
    """What one adversary observed of one target, and what scores it.

    Attributes:
        scheme: defense scheme label for the report.
        auxiliary_label / target_label: backup labels for the report.
        observed: the ciphertext the adversary saw — a :class:`Backup`
            (the whole target stream, or the part of it one adversary
            model exposes), or already-counted stats.
        auxiliary: the adversary's plaintext knowledge, in the same form.
        truth: ground truth, anything with a ``ciphertext -> plaintext``
            ``get``.
        unique_ciphertext_chunks: unique ciphertext chunks of the *whole*
            target — the inference rate's denominator and the population
            known-plaintext leakage is drawn from, whatever part of it
            ``observed`` is.
        pairs_at: the ciphertext–plaintext pairs at the given positions of
            the target's sorted unique ciphertext fingerprints.
        visible: the ciphertext fingerprints a leaked pair must be among
            (an adversary cannot be leaked what it does not hold);
            ``None`` when it observed the whole target.
    """

    scheme: str
    auxiliary_label: str
    target_label: str
    observed: Any
    auxiliary: Any
    truth: Any
    unique_ciphertext_chunks: int
    pairs_at: Callable[[Sequence[int]], dict[bytes, bytes]]
    visible: Collection[bytes] | None = None

    @classmethod
    def of_backups(
        cls,
        scheme: str,
        target: EncryptedBackup,
        auxiliary: Backup,
        observed: Backup | None = None,
    ) -> "AttackSource":
        """The source over an in-RAM encrypted backup: the adversary saw
        the whole ciphertext stream, or only its sub-stream ``observed``."""
        return cls(
            scheme=scheme,
            auxiliary_label=auxiliary.label,
            target_label=target.label,
            observed=target.ciphertext if observed is None else observed,
            auxiliary=auxiliary,
            truth=target.truth,
            unique_ciphertext_chunks=target.unique_ciphertext_chunks,
            pairs_at=partial(_pairs_at, target),
            visible=None if observed is None else set(observed.fingerprints),
        )


def evaluate(
    attack: Attack,
    source: AttackSource,
    leakage_rate: float = 0.0,
    seed: int = 0,
) -> InferenceReport:
    """Run ``attack`` over ``source`` and score it.

    Draws the known-plaintext sample (:func:`leaked_positions`) and
    restricts it to what the adversary can see; runs ``attack.run`` over
    two backups, or ``attack.run_counted`` over a source that is counted
    already; scores the result against the source's truth and
    denominator.

    Args:
        leakage_rate: fraction of the target's unique ciphertext chunks
            leaked as known pairs (0 = ciphertext-only mode).
        seed: determinises the leakage sample.
    """
    leaked = source.pairs_at(
        leaked_positions(
            source.unique_ciphertext_chunks, source.target_label, leakage_rate, seed
        )
    )
    if source.visible is not None:
        leaked = {
            cipher_fp: plain_fp
            for cipher_fp, plain_fp in leaked.items()
            if cipher_fp in source.visible
        }
    observed, auxiliary = source.observed, source.auxiliary
    known = leaked or None  # nothing leaked selects ciphertext-only mode
    if isinstance(observed, Backup):
        result = attack.run(observed, auxiliary, known)
    else:
        result = attack.run_counted(observed, auxiliary, known)
    return InferenceReport(
        attack=result.attack_name,
        scheme=source.scheme,
        auxiliary_label=source.auxiliary_label,
        target_label=source.target_label,
        unique_ciphertext_chunks=source.unique_ciphertext_chunks,
        inferred_pairs=len(result.pairs),
        correct_pairs=result.correct_pairs(source.truth),
        leakage_rate=leakage_rate,
        leaked_pairs=len(leaked),
        iterations=result.iterations,
    )


class AttackEvaluator:
    """Runs attacks against an :class:`EncryptedSeries` and scores them."""

    def __init__(self, encrypted: EncryptedSeries):
        self.encrypted = encrypted

    def pair(self, auxiliary: int, target: int) -> tuple[Backup, EncryptedBackup]:
        """The plaintext auxiliary and the encrypted target at two series
        positions (negative indices count from the end).

        Raises:
            ConfigurationError: an index falls outside the series.
        """
        encrypted = self.encrypted
        return (
            encrypted.plaintext[resolve_index(auxiliary, len(encrypted.plaintext))],
            encrypted[resolve_index(target, len(encrypted))],
        )

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
        plaintext_aux, encrypted_target = self.pair(auxiliary, target)
        source = AttackSource.of_backups(
            self.encrypted.scheme.value, encrypted_target, plaintext_aux
        )
        return evaluate(attack, source, leakage_rate, seed)
