"""Common attack interface and result type.

An attack consumes the adversary's view from the threat model (§3): the
logical-order ciphertext chunk sequence ``C`` of the target backup, the
plaintext chunk sequence ``M`` of an auxiliary (prior) backup and — in
known-plaintext mode — a small set of leaked ciphertext–plaintext pairs.
It produces the inferred set ``T`` of ciphertext → plaintext fingerprint
pairs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from operator import eq

from repro.datasets.model import Backup


@dataclass
class AttackResult:
    """The inferred set ``T``: ciphertext fingerprint → inferred plaintext
    fingerprint, plus bookkeeping about the run."""

    pairs: dict[bytes, bytes] = field(default_factory=dict)
    attack_name: str = ""
    iterations: int = 0

    def __len__(self) -> int:
        return len(self.pairs)

    def correct_pairs(self, truth) -> int:
        """How many inferred pairs the ground truth (anything with a
        ``ciphertext -> plaintext`` ``get``) confirms."""
        return sum(map(eq, map(truth.get, self.pairs), self.pairs.values()))


class Attack(ABC):
    """Base class for the paper's inference attacks."""

    name: str = "attack"

    @abstractmethod
    def run(
        self,
        ciphertext: Backup,
        auxiliary: Backup,
        leaked_pairs: dict[bytes, bytes] | None = None,
    ) -> AttackResult:
        """Infer plaintext chunks of ``ciphertext`` using ``auxiliary``.

        Args:
            ciphertext: the target backup as observed by the adversary
                (ciphertext fingerprints, ciphertext sizes, logical order).
            auxiliary: the prior backup's plaintext chunk sequence.
            leaked_pairs: known-plaintext mode seed pairs
                (ciphertext fingerprint → plaintext fingerprint); ``None``
                or empty selects ciphertext-only mode.
        """
