"""The basic attack (Algorithm 1): classical frequency analysis.

Ranks every unique ciphertext chunk of the target backup and every unique
plaintext chunk of the auxiliary backup by frequency and pairs equal ranks.
As the paper shows (§5.3), this is almost completely ineffective against
backup workloads — updates perturb ranks and most chunks tie at low
frequencies — but it motivates and seeds the locality-based attack.
"""

from __future__ import annotations

from repro.attacks.base import Attack, AttackResult
from repro.attacks.frequency import FINGERPRINT, check_tie_breaks, count_frequencies, freq_analysis
from repro.datasets.model import Backup


class BasicAttack(Attack):
    """Classical frequency analysis over whole backups.

    The whole-backup frequency table is a fingerprint-keyed store (LevelDB
    in the paper's implementation, §5.2), so equal frequencies are ranked in
    fingerprint order — uncorrelated between ciphertext and plaintext —
    which is one of the two reasons the basic attack is ineffective (§4.1).
    """

    name = "basic"

    def __init__(self, tie_break: str = FINGERPRINT):
        check_tie_breaks(tie_break)
        self.tie_break = tie_break

    def run(
        self,
        ciphertext: Backup,
        auxiliary: Backup,
        leaked_pairs: dict[bytes, bytes] | None = None,
    ) -> AttackResult:
        ciphertext_freq = count_frequencies(ciphertext)
        plaintext_freq = count_frequencies(auxiliary)
        pairs = dict(
            freq_analysis(
                ciphertext_freq, plaintext_freq, tie_break=self.tie_break
            )
        )
        if leaked_pairs:
            # Known plaintext overrides whatever rank-pairing produced.
            pairs.update(leaked_pairs)
        return AttackResult(pairs=pairs, attack_name=self.name, iterations=1)
