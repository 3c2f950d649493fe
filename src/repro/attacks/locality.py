"""The locality-based attack (Algorithm 2).

Chunk locality — chunks re-occurring together with the same neighbors
across backup versions — lets an adversary grow a small set of confidently
inferred ciphertext–plaintext pairs into a large one: if ``(C, M)`` is
inferred, frequency analysis *restricted to the neighbors of C and the
neighbors of M* yields further pairs, which are processed in turn (BFS over
the co-occurrence graphs).

Parameters (paper defaults in §5.3 parentheses):

* ``u`` (1) — number of top-frequency pairs used to seed the inferred set
  in ciphertext-only mode; top-frequency chunks keep stable ranks across
  backups, so small ``u`` keeps seeds accurate.
* ``v`` (15) — number of top co-occurrence pairs taken from each neighbor
  analysis; larger ``v`` infers more but admits more errors (Fig. 4b).
* ``w`` (200 000; 500 000 in known-plaintext mode) — bound on the pending
  FIFO queue ``G`` (memory cap; Fig. 4c).

In known-plaintext mode the inferred set is seeded with the leaked pairs
that also appear in the auxiliary backup (§4.2).
"""

from __future__ import annotations

from collections import deque

from repro.attacks.base import Attack, AttackResult
from repro.attacks.frequency import (
    FINGERPRINT,
    INSERTION,
    ChunkStats,
    freq_analysis,
)
from repro.attacks.interning import interned_count, seed_freq_pairs
from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup

_EMPTY: dict[bytes, int] = {}


class LocalityAttack(Attack):
    """The paper's locality-based attack."""

    name = "locality"

    def __init__(
        self,
        u: int = 1,
        v: int = 15,
        w: int = 200_000,
        tie_break: str = INSERTION,
        seed_tie_break: str = FINGERPRINT,
    ):
        """``tie_break`` orders ties in the per-neighbor co-occurrence
        analyses (the paper keeps neighbor lists sequentially, i.e.
        insertion order). ``seed_tie_break`` orders ties in the global
        frequency analysis used to seed G (a fingerprint-keyed table in the
        paper, hence fingerprint order)."""
        if u < 1 or v < 1 or w < 1:
            raise ConfigurationError("u, v and w must all be >= 1")
        self.u = u
        self.v = v
        self.w = w
        self.tie_break = tie_break
        self.seed_tie_break = seed_tie_break

    # Subclass hooks ---------------------------------------------------------

    def _count(self, backup: Backup) -> ChunkStats:
        # Byte-identical to count_with_neighbors (the reference COUNT).
        return interned_count(backup)  # type: ignore[return-value]

    def _seed_analyse(
        self,
        ciphertext_stats: ChunkStats,
        plaintext_stats: ChunkStats,
    ) -> list[tuple[bytes, bytes]]:
        if hasattr(ciphertext_stats, "top_ranked") and hasattr(
            plaintext_stats, "top_ranked"
        ):
            # Array stats rank their flat count arrays directly
            # (byte-identical, but never sorts the full tables).
            return seed_freq_pairs(
                ciphertext_stats, plaintext_stats, self.u, self.seed_tie_break
            )
        return freq_analysis(
            ciphertext_stats.frequencies,
            plaintext_stats.frequencies,
            self.u,
            self.seed_tie_break,
        )

    def _analyse(
        self,
        ciphertext_table: dict[bytes, int],
        plaintext_table: dict[bytes, int],
        limit: int,
        ciphertext_stats: ChunkStats,
        plaintext_stats: ChunkStats,
    ) -> list[tuple[bytes, bytes]]:
        return freq_analysis(
            ciphertext_table, plaintext_table, limit, self.tie_break
        )

    # Main algorithm ----------------------------------------------------------

    def run(
        self,
        ciphertext: Backup,
        auxiliary: Backup,
        leaked_pairs: dict[bytes, bytes] | None = None,
    ) -> AttackResult:
        ciphertext_stats = self._count(ciphertext)
        plaintext_stats = self._count(auxiliary)
        return self.run_counted(ciphertext_stats, plaintext_stats, leaked_pairs)

    def run_counted(
        self,
        ciphertext_stats: ChunkStats,
        plaintext_stats: ChunkStats,
        leaked_pairs: dict[bytes, bytes] | None = None,
    ) -> AttackResult:
        """Run the attack over already-counted stats.

        This is the whole algorithm after its two COUNT passes — any
        ChunkStats-shaped object works, which is how the sharded columnar
        COUNT (:mod:`repro.attacks.sharded`) drives the attack without
        materializing backups.
        """
        inferred: dict[bytes, bytes] = {}
        pending: deque[tuple[bytes, bytes]] = deque()
        if leaked_pairs:
            # Known-plaintext mode: every leaked pair is known (and counts
            # toward the inference rate, §5.3.3), but only pairs appearing
            # in both the target and the auxiliary backups can propagate
            # through neighbor analysis (Algorithm 2, line 7).
            auxiliary_chunks = plaintext_stats.frequencies
            for cipher_fp, plain_fp in leaked_pairs.items():
                if cipher_fp in inferred:
                    continue
                inferred[cipher_fp] = plain_fp
                if (
                    cipher_fp in ciphertext_stats.frequencies
                    and plain_fp in auxiliary_chunks
                ):
                    pending.append((cipher_fp, plain_fp))
        else:
            # Ciphertext-only mode: seed from global frequency analysis.
            seeds = self._seed_analyse(ciphertext_stats, plaintext_stats)
            for cipher_fp, plain_fp in seeds:
                if cipher_fp not in inferred:
                    inferred[cipher_fp] = plain_fp
                    pending.append((cipher_fp, plain_fp))

        left_c = ciphertext_stats.left
        right_c = ciphertext_stats.right
        left_m = plaintext_stats.left
        right_m = plaintext_stats.right
        iterations = 0
        while pending:
            cipher_fp, plain_fp = pending.popleft()
            iterations += 1
            left_pairs = self._analyse(
                left_c.get(cipher_fp, _EMPTY),
                left_m.get(plain_fp, _EMPTY),
                self.v,
                ciphertext_stats,
                plaintext_stats,
            )
            right_pairs = self._analyse(
                right_c.get(cipher_fp, _EMPTY),
                right_m.get(plain_fp, _EMPTY),
                self.v,
                ciphertext_stats,
                plaintext_stats,
            )
            for new_cipher, new_plain in left_pairs + right_pairs:
                if new_cipher not in inferred:
                    inferred[new_cipher] = new_plain
                    if len(pending) <= self.w:
                        pending.append((new_cipher, new_plain))
        return AttackResult(
            pairs=inferred, attack_name=self.name, iterations=iterations
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(u={self.u}, v={self.v}, w={self.w})"
