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

One driver (:meth:`LocalityAttack.run_counted`) runs the BFS over either
of two sets of steps, picked from the stats' type: chunk ids over two
:class:`~repro.attacks.interning.ArrayStats` (neighbor tables ranked once,
fingerprints decoded only in the result), fingerprints over anything else
``ChunkStats``-shaped (the dict form, which is also the oracle).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import islice

from repro.attacks.base import Attack, AttackResult
from repro.attacks.frequency import (
    FINGERPRINT,
    INSERTION,
    ChunkStats,
    check_tie_breaks,
    freq_analysis,
)
from repro.attacks.interning import (
    ArrayStats,
    interned_count,
    neighbor_pairs,
    seed_pairs,
)
from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup

_EMPTY: dict[bytes, int] = {}


class LocalityAttack(Attack):
    """The paper's locality-based attack."""

    name = "locality"
    #: Cipher block size of the size classifier; ``None`` = no size classes
    #: (Algorithm 2). :class:`~repro.attacks.advanced.AdvancedLocalityAttack`
    #: sets it.
    block_size: int | None = None

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
        check_tie_breaks(tie_break, seed_tie_break)
        self.u = u
        self.v = v
        self.w = w
        self.tie_break = tie_break
        self.seed_tie_break = seed_tie_break

    # Subclass hook ----------------------------------------------------------

    def _analyse(
        self,
        ciphertext_table: dict[bytes, int],
        plaintext_table: dict[bytes, int],
        limit: int,
        tie_break: str,
        ciphertext_stats: ChunkStats,
        plaintext_stats: ChunkStats,
    ) -> list[tuple[bytes, bytes]]:
        """One FREQ-ANALYSIS over two ``fingerprint -> count`` tables: the
        seeding one over the frequency tables, the BFS' over the neighbor
        tables of an inferred pair."""
        return freq_analysis(ciphertext_table, plaintext_table, limit, tie_break)

    # The BFS' steps, by key type ---------------------------------------------

    def _table_steps(self, ciphertext_stats: ChunkStats, plaintext_stats: ChunkStats):
        """Steps keyed on fingerprints, over any ``ChunkStats``-shaped
        stats: every analysis ranks two dict tables (:meth:`_analyse`).
        The numpy-less path, and the oracle the id steps are
        differentially tested against."""
        stats = (ciphertext_stats, plaintext_stats)
        sides = (
            (ciphertext_stats.left, plaintext_stats.left),
            (ciphertext_stats.right, plaintext_stats.right),
        )

        def key(fingerprint, is_plaintext):
            counted = fingerprint in stats[is_plaintext].frequencies
            return fingerprint if counted else None

        def seeds():
            return self._analyse(
                ciphertext_stats.frequencies,
                plaintext_stats.frequencies,
                self.u,
                self.seed_tie_break,
                *stats,
            )

        def neighbors(cipher_fp, plain_fp):
            pairs = []
            for cipher_tables, plain_tables in sides:
                pairs += self._analyse(
                    cipher_tables.get(cipher_fp, _EMPTY),
                    plain_tables.get(plain_fp, _EMPTY),
                    self.v,
                    self.tie_break,
                    *stats,
                )
            return pairs

        return key, seeds, neighbors, iter

    def _id_steps(self, ciphertext_stats: ArrayStats, plaintext_stats: ArrayStats):
        """The same steps keyed on chunk ids: every neighbor table is
        ranked once, an analysis is a join of two slices of the ranked
        rows, and fingerprints are decoded only for the pairs the attack
        returns."""
        stats = (ciphertext_stats, plaintext_stats)
        cipher_ranked, plain_ranked = (
            side.ranked_neighbors(self.v, self.tie_break, self.block_size, is_plaintext)
            for is_plaintext, side in enumerate(stats)
        )
        cipher_fingerprints, plain_fingerprints = (
            side.vocabulary._fingerprints for side in stats
        )

        def key(fingerprint, is_plaintext):
            return stats[is_plaintext].id_of(fingerprint)

        def seeds():
            return seed_pairs(*stats, self.u, self.seed_tie_break, self.block_size)

        def decode(id_pairs):
            return (
                (cipher_fingerprints[cipher_id], plain_fingerprints[plain_id])
                for cipher_id, plain_id in id_pairs
            )

        return key, seeds, partial(neighbor_pairs, cipher_ranked, plain_ranked), decode

    # Main algorithm ----------------------------------------------------------

    def run(
        self,
        ciphertext: Backup,
        auxiliary: Backup,
        leaked_pairs: dict[bytes, bytes] | None = None,
    ) -> AttackResult:
        # In-RAM COUNT, byte-identical to count_with_neighbors (the
        # reference); any other COUNT enters at run_counted (a source
        # whose ``observed`` is counted already, see
        # repro.attacks.evaluation.evaluate).
        return self.run_counted(
            interned_count(ciphertext), interned_count(auxiliary), leaked_pairs
        )

    def run_counted(
        self,
        ciphertext_stats: ChunkStats,
        plaintext_stats: ChunkStats,
        leaked_pairs: dict[bytes, bytes] | None = None,
    ) -> AttackResult:
        """Run the attack over already-counted stats.

        This is the whole algorithm after its two COUNT passes, and the
        one BFS driver: over two :class:`~repro.attacks.interning.
        ArrayStats` the inferred set and the queue hold chunk-id pairs
        (:meth:`_id_steps`), over any other ``ChunkStats``-shaped stats
        fingerprint pairs (:meth:`_table_steps`) — same pairs, same
        insertion order, same iteration count.
        """
        on_ids = isinstance(ciphertext_stats, ArrayStats) and isinstance(
            plaintext_stats, ArrayStats
        )
        key, seeds, neighbors, decode = (
            self._id_steps if on_ids else self._table_steps
        )(ciphertext_stats, plaintext_stats)
        inferred: dict = {}
        pending: deque = deque()
        if leaked_pairs:
            # Known-plaintext mode: every leaked pair is known (and counts
            # toward the inference rate, §5.3.3), but only pairs appearing
            # in both the target and the auxiliary backups can propagate
            # through neighbor analysis (Algorithm 2, line 7). A leaked
            # chunk of the target is never re-inferred; one outside it is
            # nobody's neighbor and needs no key.
            for cipher_fp, plain_fp in leaked_pairs.items():
                cipher_key = key(cipher_fp, False)
                if cipher_key is not None:
                    plain_key = inferred[cipher_key] = key(plain_fp, True)
                    if plain_key is not None:
                        pending.append((cipher_key, plain_key))
        else:
            # Ciphertext-only mode: seed from global frequency analysis.
            for cipher_key, plain_key in seeds():
                if cipher_key not in inferred:
                    inferred[cipher_key] = plain_key
                    pending.append((cipher_key, plain_key))
        leaked_keys = len(inferred) if leaked_pairs else 0

        iterations = 0
        while pending:
            cipher_key, plain_key = pending.popleft()
            iterations += 1
            for new_cipher, new_plain in neighbors(cipher_key, plain_key):
                if new_cipher not in inferred:
                    inferred[new_cipher] = new_plain
                    if len(pending) <= self.w:
                        pending.append((new_cipher, new_plain))
        # Every leaked pair first, as given; then what the BFS inferred.
        pairs = dict(leaked_pairs or ())
        pairs.update(decode(islice(inferred.items(), leaked_keys, None)))
        return AttackResult(
            pairs=pairs, attack_name=self.name, iterations=iterations
        )

    def __repr__(self) -> str:
        block = "" if self.block_size is None else f", block_size={self.block_size}"
        return (
            f"{type(self).__name__}(u={self.u}, v={self.v}, w={self.w}{block}, "
            f"tie_break={self.tie_break!r}, seed_tie_break={self.seed_tie_break!r})"
        )
