"""The advanced locality-based attack (Algorithm 3).

Variable-size chunking leaks chunk sizes: under a block cipher, a ciphertext
chunk occupies exactly the block count of its plaintext chunk, observable
before deduplication. The advanced attack therefore replaces every
FREQ-ANALYSIS call of the locality-based attack with a *size-classified*
variant: chunks are grouped by cipher-block count and frequency ranks are
paired only within a class, which removes cross-size mismatches and raises
the inference rate on variable-size datasets (Figs. 5–9).

On fixed-size datasets every chunk falls into the same class, so this attack
is exactly the locality-based attack (the paper's VM results).
"""

from __future__ import annotations

from repro.attacks.frequency import INSERTION, ChunkStats, sized_freq_analysis
from repro.attacks.locality import LocalityAttack


class AdvancedLocalityAttack(LocalityAttack):
    """Locality-based attack augmented with the chunk-size side channel.

    Algorithm 3 size-classifies every FREQ-ANALYSIS of Algorithm 2, the
    seeding one included (the paper modifies the call at Algorithm 2's
    line 5): ``u`` and ``v`` top pairs are taken per block-count class.
    Setting ``block_size`` is what classifies the id steps; the table
    steps classify in :meth:`_analyse`.
    """

    name = "advanced"

    def __init__(
        self,
        u: int = 1,
        v: int = 15,
        w: int = 200_000,
        block_size: int = 16,
        tie_break: str = INSERTION,
    ):
        super().__init__(u=u, v=v, w=w, tie_break=tie_break)
        self.block_size = block_size

    def _analyse(
        self,
        ciphertext_table: dict[bytes, int],
        plaintext_table: dict[bytes, int],
        limit: int,
        tie_break: str,
        ciphertext_stats: ChunkStats,
        plaintext_stats: ChunkStats,
    ) -> list[tuple[bytes, bytes]]:
        return sized_freq_analysis(
            ciphertext_table,
            plaintext_table,
            ciphertext_stats.sizes,
            plaintext_stats.sizes,
            limit,
            self.block_size,
            tie_break,
        )
