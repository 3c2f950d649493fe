"""Frequency-analysis building blocks (the COUNT and FREQ-ANALYSIS
functions shared by Algorithms 1–3).

``COUNT`` scans a logical chunk sequence once and produces:

* ``frequencies`` — occurrences of each unique chunk (by fingerprint);
* ``left`` / ``right`` — co-occurrence tables: for each chunk, how often
  each other chunk appeared immediately before / after it;
* ``sizes`` — the size of each unique chunk (used by the advanced attack's
  size classifier).

``FREQ-ANALYSIS`` ranks two frequency tables and pairs equal ranks. How ties
are broken matters (the paper discusses this in §4.1):

* ``insertion`` (default) — ties keep first-occurrence order. This mirrors
  the paper's implementation, which stores each chunk's neighbor lists
  *sequentially* in LevelDB (§5.2): a stable frequency sort leaves tied
  entries in stream order, and stream positions are temporally correlated
  between the auxiliary and target backups wherever content is unmodified.
* ``fingerprint`` — ties ordered by fingerprint bytes. Ciphertext and
  plaintext fingerprints of the same chunk are unrelated, so tied ranks pair
  essentially at random; the tie-break ablation quantifies how much of the
  locality-based attack's power this destroys.

Both orders are deterministic, so every experiment is exactly reproducible.

COUNT has two sources and one kernel per accelerator mode — with numpy
the shard kernel and merge of :mod:`repro.attacks.interning`
(``count_shard`` / ``merge_shards``), without it :func:`accumulate_counts`
(this module) — all with byte-identical output:

================  =======================================  ==============================
source            counted as                               stats
================  =======================================  ==============================
in-RAM backup     ``interning.interned_count``: one shard  ``ArrayStats`` over the
                                                           resident vocabulary
columnar shards   ``sharded.sharded_count``: N shards in   ``ArrayStats`` over the mapped
                  worker processes                         vocabulary
================  =======================================  ==============================

Without numpy both rows yield a plain :class:`ChunkStats`. The dict-only
:func:`count_with_neighbors` is that fallback and the *reference oracle*
the differential tests pin every row against. The columnar trace is the
out-of-core row: its id stream and vocabulary stay memory-mapped files,
and no table over them becomes a Python dict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup


@dataclass
class ChunkStats:
    """Output of COUNT over one backup stream."""

    frequencies: dict[bytes, int] = field(default_factory=dict)
    left: dict[bytes, dict[bytes, int]] = field(default_factory=dict)
    right: dict[bytes, dict[bytes, int]] = field(default_factory=dict)
    sizes: dict[bytes, int] = field(default_factory=dict)

    @property
    def unique_chunks(self) -> int:
        return len(self.frequencies)


def count_frequencies(backup: Backup) -> dict[bytes, int]:
    """The basic attack's COUNT: frequency of each unique chunk.

    ``Counter`` counts at C speed and, like the hand-rolled dict loop it
    replaced, preserves first-occurrence key order (it is a dict).
    """
    return Counter(backup.fingerprints)


def accumulate_counts(
    stats: ChunkStats,
    fingerprints: list[bytes],
    chunk_sizes: list[int],
    previous: bytes | None = None,
) -> bytes | None:
    """One COUNT pass over a (sub-)stream, accumulated into ``stats``.

    This is the reference COUNT loop behind :func:`count_with_neighbors`
    — the equivalence oracle the array COUNT
    (:mod:`repro.attacks.interning`) is property-tested against, and what
    every COUNT source runs when numpy is absent. ``previous`` carries
    the adjacency across batch and shard boundaries: pass the
    return value of one call as the ``previous`` of the next and the
    accumulated tables are identical to a single whole-stream pass.

    Returns the last fingerprint of the sub-stream (the next call's
    ``previous``), or the ``previous`` argument unchanged if the
    sub-stream is empty.
    """
    frequencies = stats.frequencies
    left = stats.left
    right = stats.right
    sizes = stats.sizes
    for index, fingerprint in enumerate(fingerprints):
        frequencies[fingerprint] = frequencies.get(fingerprint, 0) + 1
        if fingerprint not in sizes:
            sizes[fingerprint] = chunk_sizes[index]
        if previous is not None:
            left_table = left.get(fingerprint)
            if left_table is None:
                left_table = left[fingerprint] = {}
            left_table[previous] = left_table.get(previous, 0) + 1
            right_table = right.get(previous)
            if right_table is None:
                right_table = right[previous] = {}
            right_table[fingerprint] = right_table.get(fingerprint, 0) + 1
        previous = fingerprint
    return previous


def count_with_neighbors(backup: Backup) -> ChunkStats:
    """The locality-based attack's COUNT: frequencies plus left/right
    neighbor co-occurrence tables and per-chunk sizes (Algorithm 2).

    Everything stays in plain bytes-keyed dicts — this is the reference
    implementation kept as the equivalence oracle and the numpy-less
    fallback (module docstring: the COUNT table).
    """
    stats = ChunkStats()
    accumulate_counts(stats, backup.fingerprints, backup.sizes)
    return stats


INSERTION = "insertion"
FINGERPRINT = "fingerprint"
_TIE_BREAKS = (INSERTION, FINGERPRINT)


def check_tie_breaks(*tie_breaks: str) -> None:
    """Reject an unknown tie-break when an attack is configured, not at
    its first non-empty ranking."""
    for tie_break in tie_breaks:
        if tie_break not in _TIE_BREAKS:
            raise ConfigurationError(
                f"unknown tie_break {tie_break!r}; use one of {_TIE_BREAKS}"
            )


def rank_by_frequency(
    table: dict[bytes, int], tie_break: str = INSERTION
) -> list[bytes]:
    """Fingerprints sorted by descending frequency.

    ``tie_break`` selects the order of equal-frequency entries: first
    occurrence in the stream (``insertion``, the paper's sequential-list
    behaviour) or fingerprint bytes (``fingerprint``). Both are
    deterministic.
    """
    if tie_break == INSERTION:
        # dicts preserve insertion order and sorted() is stable.
        return sorted(table, key=lambda fp: -table[fp])
    check_tie_breaks(tie_break)
    return sorted(table, key=lambda fp: (-table[fp], fp))


def freq_analysis(
    ciphertext_table: dict[bytes, int],
    plaintext_table: dict[bytes, int],
    limit: int | None = None,
    tie_break: str = INSERTION,
) -> list[tuple[bytes, bytes]]:
    """Pair the i-th most frequent ciphertext chunk with the i-th most
    frequent plaintext chunk (FREQ-ANALYSIS in Algorithms 1 and 2).

    Args:
        ciphertext_table: chunk → frequency for the ciphertext side.
        plaintext_table: chunk → frequency for the plaintext side.
        limit: return at most this many top pairs (``u``/``v`` in the
            paper); ``None`` pairs every rank up to the shorter table.
        tie_break: tie ordering, see :func:`rank_by_frequency`.
    """
    pair_count = min(len(ciphertext_table), len(plaintext_table))
    if limit is not None:
        pair_count = min(pair_count, limit)
    if pair_count == 0:
        return []
    ciphertext_ranked = rank_by_frequency(ciphertext_table, tie_break)[:pair_count]
    plaintext_ranked = rank_by_frequency(plaintext_table, tie_break)[:pair_count]
    return list(zip(ciphertext_ranked, plaintext_ranked))


def classify_by_blocks(
    table: dict[bytes, int],
    sizes: dict[bytes, int],
    block_size: int = 16,
    is_plaintext: bool = True,
) -> dict[int, dict[bytes, int]]:
    """Group a frequency table by cipher-block count (CLASSIFY, Algorithm 3).

    Plaintext chunks of ``n`` bytes occupy ``n // block + 1`` cipher blocks
    under PKCS#7 padding; ciphertext sizes are already padded multiples, so
    their block count is ``n // block``. Grouping both sides this way puts a
    ciphertext chunk and its original plaintext chunk in the same class.
    """
    classes: dict[int, dict[bytes, int]] = {}
    for fingerprint, frequency in table.items():
        size = sizes[fingerprint]
        if is_plaintext:
            blocks = size // block_size + 1
        else:
            blocks = size // block_size
        bucket = classes.get(blocks)
        if bucket is None:
            bucket = classes[blocks] = {}
        bucket[fingerprint] = frequency
    return classes


def sized_freq_analysis(
    ciphertext_table: dict[bytes, int],
    plaintext_table: dict[bytes, int],
    ciphertext_sizes: dict[bytes, int],
    plaintext_sizes: dict[bytes, int],
    limit: int | None = None,
    block_size: int = 16,
    tie_break: str = INSERTION,
) -> list[tuple[bytes, bytes]]:
    """Size-aware FREQ-ANALYSIS (Algorithm 3): run plain frequency pairing
    independently inside every cipher-block-count class."""
    ciphertext_classes = classify_by_blocks(
        ciphertext_table, ciphertext_sizes, block_size, is_plaintext=False
    )
    plaintext_classes = classify_by_blocks(
        plaintext_table, plaintext_sizes, block_size, is_plaintext=True
    )
    pairs: list[tuple[bytes, bytes]] = []
    for blocks in sorted(ciphertext_classes):
        plaintext_bucket = plaintext_classes.get(blocks)
        if not plaintext_bucket:
            continue
        pairs.extend(
            freq_analysis(
                ciphertext_classes[blocks], plaintext_bucket, limit, tie_break
            )
        )
    return pairs
