"""Interned COUNT: the array form of the attacks' counting pass.

The reference COUNT (:func:`repro.attacks.frequency.count_with_neighbors`)
keys three nested dicts on fingerprint bytes for every chunk occurrence —
six bytes-keyed dict operations per chunk, all driven from a Python-level
loop. At the multi-million-chunk scale of the journal follow-up (Li et
al., TDSC'19) that dominates every attack run. With numpy, fingerprints
are interned into dense integer chunk ids once (:class:`ChunkVocabulary`,
or the on-disk vocabulary of a columnar trace) and every COUNT source
runs the same two functions over id arrays:

* :func:`count_shard` — the one kernel: frequencies are a ``bincount``,
  first stream positions fall out of a reversed scatter (the earliest
  occurrence is written last and wins), and the left/right co-occurrence
  tables collapse into one ``unique`` over packed ``(previous << 32) |
  current`` pairs, reaching one *lead* element back across the shard
  boundary;
* :func:`merge_shards` — the one merge: counts add, first positions take
  the minimum, and because first positions are unique stream indices one
  ``argsort`` restores exactly the insertion order a single-threaded
  COUNT would have produced.

An in-RAM backup is one shard (:func:`interned_count`), a columnar backup
is N shards counted in worker processes
(:func:`repro.attacks.sharded.sharded_count`); the table in
:mod:`repro.attacks.frequency` lists the two side by side.

The locality/advanced attacks stay on ids after COUNT: over two
:class:`ArrayStats` their BFS seeds from :func:`seed_pairs`, probes the
neighbor tables :meth:`ArrayStats.ranked_neighbors` ranked once
(:func:`neighbor_pairs`), and decodes fingerprint bytes only for the
pairs it returns. :class:`ArrayStats` also presents the
``frequencies``/``left``/``right``/``sizes`` mappings of
:class:`~repro.attacks.frequency.ChunkStats` — for reports, for tests,
and for an attack whose other side is not an array stats — and because
everything preserves first-occurrence order, both forms give
byte-identical output (pinned by the differential tests against
``count_with_neighbors`` and the dict steps).
"""

from __future__ import annotations

import gc
import time
from collections.abc import Mapping
from contextlib import contextmanager
from functools import cached_property

from repro import obs
from repro.attacks.frequency import (
    FINGERPRINT,
    INSERTION,
    check_tie_breaks,
    count_with_neighbors,
)
from repro.common import accel
from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup

__all__ = [
    "ArrayStats",
    "ChunkVocabulary",
    "MAX_VOCABULARY",
    "check_vocabulary_capacity",
    "count_shard",
    "interned_count",
    "merge_shards",
    "neighbor_pairs",
    "seed_pairs",
]

#: Adjacent chunk ids are packed two to an int for the pair counter, so a
#: vocabulary can hold at most 2**PAIR_SHIFT ids before (prev << PAIR_SHIFT)
#: | cur would alias distinct pairs. 2**32 unique chunks is ~32 TB of
#: logical data at the FSL 8 KB average chunk size — beyond it, shard the
#: trace into multiple vocabularies (see docs/attacks.md, "Scaling COUNT
#: to trace scale").
PAIR_SHIFT = 32
_PAIR_MASK = (1 << PAIR_SHIFT) - 1
#: Bit of a ranked row's table id that tells a right neighbor table from
#: a left one; the block class sits below it (a class past 2**40 would be
#: a 16 TiB chunk at the 16-byte cipher block) and the rank is packed
#: under both, which leaves it 22 bits.
_SIDE_SHIFT = 40
MAX_VOCABULARY = 1 << PAIR_SHIFT


def check_vocabulary_capacity(size: int, source: str = "chunk vocabulary") -> None:
    """Reject vocabularies the packed-pair encoding cannot represent.

    Ids at or above 2**PAIR_SHIFT would silently alias other pairs inside
    the packed ``(prev << PAIR_SHIFT) | cur`` adjacency key, corrupting
    the co-occurrence tables; a columnar trace is checked up front (a
    resident :class:`ChunkVocabulary` refuses to grow past the bound), so
    the failure is a clear error instead of wrong counts.
    """
    if size > MAX_VOCABULARY:
        raise ConfigurationError(
            f"{source} holds {size} unique fingerprints, more than the "
            f"2**{PAIR_SHIFT} ids the packed (prev << {PAIR_SHIFT}) | cur "
            "adjacency encoding supports; split the trace across "
            "vocabularies (docs/attacks.md, 'Scaling COUNT to trace scale')"
        )


@contextmanager
def _gc_paused():
    """Pause the cyclic collector across an allocation burst.

    The COUNT decode sections allocate hundreds of thousands of container
    objects in a tight stretch; with a multi-million-object live heap the
    generational collector otherwise fires repeatedly mid-burst and
    dominates the wall clock. Nothing here creates reference cycles, so
    deferring collection is safe; the previous collector state is always
    restored.
    """
    if gc.isenabled():
        gc.disable()
        try:
            yield
        finally:
            gc.enable()
    else:
        yield


class _Interner(dict):
    """Fingerprint → dense id dict that assigns ids on first lookup.

    ``__missing__`` keeps interning inside the C dict-subscript path:
    ``map(interner.__getitem__, stream)`` resolves known fingerprints
    without entering Python and only calls back here for new ones.
    """

    __slots__ = ("fingerprints",)

    def __init__(self, fingerprints: list[bytes]):
        super().__init__()
        self.fingerprints = fingerprints

    def __missing__(self, fingerprint: bytes) -> int:
        chunk_id = len(self.fingerprints)
        if chunk_id > _PAIR_MASK:
            raise ConfigurationError(
                "chunk vocabulary exhausted: the packed "
                f"(prev << {PAIR_SHIFT}) | cur adjacency encoding supports "
                f"at most 2**{PAIR_SHIFT} unique fingerprints per "
                "vocabulary (docs/attacks.md, 'Scaling COUNT to trace "
                "scale')"
            )
        self[fingerprint] = chunk_id
        self.fingerprints.append(fingerprint)
        return chunk_id

    def sort_ranks(self):
        """Each chunk id's rank in fingerprint-bytes sort order — the
        protocol the packed vocabulary's index serves from its lexsort.
        Not cached: the vocabulary may grow."""
        numpy = accel.numpy
        count = len(self.fingerprints)
        ranks = numpy.empty(count, dtype=numpy.intp)
        ranks[sorted(range(count), key=self.fingerprints.__getitem__)] = (
            numpy.arange(count, dtype=numpy.intp)
        )
        return ranks


class ChunkVocabulary:
    """Bidirectional fingerprint-bytes ↔ dense-int-id mapping, resident
    in RAM.

    One vocabulary may be shared by any number of counts (e.g. an attack
    may share one across both of its COUNT passes), so ids are
    stable for the lifetime of the vocabulary and new fingerprints always
    intern to ``len(vocabulary) - 1``.
    """

    __slots__ = ("_ids", "_fingerprints")

    def __init__(self) -> None:
        self._fingerprints: list[bytes] = []
        self._ids = _Interner(self._fingerprints)

    def __len__(self) -> int:
        return len(self._fingerprints)

    def __contains__(self, fingerprint: bytes) -> bool:
        return fingerprint in self._ids

    def intern(self, fingerprint: bytes) -> int:
        """The id for ``fingerprint``, assigning the next free one if new."""
        return self._ids[fingerprint]

    def intern_array(self, fingerprints: list[bytes]):
        """Intern a whole fingerprint sequence into an id array (the hot
        path: known fingerprints never leave the C dict lookup)."""
        numpy = accel.numpy
        return numpy.fromiter(
            map(self._ids.__getitem__, fingerprints),
            dtype=numpy.intp,
            count=len(fingerprints),
        )

    def id_of(self, fingerprint: bytes) -> int | None:
        """The id for ``fingerprint``, or ``None`` if never interned."""
        return self._ids.get(fingerprint)

    def fingerprint(self, chunk_id: int) -> bytes:
        """The fingerprint bytes behind ``chunk_id``."""
        return self._fingerprints[chunk_id]


# ---------------------------------------------------------------------------
# The one numpy COUNT kernel and the one merge


def count_shard(seg, start: int, lead: int, vocab_size: int):
    """Count one contiguous shard of an interned id stream.

    ``seg`` holds the shard's ids preceded by ``lead`` (0 or 1) elements
    of the stream before it, and ``start`` is the stream position of
    ``seg[lead]``. The lead element makes the boundary adjacency pair
    belong to exactly one shard; it is excluded from the frequency and
    first-position tables (it belongs to the previous shard).

    Returns ``(counted, paired)``: ``counted`` is ``(present ids, their
    counts, their first stream positions)``; ``paired`` is ``(unique
    packed pairs, their first positions, their counts)`` or ``None`` for
    a shard without an adjacent pair.
    """
    numpy = accel.numpy
    ids = seg[lead:].astype(numpy.intp, copy=False)
    stop = start + len(ids)
    counts = numpy.bincount(ids, minlength=vocab_size)
    # Reversed scatter: the earliest occurrence is written last and wins.
    first = numpy.zeros(vocab_size, dtype=numpy.int64)
    first[ids[::-1]] = numpy.arange(stop - 1, start - 1, -1, dtype=numpy.int64)
    present = numpy.flatnonzero(counts)
    paired = None
    if len(seg) > 1:
        wide = seg.astype(numpy.uint64)
        packed = (wide[:-1] << numpy.uint64(PAIR_SHIFT)) | wide[1:]
        pairs, first_index, pair_counts = numpy.unique(
            packed, return_index=True, return_counts=True
        )
        paired = (pairs, first_index + (start - lead), pair_counts)
    return (present, counts[present], first[present]), paired


def unpack_pairs(pairs):
    """Split packed adjacency pairs into ``(previous ids, current ids)``."""
    numpy = accel.numpy
    return (
        (pairs >> numpy.uint64(PAIR_SHIFT)).astype(numpy.intp),
        (pairs & numpy.uint64(_PAIR_MASK)).astype(numpy.intp),
    )


def merge_shards(vocabulary, shards, total: int, sizes) -> "ArrayStats":
    """Merge :func:`count_shard` results into one :class:`ArrayStats`.

    Counts add; first positions take the minimum (``total``, the stream
    length, is the sentinel above every real position). First positions
    are unique stream indices, so the ``argsort`` over them *is* the
    insertion sequence of a single-threaded COUNT — which is why the
    output is byte-identical for any sharding. ``sizes`` is the stream's
    chunk-size column; only the first-occurrence entries are read.
    """
    numpy = accel.numpy
    vocab_size = len(vocabulary)
    counts = numpy.zeros(vocab_size, dtype=numpy.int64)
    first = numpy.full(vocab_size, total, dtype=numpy.int64)
    pair_parts = []
    for (present, shard_counts, shard_first), paired in shards:
        counts[present] += shard_counts
        # ``present`` is duplicate-free within a shard, so fancy-index
        # assignment (not ``minimum.at``) is safe.
        first[present] = numpy.minimum(first[present], shard_first)
        if paired is not None:
            pair_parts.append(paired)
    present = numpy.flatnonzero(counts)
    argsort_started = time.perf_counter()
    ordered_ids = present[numpy.argsort(first[present], kind="stable")]
    obs.observe(
        "count.shard.phase_s", time.perf_counter() - argsort_started,
        phase="argsort",
    )
    if len(pair_parts) == 1:  # one shard's pairs are aggregated already
        pairs, pair_first, pair_counts = pair_parts[0]
    elif pair_parts:
        pairs, inverse = numpy.unique(
            numpy.concatenate([part[0] for part in pair_parts]),
            return_inverse=True,
        )
        pair_first = numpy.full(len(pairs), total, dtype=numpy.int64)
        numpy.minimum.at(
            pair_first, inverse, numpy.concatenate([part[1] for part in pair_parts])
        )
        pair_counts = numpy.zeros(len(pairs), dtype=numpy.int64)
        numpy.add.at(
            pair_counts, inverse, numpy.concatenate([part[2] for part in pair_parts])
        )
    else:
        pairs = numpy.empty(0, dtype=numpy.uint64)
        pair_first = pair_counts = numpy.empty(0, dtype=numpy.int64)
    pair_order = numpy.argsort(pair_first, kind="stable")
    return ArrayStats(
        vocabulary,
        ordered_ids,
        counts[ordered_ids],
        numpy.asarray(sizes)[first[ordered_ids]].astype(numpy.int64),
        pairs[pair_order],
        pair_counts[pair_order],
    )


# ---------------------------------------------------------------------------
# Array-backed stats: ChunkStats' mapping surface over the merged arrays


class _RankedView(Mapping):
    """Lazy ``fingerprint -> value`` mapping over one rank-aligned array
    of an :class:`ArrayStats` whose vocabulary is packed or mmapped: a
    probe resolves the fingerprint to its chunk id through the vocabulary
    index, then to its frequency rank; nothing per-fingerprint is
    materialized unless something iterates the view."""

    __slots__ = ("_stats", "_values")

    def __init__(self, stats: "ArrayStats", values):
        self._stats = stats
        self._values = values

    def get(self, fingerprint: bytes, default=None):
        rank = self._stats._rank_of(fingerprint)
        return default if rank < 0 else int(self._values[rank])

    def __getitem__(self, fingerprint: bytes) -> int:
        value = self.get(fingerprint)
        if value is None:
            raise KeyError(fingerprint)
        return value

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return map(
            self._stats.vocabulary._fingerprints.__getitem__,
            self._stats.ordered_ids,
        )

    def values(self):
        return map(int, self._values)

    def items(self):
        return zip(self, self.values())


class _ArrayNeighborView(Mapping):
    """Lazy ``fingerprint -> {neighbor fingerprint: count}`` mapping over
    one direction of the aggregated adjacency pairs.

    The pairs are stably sorted by owning id, so each id's neighbors sit
    in one contiguous segment (in first-occurrence order) addressed by
    per-id ``offsets``; a probe decodes only that slice of the parallel
    ``neighbors``/``counts`` arrays. The first-occurrence iteration
    order the reference COUNT would have is recovered from
    ``ordered_keys`` (owning ids in pair first-occurrence order) only
    when something iterates the view. (The attacks' BFS over two array
    stats never comes here: :meth:`ArrayStats.ranked_neighbors`.)
    """

    __slots__ = (
        "_vocabulary",
        "_offsets",
        "_neighbors",
        "_counts",
        "_ordered_keys",
        "_outer_keys",
    )

    def __init__(self, vocabulary, vocab_size: int, own_ids, neighbor_ids, counts):
        numpy = accel.numpy
        segments = numpy.argsort(own_ids, kind="stable")
        offsets = numpy.zeros(
            vocab_size + 1,
            dtype=numpy.uint32 if len(own_ids) < 1 << 32 else numpy.int64,
        )
        numpy.cumsum(
            numpy.bincount(own_ids, minlength=vocab_size),
            dtype=offsets.dtype,
            out=offsets[1:],
        )
        self._vocabulary = vocabulary
        self._offsets = offsets
        self._neighbors = neighbor_ids[segments]
        self._counts = counts[segments]
        self._ordered_keys = own_ids
        self._outer_keys: list[int] | None = None

    def get(
        self, fingerprint: bytes, default: dict[bytes, int] | None = None
    ) -> dict[bytes, int] | None:
        chunk_id = self._vocabulary._ids.get(fingerprint)
        # Ids past the offsets were interned after this COUNT.
        if chunk_id is None or chunk_id + 1 >= len(self._offsets):
            return default
        low, high = self._offsets[chunk_id : chunk_id + 2].tolist()
        if low == high:
            return default
        return dict(
            zip(
                map(
                    self._vocabulary._fingerprints.__getitem__,
                    self._neighbors[low:high].tolist(),
                ),
                self._counts[low:high].tolist(),
            )
        )

    def __getitem__(self, fingerprint: bytes) -> dict[bytes, int]:
        table = self.get(fingerprint)
        if table is None:
            raise KeyError(fingerprint)
        return table

    def _outer(self) -> list[int]:
        if self._outer_keys is None:
            self._outer_keys = list(dict.fromkeys(self._ordered_keys.tolist()))
        return self._outer_keys

    def __len__(self) -> int:
        return len(self._outer())

    def __iter__(self):
        return map(self._vocabulary._fingerprints.__getitem__, self._outer())


class ArrayStats:
    """COUNT output held in flat arrays, presenting the
    :class:`~repro.attacks.frequency.ChunkStats` mapping interface.

    ``ordered_ids``/``ordered_counts``/``first_sizes`` are aligned int64
    arrays in global first-occurrence order (the frequency table's
    insertion order): each present chunk id, its count, and the size of
    its first occurrence. ``ordered_pairs``/``ordered_pair_counts`` are
    the aggregated packed adjacency pairs in pair-first-occurrence order:
    :meth:`ranked_neighbors` ranks them once for an attack's BFS, the
    ``left``/``right`` views group them on first access and decode per
    probed fingerprint. Global frequency ranking goes through
    :meth:`top_ranked_ids`/:meth:`class_tops` — array sorts, decoded
    (:meth:`top_ranked`) only for the prefix asked for.

    ``frequencies``/``sizes`` depend on where the vocabulary lives: over
    a resident :class:`ChunkVocabulary` (Python ``bytes`` already in RAM)
    they materialize once as plain dicts; over a packed or mmapped
    vocabulary (:class:`~repro.datasets.columnar.PackedVocabulary`) they
    are lazy rank-indexed views, so nothing scales with the full table.
    """

    def __init__(
        self,
        vocabulary,
        ordered_ids,
        ordered_counts,
        first_sizes,
        ordered_pairs,
        ordered_pair_counts,
    ):
        self.vocabulary = vocabulary
        self.ordered_ids = ordered_ids
        self.ordered_counts = ordered_counts
        self.first_sizes = first_sizes
        self.ordered_pairs = ordered_pairs
        self.ordered_pair_counts = ordered_pair_counts
        # A shared resident vocabulary may grow after this COUNT; ids at
        # or above this bound were never counted here.
        self._vocab_size = len(vocabulary)
        self._tie_orders: dict[str, object] = {}
        self._tables: dict[str, dict[bytes, int]] = {}

    @property
    def unique_chunks(self) -> int:
        return len(self.ordered_ids)

    @cached_property
    def _rank_lookup(self):
        """Chunk id → frequency-table rank (-1 if absent)."""
        numpy = accel.numpy
        lookup = numpy.full(self._vocab_size, -1, dtype=numpy.int64)
        lookup[self.ordered_ids] = numpy.arange(
            len(self.ordered_ids), dtype=numpy.int64
        )
        return lookup

    def id_of(self, fingerprint: bytes) -> int | None:
        """The chunk id of a fingerprint this COUNT saw, else ``None``."""
        chunk_id = self.vocabulary._ids.get(fingerprint)
        # Ids at or past the bound were interned after this COUNT.
        if (
            chunk_id is None
            or chunk_id >= self._vocab_size
            or self._rank_lookup[chunk_id] < 0
        ):
            return None
        return chunk_id

    def _rank_of(self, fingerprint: bytes) -> int:
        """A fingerprint's frequency-table rank, -1 if it was not counted."""
        chunk_id = self.id_of(fingerprint)
        return -1 if chunk_id is None else int(self._rank_lookup[chunk_id])

    def _table(self, name: str, values):
        """The ``fingerprint -> value`` mapping over one rank-aligned
        array: a plain dict built once over a resident vocabulary, a lazy
        view made per access over a packed one — stored on the stats it
        points back to, the view would be a reference cycle, and a dropped
        COUNT's arrays would live on until the cyclic collector runs
        (which array code, allocating few objects, rarely triggers)."""
        if not isinstance(self.vocabulary, ChunkVocabulary):
            return _RankedView(self, values)
        if name not in self._tables:
            with _gc_paused():
                self._tables[name] = dict(
                    zip(
                        map(
                            self.vocabulary._fingerprints.__getitem__,
                            self.ordered_ids.tolist(),
                        ),
                        values.tolist(),
                    )
                )
        return self._tables[name]

    @property
    def frequencies(self):
        return self._table("frequencies", self.ordered_counts)

    @property
    def sizes(self):
        return self._table("sizes", self.first_sizes)

    @cached_property
    def _neighbors(self) -> tuple[_ArrayNeighborView, _ArrayNeighborView]:
        """The (left, right) views, grouped on first neighbor access."""
        previous_ids, current_ids = unpack_pairs(self.ordered_pairs)
        return tuple(
            _ArrayNeighborView(
                self.vocabulary,
                self._vocab_size,
                own_ids,
                neighbor_ids,
                self.ordered_pair_counts,
            )
            for own_ids, neighbor_ids in (
                (current_ids, previous_ids),
                (previous_ids, current_ids),
            )
        )

    @property
    def left(self) -> _ArrayNeighborView:
        return self._neighbors[0]

    @property
    def right(self) -> _ArrayNeighborView:
        return self._neighbors[1]

    # -- rank extraction ----------------------------------------------------

    def _ranked(self, tie_break: str, among=slice(None)):
        """The ordered-array positions ``among`` (ascending; all of them
        by default) by descending count under ``tie_break``, as indices
        into ``among``.

        ``insertion``: the arrays are already in first-occurrence order,
        so a stable sort on descending count reproduces
        :func:`~repro.attacks.frequency.rank_by_frequency` exactly.
        ``fingerprint``: ties order by fingerprint bytes, recovered from
        the vocabulary's lexicographic ranks without decoding.
        """
        numpy = accel.numpy
        counts = self.ordered_counts[among]
        if tie_break == INSERTION:
            return numpy.argsort(-counts, kind="stable")
        check_tie_breaks(tie_break)
        ranks = self.vocabulary._ids.sort_ranks()[self.ordered_ids[among]]
        return numpy.lexsort((ranks, -counts))

    def _tie_order(self, tie_break: str):
        """The full frequency ranking as index positions into the
        ordered arrays, under ``tie_break`` (cached)."""
        order = self._tie_orders.get(tie_break)
        if order is None:
            order = self._tie_orders[tie_break] = self._ranked(tie_break)
        return order

    def decode(self, ids) -> list[bytes]:
        """The fingerprints behind an array of chunk ids."""
        return list(map(self.vocabulary._fingerprints.__getitem__, ids.tolist()))

    def top_ranked_ids(self, limit: int | None = None, tie_break: str = INSERTION):
        """The ``limit`` top-frequency chunk ids under ``tie_break``.

        A short prefix does not sort the table: a partition finds the
        ``limit``-th largest count, and only the chunks at or above it —
        a subsequence, so still in first-occurrence order — are ranked,
        which is the prefix of the full ranking. The full order is used
        when something (:meth:`class_tops`) has built it already.
        """
        counts = self.ordered_counts
        if (
            limit is None
            or not 0 < limit < len(counts)
            or tie_break in self._tie_orders
        ):
            return self.ordered_ids[self._tie_order(tie_break)[:limit]]
        numpy = accel.numpy
        pivot = len(counts) - limit
        candidates = numpy.flatnonzero(
            counts >= numpy.partition(counts, pivot)[pivot]
        )
        return self.ordered_ids[
            candidates[self._ranked(tie_break, candidates)[:limit]]
        ]

    def top_ranked(
        self, limit: int | None = None, tie_break: str = INSERTION
    ) -> list[bytes]:
        """The ``limit`` top-frequency fingerprints, identical to
        ``rank_by_frequency(self.frequencies, tie_break)[:limit]`` but
        decoding only the returned prefix."""
        return self.decode(self.top_ranked_ids(limit, tie_break))

    def _block_classes(self, block_size: int, is_plaintext: bool):
        """The cipher-block count of each ordered chunk (CLASSIFY,
        Algorithm 3; see :func:`~repro.attacks.frequency.classify_by_blocks`)."""
        return self.first_sizes // block_size + int(is_plaintext)

    def class_tops(
        self,
        limit: int,
        block_size: int,
        is_plaintext: bool,
        tie_break: str = INSERTION,
    ) -> dict[int, list[int]]:
        """The top-``limit`` chunk ids of every cipher-block-count class.

        Because a stable sort of a subsequence equals the stably-sorted
        full sequence filtered to it, slicing the global ranking by class
        reproduces exactly the per-class ranking
        :func:`~repro.attacks.frequency.sized_freq_analysis` computes over
        materialized class buckets.
        """
        if not len(self.ordered_ids):
            return {}
        numpy = accel.numpy
        order = self._tie_order(tie_break)
        ranked_blocks = self._block_classes(block_size, is_plaintext)[order]
        class_order = numpy.argsort(ranked_blocks, kind="stable")
        sorted_blocks = ranked_blocks[class_order]
        boundaries = (
            numpy.flatnonzero(sorted_blocks[1:] != sorted_blocks[:-1]) + 1
        ).tolist()
        return {
            int(sorted_blocks[low]): self.ordered_ids[
                order[class_order[low : min(low + limit, high)]]
            ].tolist()
            for low, high in zip([0, *boundaries], [*boundaries, len(sorted_blocks)])
        }

    def ranked_neighbors(
        self, limit: int, tie_break: str, block_size: int | None, is_plaintext: bool
    ):
        """Every neighbor table a BFS can probe, ranked once.

        A table is one chunk's left or right neighbors — of one block
        class when ``block_size`` is given (Algorithm 3). One ``lexsort``
        over the aggregated pairs, taken once per direction, ranks every
        table by descending count with ``tie_break`` ties (``lexsort`` is
        stable and the pairs are in first-occurrence order, so
        ``insertion`` needs no key); rows ranked ``limit`` or later can
        never pair and are dropped. Returns ``(offsets, ids, keys)``: the
        rows of chunk ``c`` are ``offsets[c]:offsets[c + 1]``, left tables
        before right, classes ascending, ``ids`` the ranked neighbors and
        ``keys`` their ``(table, rank)`` packed into one int — equal keys
        on the two sides of an attack are what FREQ-ANALYSIS pairs.
        """
        numpy = accel.numpy
        if limit.bit_length() + _SIDE_SHIFT >= 63:
            raise ConfigurationError("v is too large for the packed (table, rank) keys")
        # Ids fit 32 bits (PAIR_SHIFT); the narrowing cast keeps the low half.
        previous_ids = (self.ordered_pairs >> numpy.uint64(PAIR_SHIFT)).astype(numpy.uint32)
        current_ids = self.ordered_pairs.astype(numpy.uint32)
        own = numpy.concatenate((current_ids, previous_ids))
        ids = numpy.concatenate((previous_ids, current_ids))
        # A row's table within its chunk: right over left, then the class.
        table = numpy.repeat(
            numpy.array((0, 1 << _SIDE_SHIFT)), len(self.ordered_pairs)
        )
        if block_size is not None:
            classes = numpy.zeros(self._vocab_size, dtype=numpy.int64)
            classes[self.ordered_ids] = self._block_classes(block_size, is_plaintext)
            table |= classes[ids]
        # lexsort's last key is the primary one.
        sort_keys = (numpy.tile(-self.ordered_pair_counts, 2), table, own)
        if tie_break == FINGERPRINT:
            sort_keys = (self.vocabulary._ids.sort_ranks()[ids], *sort_keys)
        order = numpy.lexsort(sort_keys)
        del sort_keys  # so that the unsorted columns go as they are replaced
        own, ids, table = own[order], ids[order], table[order]
        # Rank = a row's distance from the first row of its table.
        starts = numpy.ones(len(own), dtype=bool)
        starts[1:] = (own[1:] != own[:-1]) | (table[1:] != table[:-1])
        position = numpy.arange(len(own))
        rank = position - numpy.maximum.accumulate(position * starts)
        keep = rank < limit
        offsets = numpy.zeros(self._vocab_size + 1, dtype=numpy.int64)
        numpy.cumsum(
            numpy.bincount(own[keep], minlength=self._vocab_size), out=offsets[1:]
        )
        return offsets, ids[keep], ((table << limit.bit_length()) | rank)[keep]

    def compacted(self, vocabulary, first_sizes) -> "ArrayStats":
        """The same counted stream re-interned into ``vocabulary``, which
        holds exactly its distinct chunks in first-occurrence order: ids
        become frequency-table ranks ``0..U-1`` (what a fresh
        :func:`interned_count` of the stream would assign), so nothing
        downstream is sized by the vocabulary this COUNT ran over.
        """
        numpy = accel.numpy
        previous, current = (
            self._rank_lookup[ids].astype(numpy.uint64)
            for ids in unpack_pairs(self.ordered_pairs)
        )
        return ArrayStats(
            vocabulary,
            numpy.arange(len(self.ordered_ids), dtype=self.ordered_ids.dtype),
            self.ordered_counts,
            first_sizes,
            (previous << numpy.uint64(PAIR_SHIFT)) | current,
            self.ordered_pair_counts,
        )


# ---------------------------------------------------------------------------
# FREQ-ANALYSIS on chunk ids (the attacks' steps over two ArrayStats)


def seed_pairs(
    ciphertext_stats,
    plaintext_stats,
    limit: int | None,
    tie_break: str,
    block_size: int | None = None,
) -> list[tuple[int, int]]:
    """FREQ-ANALYSIS over two full frequency tables without materializing
    either, as ``(ciphertext id, plaintext id)`` pairs: equal ranks pair
    (:func:`~repro.attacks.frequency.freq_analysis` before decoding) —
    inside every block class when ``block_size`` is given (Algorithm 3's
    seeding, :func:`~repro.attacks.frequency.sized_freq_analysis`)."""
    if block_size is None:
        return list(
            zip(
                ciphertext_stats.top_ranked_ids(limit, tie_break).tolist(),
                plaintext_stats.top_ranked_ids(limit, tie_break).tolist(),
            )
        )
    cipher_tops = ciphertext_stats.class_tops(limit, block_size, False, tie_break)
    plain_tops = plaintext_stats.class_tops(limit, block_size, True, tie_break)
    pairs: list[tuple[int, int]] = []
    for block in sorted(cipher_tops):
        # zip stops at the shorter class, like freq_analysis' pair count.
        pairs.extend(zip(cipher_tops[block], plain_tops.get(block, ())))
    return pairs


def neighbor_pairs(
    cipher_ranked, plain_ranked, cipher_id: int, plain_id: int
) -> list[tuple[int, int]]:
    """FREQ-ANALYSIS restricted to the neighbors of an inferred pair (the
    BFS' inner step, left then right) over the two sides' ranked tables
    (:meth:`ArrayStats.ranked_neighbors`): two row slices joined on equal
    ``(table, rank)`` keys, in the ciphertext rows' order."""
    cipher_offsets, cipher_ids, cipher_keys = cipher_ranked
    plain_offsets, plain_ids, plain_keys = plain_ranked
    cipher_low, cipher_high = cipher_offsets[cipher_id : cipher_id + 2].tolist()
    plain_low, plain_high = plain_offsets[plain_id : plain_id + 2].tolist()
    partner = dict(
        zip(
            plain_keys[plain_low:plain_high].tolist(),
            plain_ids[plain_low:plain_high].tolist(),
        )
    )
    return [
        (chunk_id, partner[key])
        for chunk_id, key in zip(
            cipher_ids[cipher_low:cipher_high].tolist(),
            cipher_keys[cipher_low:cipher_high].tolist(),
        )
        if key in partner
    ]


def interned_count(backup: Backup, vocabulary: ChunkVocabulary | None = None):
    """The locality-based attacks' COUNT (Algorithm 2's COUNT) over an
    in-RAM backup, byte-identical to
    :func:`~repro.attacks.frequency.count_with_neighbors`.

    With numpy the backup is interned (through ``vocabulary`` when one is
    shared) and counted as one shard into an :class:`ArrayStats`;
    without it the reference COUNT itself runs — interning pays off
    through vectorized counting only.
    """
    if accel.numpy is None:
        return count_with_neighbors(backup)
    if vocabulary is None:
        vocabulary = ChunkVocabulary()
    with _gc_paused():
        ids = vocabulary.intern_array(backup.fingerprints)
        shard = count_shard(ids, 0, 0, len(vocabulary))
        return merge_shards(vocabulary, [shard], len(ids), backup.sizes)
