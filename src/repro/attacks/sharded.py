"""Sharded parallel COUNT over columnar traces (trace-scale attacks).

:func:`sharded_count` runs the attacks' COUNT pass over one backup of a
memory-mapped :class:`~repro.datasets.columnar.ColumnarTrace` — the
*columnar shards* row of the table in :mod:`repro.attacks.frequency`: the
uint32 id column is split into contiguous shards, each shard is read (one
*lead* element before its range, so the boundary adjacency pair belongs
to exactly one shard) and counted in a worker process by
:func:`~repro.attacks.interning.count_shard`, and
:func:`~repro.attacks.interning.merge_shards` restores the insertion
order of a single-threaded COUNT from the global first-occurrence
positions — which is why the output is byte-identical to
:func:`~repro.attacks.interning.interned_count` at any ``--jobs`` (pinned
by the differential tests). The result is an
:class:`~repro.attacks.interning.ArrayStats` over the trace's mmapped
vocabulary, so nothing scales with the full frequency table. Without
numpy the workers only read their shards and the reference loop
(:func:`~repro.attacks.frequency.accumulate_counts`) counts them in
stream order into a plain :class:`~repro.attacks.frequency.ChunkStats`.

:func:`columnar_attack_report` builds the source the one driver
(:func:`repro.attacks.evaluation.evaluate`) runs and scores, and what it
builds is what the paper's adversary holds: the ciphertext of *one*
target backup. Under a deterministic per-chunk encryption the target's
ciphertext stream is its plaintext stream mapped through a bijection, so
no second COUNT runs: the target's distinct chunks — not the trace's
vocabulary — are encrypted once each (:func:`encrypt_vocabulary`) into a
compact ciphertext id space, ids ``0..U-1`` in first-occurrence order
exactly as interning the ciphertext stream would assign them, and the
counted arrays are re-interned into it. Every ciphertext-side array is
therefore sized by the target backup, the truncation-collision rule is
the pipeline's per-backup one, the known-plaintext draw maps to leaked
pairs without building the fingerprint set, and the ground truth is one
id indirection (ciphertext id → the target's ``c``-th distinct plaintext
id).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from multiprocessing import get_context

from repro import faults, obs
from repro.faults import WorkerCrashError

from repro.attacks.evaluation import (
    AttackSource,
    InferenceReport,
    build_attack,
    evaluate,
)
from repro.attacks.frequency import ChunkStats, accumulate_counts
from repro.attacks.interning import (
    check_vocabulary_capacity,
    count_shard,
    merge_shards,
)
from repro.common import accel
from repro.common.errors import ConfigurationError
from repro.datasets.columnar import (
    IDS_FILE,
    ColumnarBackupView,
    ColumnarTrace,
    PackedVocabulary,
    u32_array,
)
from repro.defenses.pipeline import (
    MLE_PREFIX,
    DefenseScheme,
    cipher_fingerprints,
    padded_size,
)

__all__ = [
    "columnar_attack_report",
    "encrypt_vocabulary",
    "sharded_count",
]


# ---------------------------------------------------------------------------
# Shard workers (top-level so they pickle under multiprocessing)


def _shard_ranges(total: int, jobs: int) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into ``jobs`` contiguous near-equal ranges."""
    jobs = max(1, min(jobs, total))
    step, extra = divmod(total, jobs)
    ranges = []
    start = 0
    for index in range(jobs):
        stop = start + step + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _count_shard(task):
    """Read and count one contiguous shard of a backup's id column.

    ``task`` is ``(ids_path, span_start, start, stop, lead, vocab_size,
    shard)`` with ``start``/``stop`` view-relative. A shard with
    ``start > 0`` reads one *lead* element before its range (see
    :func:`~repro.attacks.interning.count_shard`). Without numpy the
    payload is the shard's raw id bytes: the parent counts them in
    stream order.

    Returns ``(payload, telemetry)``: the count tables plus, when
    observability is on, ``(metrics snapshot, span records)`` recorded
    into **fresh** worker-local structures (forked workers inherit the
    parent's globals; recording there would double-count after the
    parent merges the shipped snapshot).
    """
    ids_path, span_start, start, stop, lead, vocab_size, shard = task
    numpy = accel.numpy
    registry = obs.worker_registry()
    ring = obs.SpanRing() if obs.tracing_enabled() else None
    span = ring.span if ring is not None else _null_span
    with span("count.shard", shard=shard):
        read_started = time.perf_counter()
        with open(ids_path, "rb") as handle:
            handle.seek((span_start + start - lead) * 4)
            raw = handle.read((stop - start + lead) * 4)
        count_started = time.perf_counter()
        if numpy is not None:
            payload = count_shard(
                numpy.frombuffer(raw, dtype="<u4"), start, lead, vocab_size
            )
        else:
            payload = raw[lead * 4 :]
    if registry is not None:
        finished = time.perf_counter()
        registry.counter("count.chunks", stop - start)
        registry.observe(
            "count.shard.phase_s", count_started - read_started, phase="read"
        )
        registry.observe(
            "count.shard.phase_s", finished - count_started, phase="bincount"
        )
        from repro.analysis.benchmeta import peak_rss_bytes

        rss = peak_rss_bytes()
        if rss is not None:
            registry.gauge_max("count.shard.peak_rss_bytes", rss, stable=False)
    telemetry = None
    if registry is not None or ring is not None:
        telemetry = (
            registry.snapshot() if registry is not None else None,
            ring.records() if ring is not None else None,
        )
    return payload, telemetry


def _null_span(name, **tags):
    return obs.NULL_SPAN


# How many times a crashed shard is re-submitted before the count gives up.
_WORKER_RETRIES = 3


def _count_shard_guarded(task, crash=None):
    """:func:`_count_shard` behind a parent-decided crash switch.

    The ``count.worker`` fault site is consulted in the *parent* at
    submission time and the decision shipped here as ``crash`` — forked
    workers inherit the injector's counters, so evaluating rules in the
    children would let per-rule ``times`` caps diverge across forks.
    ``"exit"`` dies the way a real segfault/OOM-kill does (the pool
    breaks); any other mode raises the detectable
    :class:`~repro.faults.WorkerCrashError`.
    """
    if crash is not None:
        if crash == "exit":
            os._exit(3)
        raise WorkerCrashError(f"injected worker crash (shard {task[-1]})")
    return _count_shard(task)


def _run_inline(task):
    """One shard in-process, with the same crash/retry semantics.

    There is no worker process to sacrifice here, so every crash mode
    degrades to the detectable error — the retry accounting stays
    identical between the inline and pooled paths.
    """
    for attempt in range(_WORKER_RETRIES + 1):
        action = faults.fire("count.worker", shard=task[-1])
        if action is None:
            return _count_shard(task)
        if attempt == _WORKER_RETRIES:
            raise WorkerCrashError(
                f"shard {task[-1]} crashed {attempt + 1} times; giving up"
            )
        obs.counter("faults.retries", site="count.worker")
    raise AssertionError("unreachable")


def _run_tasks(tasks):
    """Run every count task, surviving injected/real worker crashes.

    Tasks fan out over a fork-context process pool; a shard whose
    worker raises :class:`~repro.faults.WorkerCrashError` or dies hard
    (``BrokenProcessPool``) is re-submitted up to ``_WORKER_RETRIES``
    times, rebuilding the executor when a hard death poisoned it.
    Results are returned **in task order** regardless of completion or
    retry order, so the downstream merge stays byte-identical to a
    fault-free run.
    """
    try:
        context = get_context("fork")
    except ValueError:  # pragma: no cover - no fork on this platform
        context = None
    if len(tasks) == 1 or context is None:
        return [_run_inline(task) for task in tasks]
    results = [None] * len(tasks)
    attempts = [0] * len(tasks)
    pending = list(range(len(tasks)))
    executor = ProcessPoolExecutor(max_workers=len(tasks), mp_context=context)
    try:
        while pending:
            submissions = []
            for index in pending:
                task = tasks[index]
                action = faults.fire("count.worker", shard=task[-1])
                crash = (
                    None if action is None else str(action.get("mode", "raise"))
                )
                submissions.append(
                    (executor.submit(_count_shard_guarded, task, crash), index)
                )
            pending = []
            broken = False
            for future, index in submissions:
                try:
                    results[index] = future.result()
                except (WorkerCrashError, BrokenProcessPool) as error:
                    # A hard exit breaks the whole pool: innocent shards
                    # in this round fail alongside the crasher and are
                    # retried with it.
                    broken = broken or isinstance(error, BrokenProcessPool)
                    attempts[index] += 1
                    if attempts[index] > _WORKER_RETRIES:
                        raise WorkerCrashError(
                            f"shard {tasks[index][-1]} crashed "
                            f"{attempts[index]} times; giving up"
                        ) from error
                    obs.counter("faults.retries", site="count.worker")
                    pending.append(index)
            if broken and pending:
                executor.shutdown(wait=False, cancel_futures=True)
                executor = ProcessPoolExecutor(
                    max_workers=len(tasks), mp_context=context
                )
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    return results


# ---------------------------------------------------------------------------
# The sharded COUNT itself


def sharded_count(view: ColumnarBackupView, jobs: int = 1):
    """COUNT one columnar backup with ``jobs`` parallel shard workers.

    Byte-identical to :func:`~repro.attacks.interning.interned_count`
    over the materialized backup at any ``jobs``. With numpy, returns an
    :class:`~repro.attacks.interning.ArrayStats` over the trace's mmapped
    vocabulary; without it a plain
    :class:`~repro.attacks.frequency.ChunkStats` (correct, but RAM-bound
    — trace scale assumes the accelerated path).
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    trace = view.trace
    check_vocabulary_capacity(trace.num_unique, "columnar trace vocabulary")
    total = view.num_chunks
    ids_path = os.fspath(trace.directory / IDS_FILE)
    ranges = _shard_ranges(total, jobs)
    tasks = [
        (ids_path, view.start, start, stop, 1 if start else 0,
         trace.num_unique, shard)
        for shard, (start, stop) in enumerate(ranges)
    ]
    obs.counter("count.backups")
    obs.gauge_max("count.shards", len(tasks), stable=False)
    results = []
    for payload, telemetry in _run_tasks(tasks):
        if telemetry is not None:
            snapshot, spans = telemetry
            obs.merge_snapshot(snapshot)
            obs.merge_spans(spans)
        results.append(payload)
    merge_started = time.perf_counter()
    with obs.span("count.merge", label=view.label, shards=len(tasks)):
        if accel.numpy is not None:
            merged = merge_shards(
                trace.vocabulary, results, total, view.sizes_array()
            )
        else:
            merged = ChunkStats()
            fingerprints = trace.vocabulary._fingerprints
            sizes = view.sizes()
            previous = None
            for (start, stop), raw in zip(ranges, results):
                previous = accumulate_counts(
                    merged,
                    list(map(fingerprints.__getitem__, u32_array(raw))),
                    sizes[start:stop],
                    previous,
                )
    obs.observe(
        "count.shard.phase_s", time.perf_counter() - merge_started,
        phase="merge",
    )
    return merged


# ---------------------------------------------------------------------------
# MLE ciphertext side: the target's distinct chunks, encrypted once each

_ENCRYPT_BLOCK = 4096


def encrypt_vocabulary(trace: ColumnarTrace, target_stats) -> PackedVocabulary:
    """The vocabulary an adversary interning the target's ciphertext
    stream would hold: the distinct chunks ``target_stats`` counted, in
    first-occurrence order, under the MLE pipeline's deterministic
    per-chunk encryption (same truncated-hash fingerprints as
    :class:`repro.defenses.pipeline.DefensePipeline`).

    Deterministic encryption maps each plaintext fingerprint to one
    ciphertext fingerprint, so encrypting the distinct chunks once stands
    in for encrypting the whole stream. A truncation collision among them
    would break that bijection, so it is rejected exactly like the
    pipeline rejects it — per backup: chunks the target does not hold are
    neither hashed nor compared.
    """
    width = trace.fingerprint_bytes
    numpy = accel.numpy
    if numpy is not None:
        ids = target_stats.ordered_ids
        records = numpy.frombuffer(
            trace.vocabulary._fingerprints._buffer,
            dtype=f"V{width}",
            count=trace.num_unique,
        )
        # One gather and one block of digests at a time: the transient
        # objects stay in cache and off the peak RSS. Distinct already,
        # so no memo (a ``CipherMap`` would hold a second copy).
        plain_blocks = (
            records[ids[start : start + _ENCRYPT_BLOCK]].tolist()
            for start in range(0, len(ids), _ENCRYPT_BLOCK)
        )
    else:  # RAM-bound anyway: the frequency table's keys, as one block
        plain_blocks = (target_stats.frequencies,)
    packed = b"".join(
        b"".join(cipher_fingerprints(MLE_PREFIX, block, width))
        for block in plain_blocks
    )
    vocabulary = PackedVocabulary(packed, width, target_stats.unique_chunks)
    if vocabulary._ids.has_duplicates():
        raise ConfigurationError(
            "ciphertext fingerprint collision; increase fingerprint_bytes"
        )
    return vocabulary


class _VocabTruth:
    """Lazy ciphertext → plaintext ground truth: ciphertext id ``c`` is
    the target's ``c``-th distinct chunk, plaintext id ``plain_ids[c]``."""

    __slots__ = ("_cipher", "_plain", "_plain_ids")

    def __init__(self, cipher_vocabulary, plain_vocabulary, plain_ids):
        self._cipher = cipher_vocabulary
        self._plain = plain_vocabulary
        self._plain_ids = plain_ids

    def get(self, cipher_fingerprint: bytes, default=None):
        cipher_id = self._cipher._ids.get(cipher_fingerprint)
        if cipher_id is None:
            return default
        return self._plain._fingerprints[self._plain_ids[cipher_id]]


# ---------------------------------------------------------------------------
# The columnar source of the evaluation driver


def _ciphertext_side(plain_stats, plain_vocabulary, cipher_vocabulary):
    """The MLE ciphertext-side stats and ground truth, derived from the
    target's plaintext COUNT.

    The ciphertext stream is the plaintext stream mapped through the
    encryption bijection: counts, first positions and adjacency are
    identical; only the fingerprints and the sizes (padded to the
    pipeline's cipher block, :func:`repro.defenses.pipeline.padded_size`)
    change. No second COUNT pass runs: the array stats are re-interned
    into the ciphertext vocabulary
    (:meth:`~repro.attacks.interning.ArrayStats.compacted`), the dict
    stats of the numpy-less path are re-keyed.
    """
    if accel.numpy is not None:
        return (
            plain_stats.compacted(
                cipher_vocabulary, padded_size(plain_stats.first_sizes)
            ),
            _VocabTruth(cipher_vocabulary, plain_vocabulary, plain_stats.ordered_ids),
        )
    cipher_of = dict(zip(plain_stats.frequencies, cipher_vocabulary._fingerprints))

    def rekey(table: dict, convert=lambda value: value) -> dict:
        return {cipher_of[fp]: convert(value) for fp, value in table.items()}

    stats = ChunkStats(
        rekey(plain_stats.frequencies),
        rekey(plain_stats.left, rekey),
        rekey(plain_stats.right, rekey),
        rekey(plain_stats.sizes, padded_size),
    )
    return stats, {cipher_fp: fp for fp, cipher_fp in cipher_of.items()}


def _pairs_at(ciphertext_stats, truth, positions) -> dict[bytes, bytes]:
    """The leaked pairs at ``positions`` of the sorted unique ciphertext
    fingerprints (:func:`~repro.attacks.evaluation.leaked_positions`),
    found through the ciphertext vocabulary's lexicographic ranks — the
    fingerprint list itself is never built."""
    if not positions:
        return {}
    numpy = accel.numpy
    if numpy is not None:
        # Every id of the compact vocabulary is in the target.
        by_fingerprint = numpy.argsort(ciphertext_stats.vocabulary._ids.sort_ranks())
        sampled = ciphertext_stats.decode(by_fingerprint[positions])
    else:
        unique = sorted(ciphertext_stats.frequencies)
        sampled = [unique[position] for position in positions]
    return {cipher_fp: truth.get(cipher_fp) for cipher_fp in sampled}


def columnar_attack_report(
    trace: ColumnarTrace | str | os.PathLike,
    attack: str = "locality",
    *,
    auxiliary: int = -2,
    target: int = -1,
    leakage_rate: float = 0.0,
    seed: int = 0,
    u: int = 1,
    v: int = 15,
    w: int = 200_000,
    jobs: int = 1,
    block_size: int = 16,
) -> InferenceReport:
    """Run one locality/advanced attack end-to-end over an on-disk
    columnar trace under the MLE scheme, without materializing the trace
    (or any full frequency table) in RAM.

    Equivalent to encrypting the series with the MLE
    :class:`~repro.defenses.pipeline.DefensePipeline` and scoring through
    :class:`~repro.attacks.evaluation.AttackEvaluator` — the differential
    tests pin report equality at small scales — but the source it hands
    :func:`~repro.attacks.evaluation.evaluate` is counted already: both
    COUNT passes run sharded and the ciphertext side is derived from the
    target's, its distinct chunks encrypted once each.
    """
    built = build_attack(attack, u, v, w, block_size)
    if not hasattr(built, "run_counted"):
        raise ConfigurationError(
            f"unknown columnar attack {attack!r}; the sharded COUNT drives the "
            "counted-stats attacks ('locality', 'advanced')"
        )
    opened = None
    if not isinstance(trace, ColumnarTrace):
        opened = trace = ColumnarTrace.open(trace)
    try:
        auxiliary_view = trace.view(auxiliary)
        target_view = trace.view(target)
        target_plain_stats = sharded_count(target_view, jobs=jobs)
        auxiliary_stats = sharded_count(auxiliary_view, jobs=jobs)
        ciphertext_stats, truth = _ciphertext_side(
            target_plain_stats,
            trace.vocabulary,
            encrypt_vocabulary(trace, target_plain_stats),
        )
        source = AttackSource(
            scheme=DefenseScheme.MLE.value,
            auxiliary_label=auxiliary_view.label,
            target_label=target_view.label,
            observed=ciphertext_stats,
            auxiliary=auxiliary_stats,
            truth=truth,
            unique_ciphertext_chunks=ciphertext_stats.unique_chunks,
            pairs_at=partial(_pairs_at, ciphertext_stats, truth),
        )
        return evaluate(built, source, leakage_rate, seed)
    finally:
        if opened is not None:
            opened.close()
