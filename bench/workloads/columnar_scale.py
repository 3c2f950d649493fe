"""columnar_scale: COUNT and one attack report from an mmapped columnar trace.

The trace is synthesized into a fresh directory every round (no cross-run
cache, so ``setup_s`` stays comparable).  COUNT from mmap, vocabulary
encryption and stats re-keying dominate; the locality seed mis-lands on
this synthetic stream, so the BFS that dominates ``trace_attack`` does
almost nothing here.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import time

from repro.analysis.benchmeta import run_isolated
from repro.attacks import sharded
from repro.attacks.interning import interned_count
from repro.datasets.columnar import ColumnarTrace, StreamConfig, synthesize_columnar

from bench import layers
from bench.harness import Context, Sample
from bench.workloads.common import remove_scratch, scratch_directory

CHUNKS = 400_000
COUNTS_PER_ITERATION = 5
PROBES = 64
# On about one seed in ten the attack's frequency seed pair happens to be
# consistent and the BFS then walks every unique chunk (16x the report
# time, almost all pairs wrong).  A queue bound of 1 keeps the walk a
# short chain either way, so the report is COUNT + vocabulary encryption +
# re-keying on every seed; trace_attack is the BFS workload.
QUEUE_BOUND = 1


def _rank_ready(view, jobs: int):
    stats = sharded.sharded_count(view, jobs=jobs)
    stats.frequencies
    stats.left
    stats.right
    return stats


def _digest(stats) -> str:
    """Order-sensitive digest of the head of the frequency table and of the
    neighbour tables of the top-ranked chunks (the full tables decode per
    key, far slower than the COUNT itself)."""
    digest = hashlib.sha256(str(stats.unique_chunks).encode())
    for fingerprint, frequency in itertools.islice(stats.frequencies.items(), 4096):
        digest.update(fingerprint + frequency.to_bytes(8, "big"))
    for fingerprint in stats.top_ranked(PROBES):
        for side in (stats.left, stats.right):
            for neighbour, count in (side.get(fingerprint) or {}).items():
                digest.update(neighbour + count.to_bytes(8, "big"))
    return digest.hexdigest()


def setup(seed: int, scale: float, trace: bool) -> Context:
    directory = scratch_directory("columnar")
    started = time.perf_counter()
    synthesize_columnar(
        directory, StreamConfig(chunks=max(20_000, round(CHUNKS * scale)), backups=2), seed=seed
    )
    generate_s = time.perf_counter() - started
    started = time.perf_counter()
    opened = ColumnarTrace.open(directory)
    open_s = time.perf_counter() - started
    view = opened.view(-1)
    started = time.perf_counter()
    stats = _rank_ready(view, jobs=1)  # the warm COUNT
    count_s = time.perf_counter() - started
    context = Context(
        inputs={"directory": directory, "trace": opened, "report": None},
        setup_counts={
            "datasets.generate_s": generate_s,
            "datasets.columnar_open_s": open_s,
            "datasets.trace_bytes": sum(
                entry.stat().st_size for entry in os.scandir(directory)
            ),
        },
    )
    jobs = min(os.cpu_count() or 1, 4)
    if jobs > 1:
        started = time.perf_counter()
        parallel = _rank_ready(view, jobs=jobs)
        parallel_s = time.perf_counter() - started
        context.check(
            _digest(parallel) == _digest(stats), f"COUNT differs between jobs=1 and jobs={jobs}"
        )
        # One cold sample each: jobs=N pays a process pool on every call.
        context.setup_counts["attacks.count_jobsN_s"] = parallel_s
        context.setup_counts["attacks.count_jobsN_speedup"] = count_s / parallel_s
    # In a forked child: materializing the backup would otherwise set this
    # process' peak RSS, which is the workload's own metric.
    matches, _ = run_isolated(_matches_reference, view, stats)
    context.check(
        matches, "sharded COUNT differs from interned_count on the top-ranked chunks"
    )
    return context


def _matches_reference(view, stats) -> bool:
    reference = interned_count(view.to_backup())
    return all(
        stats.frequencies[fingerprint] == reference.frequencies[fingerprint]
        and dict(stats.left.get(fingerprint) or {})
        == dict(reference.left.get(fingerprint) or {})
        and dict(stats.right.get(fingerprint) or {})
        == dict(reference.right.get(fingerprint) or {})
        for fingerprint in stats.top_ranked(PROBES)
    )


def iterate(context: Context, tracer) -> Sample:
    inputs = context.inputs
    opened = inputs["trace"]
    view = opened.view(-1)
    with tracer.installed(layers.SITES):
        count_walls = []
        for _ in range(COUNTS_PER_ITERATION):
            started = time.perf_counter()
            stats = _rank_ready(view, jobs=1)
            count_walls.append(time.perf_counter() - started)
        started = time.perf_counter()
        with tracer.span("attacks.locality"), tracer.span("attacks.evaluate"):
            report = sharded.columnar_attack_report(opened, "locality", jobs=1, w=QUEUE_BOUND)
        readout_s = time.perf_counter() - started
    sample = Sample(
        ingest_s=sum(count_walls),
        ingest_chunks=view.num_chunks * COUNTS_PER_ITERATION,
        readout_s=readout_s,
        # The report counts the auxiliary and the target backup.
        readout_chunks=opened.num_chunks,
        # Unique chunks per chunk of the last backup: what a deduplicating
        # store would keep of it.
        stored_ratio=stats.unique_chunks / view.num_chunks,
        detail={
            "report_s": readout_s,
            "count_mchunks_per_s": view.num_chunks / sorted(count_walls)[len(count_walls) // 2] / 1e6,
        },
        counts={"attacks.correct_pairs": report.correct_pairs},
    )
    if inputs["report"] is None:
        inputs["report"] = repr(report)
    sample.check(
        repr(report) == inputs["report"], "report differs from the round's first evaluation"
    )
    if tracer.enabled:
        sample.spans = {"main": tracer.collect()}
        sample.work = tracer.work
    return sample


def teardown(context: Context) -> None:
    context.inputs["trace"].close()
    remove_scratch(context.inputs["directory"])
