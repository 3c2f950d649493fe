"""Runs one workload: rounds in forked children, iterations inside a round.

A *round* is one forked child that imports the library, sets the workload
up from the seed (input generation, warm-up, the correctness gates that
need no timing) and then repeats the timed *iteration* on those inputs
until its share of ``--seconds`` is spent.  Each round starts cold, so a
run's ``setup_s`` is the median of several full set-ups, and every
iteration of a run does identical work, so its throughputs are medians.

Host-speed normalisation.  On the shared sandbox the interpreter's speed
drifts by up to 1.8x over minutes (noisy neighbours; C-only code such as
``hashlib`` is unaffected), which no in-run statistic can remove.  A
fixed pure-Python calibration kernel therefore runs before and after
every set-up and iteration, and every *time* behind an end-to-end metric
is scaled by ``CALIBRATION_REF_MS / calibration``: the metric reads what
the run would have taken on a host that executes the kernel in
``CALIBRATION_REF_MS``.  The calibration itself is reported
(``host.calibration_ms``), the unscaled values are printed beside the
scaled ones (the ``detail`` line), and per-layer times are never scaled.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import multiprocessing
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from bench import layers, spans

ROUNDS = 4
MIN_ITERATIONS = 2  # per round: the second must repeat the first's outputs
SEED_STRIDE = 1000
CALIBRATION_REF_MS = 12.0
# Asserted by the traced pass (README "Traced pass").
MAX_UNATTRIBUTED_SHARE = 0.15
MAX_OVERHEAD_RATIO = 1.10
BATCH_WORKLOADS = ("content_backup", "trace_attack", "columnar_scale")

WORKLOADS = {
    "content_backup": ("bench.workloads.content_backup", {}),
    "serve_sessions": ("bench.workloads.serve", {"bulk": False}),
    "serve_bulk": ("bench.workloads.serve", {"bulk": True}),
    "trace_attack": ("bench.workloads.trace_attack", {}),
    "columnar_scale": ("bench.workloads.columnar_scale", {}),
}

# (metric, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("ingest_chunks_per_s", "chunks/s", "higher"),
    ("readout_chunks_per_s", "chunks/s", "higher"),
]


@dataclass
class Context:
    """What a workload's ``setup`` hands to its ``iterate``."""

    inputs: dict
    # Set-up's own measurements, keyed by per-layer metric name.
    setup_counts: dict = field(default_factory=dict)
    setup_attempted: int = 0
    setup_failures: list[str] = field(default_factory=list)

    def check(self, passed: bool, message: str) -> None:
        self.setup_attempted += 1
        if not passed:
            self.setup_failures.append(message)


@dataclass
class Sample:
    """What one iteration measured (times are raw wall seconds)."""

    ingest_s: float
    ingest_chunks: int
    readout_s: float
    readout_chunks: int
    stored_ratio: float
    # Wall of the timed phases when they overlap (serve_*: uploads and
    # restores share one closed loop); otherwise ingest_s + readout_s.
    timed_s: float | None = None
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    # Workload-specific numbers for the ``detail`` line (raw, unscaled).
    detail: dict = field(default_factory=dict)
    # Per-layer values read from public attributes and the workload's own
    # timers, keyed by per-layer metric name.
    counts: dict = field(default_factory=dict)
    # Wall the main process' threads spent inside the timed phases: the
    # base of trace.unattributed_s (two client threads on serve_*).
    busy_s: float | None = None
    rss_kib: int | None = None
    # Traced iterations only: spans by process and the merged work counts.
    spans: dict[str, list] = field(default_factory=dict)
    work: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.timed_s is None:
            self.timed_s = self.ingest_s + self.readout_s

    def check(self, passed: bool, message: str) -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(message)


class NullTracer:
    """Stands in for :class:`bench.spans.Tracer` on untraced iterations."""

    enabled = False
    _context = contextlib.nullcontext()

    def span(self, name):
        return self._context

    def set_request(self, request):
        pass

    def installed(self, sites):
        return self._context


def calibrate() -> float:
    """Milliseconds the fixed calibration kernel takes right now (median of
    five: the work it stands for runs for a second or more, so it meets
    the host's average speed, stalls included, not its best moment)."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        table: dict[int, int] = {}
        total = 0
        for index in range(40_000):
            table[index * 7919 % 100_003] = index
            total += index * index
        table[-1] = total
        pieces = [bytes((index & 255,)) * 8 for index in range(20_000)]
        len(b"".join(pieces))
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3


def percentile(ordered: list[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


# -- one round (runs in the forked child) ---------------------------------


def _round_main(connection, *args) -> None:
    try:
        connection.send(("ok", _round(*args)))
    except BaseException:  # noqa: BLE001 - the parent reports it and exits non-zero
        connection.send(("error", traceback.format_exc()))
    finally:
        connection.close()


def _round(name, seed, round_index, budget, trace, scale, trace_out) -> dict:
    module_name, options = WORKLOADS[name]
    calibration = calibrate()
    started = time.perf_counter()
    workload = importlib.import_module(module_name)
    # Each round draws its own inputs from the seed, so a run's medians are
    # taken over several independent input structures.
    context = workload.setup(seed * SEED_STRIDE + round_index, scale, trace=trace, **options)
    setup_raw_s = time.perf_counter() - started
    setup_calibration_ms = (calibration + calibrate()) / 2
    previous = calibrate()
    rows: list[dict] = []
    try:
        spent = 0.0
        while spent < budget or len(rows) < MIN_ITERATIONS:
            traced = trace and len(rows) % 2 == 1
            tracer = spans.Tracer() if traced else NullTracer()
            sample = workload.iterate(context, tracer)
            calibration = calibrate()
            spent += sample.timed_s
            if traced and trace_out:
                for process, recorded in sample.spans.items():
                    spans.write_jsonl(
                        trace_out,
                        recorded,
                        workload=name,
                        round=round_index,
                        iteration=len(rows),
                        process=process,
                    )
            if sample.rss_kib is None and not rows:
                # The high-water mark creeps up with the number of
                # iterations; after the first it is set-up plus one pass.
                sample.rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rows.append(_row(sample, (previous + calibration) / 2, traced))
            previous = calibration
    finally:
        workload.teardown(context)
    return {
        "setup_raw_s": setup_raw_s,
        "setup_calibration_ms": setup_calibration_ms,
        "setup_counts": context.setup_counts,
        "setup_attempted": context.setup_attempted,
        "setup_failures": context.setup_failures,
        "rows": rows,
    }


def _row(sample: Sample, calibration_ms: float, traced: bool) -> dict:
    row = {
        "traced": traced,
        "calibration_ms": calibration_ms,
        "ingest_s": sample.ingest_s,
        "ingest_chunks": sample.ingest_chunks,
        "readout_s": sample.readout_s,
        "readout_chunks": sample.readout_chunks,
        "timed_s": sample.timed_s,
        "stored_ratio": sample.stored_ratio,
        "attempted": sample.attempted,
        "failures": sample.failures,
        "detail": sample.detail,
        "rss_kib": sample.rss_kib,
    }
    if traced:
        tables = {
            process: spans.aggregate(recorded)
            for process, recorded in sample.spans.items()
        }
        merged: dict[str, dict[str, float]] = {}
        for table in tables.values():
            for span_name, values in table.items():
                into = merged.setdefault(span_name, dict.fromkeys(values, 0))
                for key, value in values.items():
                    into[key] += value
        wall_s = sample.timed_s
        busy_s = wall_s if sample.busy_s is None else sample.busy_s
        attributed_s = sum(values["top_s"] for values in tables["main"].values())
        counts = dict(sample.counts)
        counts["trace.wall_s"] = wall_s
        counts["trace.unattributed_s"] = max(0.0, busy_s - attributed_s)
        counts["host.calibration_ms"] = calibration_ms
        counts["storage.stored_ratio"] = sample.stored_ratio
        row["per_layer"] = layers.derive(merged, sample.work, counts)
        row["busy_s"] = busy_s
    return row


# -- one run (the parent) -------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    rounds: int = ROUNDS,
    trace_out: str | None = None,
) -> dict:
    """Run ``name`` for about ``seconds`` of timed work and summarise it.

    Returns ``{"correct", "attempted", "failed", "metrics", "detail",
    "failures"}``; ``metrics`` holds the end-to-end metrics (``trace``
    off) or the per-layer metrics (``trace`` on).
    """
    context = multiprocessing.get_context("fork")
    results = []
    for round_index in range(rounds):
        ours, theirs = context.Pipe(duplex=False)
        child = context.Process(
            target=_round_main,
            args=(theirs, name, seed, round_index, seconds / rounds, trace, scale, trace_out),
        )
        child.start()
        theirs.close()
        try:
            status, payload = ours.recv()
        except EOFError:
            status, payload = "error", "round child died without a result"
        finally:
            ours.close()
            child.join()
        if status != "ok":
            sys.stderr.write(f"{name}: round {round_index} failed\n{payload}\n")
            raise SystemExit(1)
        results.append(payload)
    return _summarise(name, results, trace)


def _scaled(seconds: float, calibration_ms: float) -> float:
    return seconds * CALIBRATION_REF_MS / calibration_ms


def _summarise(name: str, results: list[dict], trace: bool) -> dict:
    rows = [row for result in results for row in result["rows"]]
    untraced = [row for row in rows if not row["traced"]]
    traced = [row for row in rows if row["traced"]]
    attempted = sum(result["setup_attempted"] for result in results)
    attempted += sum(row["attempted"] for row in rows)
    failures = [message for result in results for message in result["setup_failures"]]
    failures += [message for row in rows for message in row["failures"]]
    median = statistics.median

    def rate(kind: str, row: dict, scaled: bool = True) -> float:
        seconds = row[f"{kind}_s"]
        if scaled:
            seconds = _scaled(seconds, row["calibration_ms"])
        return row[f"{kind}_chunks"] / seconds

    peaks = [result["rows"][0]["rss_kib"] / 1024 for result in results]
    end_to_end = {
        "setup_s": median(
            _scaled(result["setup_raw_s"], result["setup_calibration_ms"])
            for result in results
        ),
        "peak_rss_mib": median(peaks),
        "ingest_chunks_per_s": median(rate("ingest", row) for row in untraced),
        "readout_chunks_per_s": median(rate("readout", row) for row in untraced),
    }
    detail = {
        "iterations": len(untraced),
        "calibration_ms": median(row["calibration_ms"] for row in rows),
        "raw_setup_s": median(result["setup_raw_s"] for result in results),
        "raw_ingest_chunks_per_s": median(rate("ingest", row, False) for row in untraced),
        "raw_readout_chunks_per_s": median(rate("readout", row, False) for row in untraced),
        "stored_ratio": median(row["stored_ratio"] for row in untraced),
    }
    detail.update(_detail(untraced))

    if not trace:
        metrics = {
            metric: {"value": end_to_end[metric], "unit": unit}
            for metric, unit, _ in END_TO_END
        }
    else:
        values = {
            metric: median(row["per_layer"][metric] for row in traced)
            for metric, _, _ in layers.PER_LAYER
        }
        for metric in values:
            from_setup = [
                result["setup_counts"][metric]
                for result in results
                if metric in result["setup_counts"]
            ]
            if from_setup:
                values[metric] = median(from_setup)

        def timed(row: dict) -> float:
            return _scaled(row["timed_s"], row["calibration_ms"])

        values["trace.overhead_ratio"] = median(map(timed, traced)) / median(
            map(timed, untraced)
        )
        if name in BATCH_WORKLOADS:
            # Coverage gate: the span table must say where the time went.
            attempted += len(traced)
            for row in traced:
                share = row["per_layer"]["trace.unattributed_s"] / row["busy_s"]
                if share > MAX_UNATTRIBUTED_SHARE:
                    failures.append(
                        f"{share:.1%} of the traced wall is in no span "
                        f"(limit {MAX_UNATTRIBUTED_SHARE:.0%})"
                    )
        metrics = {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit, _ in layers.PER_LAYER
        }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "detail": detail,
        "failures": failures,
    }


def _detail(untraced: list[dict]) -> dict:
    """Medians of the workload-specific raw numbers; request latencies are
    pooled over the iterations and reported as p50/p99 with their sample
    count (no percentile with fewer than ten samples beyond it)."""
    detail: dict = {}
    for key in untraced[0]["detail"]:
        values = [row["detail"][key] for row in untraced]
        if key != "latencies_ms":
            detail[key] = statistics.median(values)
            continue
        pooled = sorted(latency for chunk in values for latency in chunk)
        detail["latency_samples"] = len(pooled)
        detail["p50_ms"] = percentile(pooled, 0.50)
        if len(pooled) >= 1000:
            detail["p99_ms"] = percentile(pooled, 0.99)
    return detail
