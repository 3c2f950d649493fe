"""Hot-path benchmark harness behind ``freqdedup bench``.

Times the three loops every experiment leans on — content-defined
chunking, the attacks' COUNT pass, and multi-tenant service ingest — on
pinned, seeded workloads, asserts the fast paths are byte-identical to
their reference implementations, and writes the results to
``BENCH_hotpaths.json`` at the repo root. The committed file is the perf
baseline later PRs diff against (CI re-runs ``repro bench --quick`` and
soft-reports deltas; thresholds are asserted only over the identity
checks, never over timings, which are machine-dependent).

Workloads:

* **chunking** — pseudorandom bytes at the default 2048/8192/65536 spec;
  each chunker's skip-ahead/vectorized ``cut_points`` is timed against
  its byte-at-a-time ``cut_points_reference``.
* **count** — an FSL-shaped logical chunk stream (Zipf-popular template
  runs with churn, unique/total ≈ 0.7 like the repo's FSL workload);
  the interned COUNT is timed against ``count_with_neighbors``, both
  bare (tables accumulated) and *rank-ready* (global frequency table
  plus both neighbor tables materialized for probing — everything the
  locality attack needs before its first FREQ-ANALYSIS).
* **service** — one pinned multi-tenant population served through
  ``DedupService`` (synthesis excluded via the shared traffic memo), so
  the batched upload ingest path gets a throughput number and the
  deterministic report a content digest.

All timings are best-of-``repeats`` wall-clock.
"""

from __future__ import annotations

import hashlib
import json
import platform
import random
import sys
import time
from pathlib import Path

from repro.common import accel
from repro.version import __version__

#: Default output file, at the repo root when run from it.
DEFAULT_OUTPUT = "BENCH_hotpaths.json"

_CHUNK_BYTES = 4 << 20
_CHUNK_BYTES_QUICK = 1 << 20
_COUNT_CHUNKS = 1_500_000
_COUNT_CHUNKS_QUICK = 150_000
_COLUMNAR_CHUNKS = 10_000_000
_COLUMNAR_CHUNKS_QUICK = 200_000
_SERVICE_TENANTS = 40
_SERVICE_TENANTS_QUICK = 12


def _best_of(function, repeats: int) -> float:
    import gc

    best = float("inf")
    result_holder = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        result_holder.append(function())
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        result_holder.clear()
    return best


def count_workload(chunks: int, seed: int = 7):
    """FSL-shaped logical stream: Zipf-popular template runs + churn."""
    from repro.datasets.model import Backup

    from itertools import accumulate

    rng = random.Random(seed)
    runs = [
        [rng.randbytes(20) for _ in range(rng.randrange(4, 40))]
        for _ in range(max(200, chunks // 8))
    ]
    # Pre-accumulated weights keep each draw O(log n) instead of O(n)
    # (identical draws: choices() builds exactly this table internally).
    cum_weights = list(
        accumulate(1.0 / (rank + 1) ** 0.9 for rank in range(len(runs)))
    )
    fingerprints: list[bytes] = []
    sizes: list[int] = []
    while len(fingerprints) < chunks:
        run = rng.choices(runs, cum_weights=cum_weights)[0]
        if rng.random() < 0.6:
            run = [
                rng.randbytes(20) if rng.random() < 0.7 else fingerprint
                for fingerprint in run
            ]
        fingerprints.extend(run)
        sizes.extend(rng.randrange(1024, 16384) for _ in run)
    del fingerprints[chunks:]
    del sizes[chunks:]
    return Backup(label="bench-count", fingerprints=fingerprints, sizes=sizes)


def _count_tables_equal(fast, reference) -> bool:
    """Full four-table, order-sensitive equivalence check."""
    if (
        fast.frequencies != reference.frequencies
        or list(fast.frequencies) != list(reference.frequencies)
        or fast.sizes != reference.sizes
        or list(fast.sizes) != list(reference.sizes)
    ):
        return False
    for view, oracle in ((fast.left, reference.left), (fast.right, reference.right)):
        decoded = dict(view.items())
        if decoded != oracle or list(decoded) != list(oracle):
            return False
        for key, table in decoded.items():
            if list(table) != list(oracle[key]):
                return False
    return True


def bench_chunking(quick: bool, repeats: int) -> dict:
    from repro.chunking import ChunkerSpec, GearChunker, RabinChunker

    data = random.Random(0).randbytes(
        _CHUNK_BYTES_QUICK if quick else _CHUNK_BYTES
    )
    spec = ChunkerSpec(min_size=2048, avg_size=8192, max_size=65536)
    section: dict = {
        "data_bytes": len(data),
        "spec": {"min": spec.min_size, "avg": spec.avg_size, "max": spec.max_size},
    }
    for name, chunker in (
        ("rabin", RabinChunker(spec)),
        ("gear", GearChunker(spec)),
    ):
        fast_cuts = chunker.cut_points(data)  # warm table caches
        reference_cuts = chunker.cut_points_reference(data)
        reference_s = _best_of(lambda: chunker.cut_points_reference(data), repeats)
        fast_s = _best_of(lambda: chunker.cut_points(data), repeats)
        section[name] = {
            "chunks": len(fast_cuts),
            "identical": fast_cuts == reference_cuts,
            "reference_s": round(reference_s, 4),
            "fast_s": round(fast_s, 4),
            "speedup": round(reference_s / fast_s, 2),
            "fast_mib_per_s": round(len(data) / (1 << 20) / fast_s, 1),
        }
    # The headline "chunking speedup" is the paper's chunker ([54], Rabin).
    section["speedup"] = section["rabin"]["speedup"]
    return section


def bench_count(quick: bool, repeats: int) -> dict:
    from repro.attacks.frequency import count_with_neighbors
    from repro.attacks.interning import interned_count

    backup = count_workload(_COUNT_CHUNKS_QUICK if quick else _COUNT_CHUNKS)
    unique = len(set(backup.fingerprints))

    def rank_ready():
        stats = interned_count(backup)
        stats.frequencies
        stats.left
        stats.right
        return stats

    reference = count_with_neighbors(backup)
    fast = rank_ready()
    identical = _count_tables_equal(fast, reference)
    reference_s = _best_of(lambda: count_with_neighbors(backup), repeats)
    count_s = _best_of(lambda: interned_count(backup), repeats)
    rank_ready_s = _best_of(rank_ready, repeats)
    return {
        "chunks": len(backup),
        "unique_chunks": unique,
        "identical": identical,
        "reference_s": round(reference_s, 4),
        "interned_s": round(count_s, 4),
        "rank_ready_s": round(rank_ready_s, 4),
        "count_pass_speedup": round(reference_s / count_s, 2),
        # Conservative headline: interned COUNT plus every table the
        # locality attack needs materialized and probe-ready.
        "speedup": round(reference_s / rank_ready_s, 2),
        "reference_chunks_per_s": round(len(backup) / reference_s),
        "interned_chunks_per_s": round(len(backup) / rank_ready_s),
    }


def _columnar_stats_equal(left, right) -> bool:
    """Exact equality of two sharded-COUNT outputs (any jobs values)."""
    numpy = accel.numpy
    if numpy is None:  # plain dict stats
        return left == right and all(
            list(getattr(left, table)) == list(getattr(right, table))
            for table in ("frequencies", "left", "right")
        )
    return all(
        numpy.array_equal(getattr(left, name), getattr(right, name))
        for name in (
            "ordered_ids",
            "ordered_counts",
            "first_sizes",
            "ordered_pairs",
            "ordered_pair_counts",
        )
    )


def _sampled_probe_identity(columnar, interned, sample: int = 64) -> bool:
    """Spot-check the lazy columnar views against the in-RAM COUNT.

    Full four-table decode at 10⁷ chunks would dwarf the timed work, so
    the full-scale bench probes the top-``sample`` ranked fingerprints:
    frequency, first-occurrence size, and both neighbor tables (contents
    *and* insertion order) must match the interned reference. Exhaustive
    equality is pinned at unit-test scale (tests/unit/test_columnar.py).
    """
    from itertools import islice

    if hasattr(columnar, "top_ranked"):
        probes = columnar.top_ranked(sample)
    else:  # pure-python fallback: plain insertion-ordered dicts
        probes = list(islice(columnar.frequencies, sample))
    for fingerprint in probes:
        if columnar.frequencies.get(fingerprint) != interned.frequencies.get(
            fingerprint
        ):
            return False
        if columnar.sizes.get(fingerprint) != interned.sizes.get(fingerprint):
            return False
        for side in ("left", "right"):
            ours = getattr(columnar, side).get(fingerprint, {})
            theirs = getattr(interned, side).get(fingerprint, {})
            if dict(ours) != dict(theirs) or list(ours) != list(theirs):
                return False
    return True


def bench_columnar(quick: bool, repeats: int, jobs: int = 1) -> dict:
    """Trace-scale COUNT: sharded bincounts over a memory-mapped trace.

    Generates (once — the completed trace is reopened on later runs) a
    single-backup columnar stream, counts it with
    :func:`~repro.attacks.sharded.sharded_count` across a jobs sweep, and
    contrasts the mmap path against the in-RAM interned COUNT at the same
    scale: wall-clock, peak RSS (each phase forked so its high-water mark
    is attributable), and exact-identity checks.
    """
    import tempfile

    from repro.analysis.benchmeta import run_isolated
    from repro.attacks.interning import interned_count
    from repro.attacks.sharded import sharded_count
    from repro.datasets.columnar import StreamConfig, ensure_stream_columnar

    chunks = _COLUMNAR_CHUNKS_QUICK if quick else _COLUMNAR_CHUNKS
    directory = Path(tempfile.gettempdir()) / f"repro-bench-columnar-{chunks}"
    config = StreamConfig(chunks=chunks, backups=1)
    generate_start = time.perf_counter()
    trace = ensure_stream_columnar(directory, config, seed=7)
    generate_s = time.perf_counter() - generate_start
    try:
        view = trace.view(0)
        job_sweep = sorted({1, jobs, 4})

        def rank_ready_sharded():
            stats = sharded_count(view, jobs=jobs)
            if hasattr(stats, "top_ranked"):
                stats.top_ranked(1)
            stats.left
            stats.right
            return stats

        def rank_ready_interned(backup):
            stats = interned_count(backup)
            stats.frequencies
            stats.left
            stats.right
            return stats

        # Peak RSS per phase, measured in forked children *before* the
        # parent materializes anything large, so each number is the
        # phase's own high-water mark.
        def _isolated_sharded():
            rank_ready_sharded()

        def _isolated_interned():
            rank_ready_interned(view.to_backup())

        _, sharded_rss = run_isolated(_isolated_sharded)
        _, interned_rss = run_isolated(_isolated_interned)

        baseline = sharded_count(view, jobs=1)
        identical = all(
            _columnar_stats_equal(baseline, sharded_count(view, jobs=n))
            for n in job_sweep
        )
        materialize_start = time.perf_counter()
        backup = view.to_backup()
        materialize_s = time.perf_counter() - materialize_start
        interned = interned_count(backup)
        identical = identical and baseline.unique_chunks == interned.unique_chunks
        if quick:
            identical = identical and (
                dict(baseline.frequencies.items()) == interned.frequencies
                and list(baseline.frequencies) == list(interned.frequencies)
                and dict(baseline.sizes.items()) == interned.sizes
                and list(baseline.sizes) == list(interned.sizes)
            )
        identical = identical and _sampled_probe_identity(baseline, interned)

        sharded_count_s = _best_of(lambda: sharded_count(view, jobs=jobs), repeats)
        sharded_s = _best_of(rank_ready_sharded, repeats)
        interned_s = _best_of(lambda: rank_ready_interned(backup), repeats)

        def _mib(value):
            return round(value / (1 << 20), 1) if value else None

        return {
            "chunks": view.num_chunks,
            "unique_chunks": baseline.unique_chunks,
            "fingerprint_bytes": trace.fingerprint_bytes,
            "jobs": jobs,
            "job_sweep": job_sweep,
            "identical": bool(identical),
            "generate_s": round(generate_s, 4),
            "materialize_s": round(materialize_s, 4),
            "sharded_count_s": round(sharded_count_s, 4),
            "sharded_rank_ready_s": round(sharded_s, 4),
            "interned_rank_ready_s": round(interned_s, 4),
            "speedup": round(interned_s / sharded_s, 2),
            "sharded_chunks_per_s": round(view.num_chunks / sharded_s),
            "interned_chunks_per_s": round(view.num_chunks / interned_s),
            "sharded_peak_rss_mib": _mib(sharded_rss),
            "interned_peak_rss_mib": _mib(interned_rss),
        }
    finally:
        trace.close()


def bench_service(quick: bool, repeats: int) -> dict:
    from repro.service.simulate import (
        ServiceConfig,
        service_report,
        simulate,
        traffic_requests,
    )

    config = ServiceConfig(
        tenants=_SERVICE_TENANTS_QUICK if quick else _SERVICE_TENANTS,
        rounds=2,
        files_per_tenant=8,
        mean_file_chunks=16,
        attack_targets=2,
        seed=11,
    )
    synthesis_start = time.perf_counter()
    requests = traffic_requests(config)
    synthesis_s = time.perf_counter() - synthesis_start

    def serve():
        simulate.cache_clear()
        return simulate(config)

    serve_s = _best_of(serve, repeats)
    trace = simulate(config)
    uploads = [
        record for record in trace.meter.observables if record.kind == "upload"
    ]
    records = sum(record.total_chunks for record in uploads)
    report = service_report(config, jobs=1)
    digest = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()
    ).hexdigest()
    simulate.cache_clear()
    return {
        "tenants": config.tenants,
        "requests": len(requests),
        "uploads": len(uploads),
        "upload_records": records,
        "synthesis_s": round(synthesis_s, 4),
        "serve_s": round(serve_s, 4),
        "uploads_per_s": round(len(uploads) / serve_s, 1),
        "records_per_s": round(records / serve_s),
        "report_sha256": digest,
    }


def run_bench(quick: bool = False, repeats: int = 3, jobs: int = 1) -> dict:
    """Run all hot-path benches; returns the JSON-serializable result."""
    from repro.analysis.benchmeta import metadata_envelope

    result = {
        "env": metadata_envelope(),
        "version": __version__,
        "quick": quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "numpy": getattr(accel.numpy, "__version__", None) if accel.numpy else None,
        "platform": platform.machine(),
        "chunking": bench_chunking(quick, repeats),
        "count": bench_count(quick, repeats),
        "service": bench_service(quick, repeats),
    }
    result["count"]["columnar"] = bench_columnar(quick, repeats, jobs)
    result["identity_ok"] = all(
        (
            result["chunking"]["rabin"]["identical"],
            result["chunking"]["gear"]["identical"],
            result["count"]["identical"],
            result["count"]["columnar"]["identical"],
        )
    )
    return result


def render_bench(result: dict) -> str:
    chunking = result["chunking"]
    count = result["count"]
    service = result["service"]
    lines = [
        f"hot-path bench (quick={result['quick']}, repeats={result['repeats']}, "
        f"numpy={result['numpy'] or 'absent'})",
        (
            f"  chunking: rabin {chunking['rabin']['speedup']:.2f}x "
            f"({chunking['rabin']['fast_mib_per_s']:.0f} MiB/s), "
            f"gear {chunking['gear']['speedup']:.2f}x "
            f"({chunking['gear']['fast_mib_per_s']:.0f} MiB/s) "
            f"over {chunking['data_bytes'] >> 20} MiB"
        ),
        (
            f"  count:    {count['speedup']:.2f}x rank-ready "
            f"({count['count_pass_speedup']:.2f}x bare) over "
            f"{count['chunks']} chunks ({count['unique_chunks']} unique); "
            f"{count['interned_chunks_per_s']} chunks/s"
        ),
        (
            f"  columnar: {count['columnar']['speedup']:.2f}x vs in-RAM "
            f"interned over {count['columnar']['chunks']} mmapped chunks "
            f"({count['columnar']['sharded_chunks_per_s']} chunks/s, jobs "
            f"{count['columnar']['jobs']}, peak RSS "
            f"{count['columnar']['sharded_peak_rss_mib']} vs "
            f"{count['columnar']['interned_peak_rss_mib']} MiB)"
        ),
        (
            f"  service:  {service['uploads_per_s']:.0f} uploads/s "
            f"({service['records_per_s']} records/s) over "
            f"{service['uploads']} uploads, synthesis excluded"
        ),
        f"  identity checks: {'ok' if result['identity_ok'] else 'FAILED'}",
    ]
    return "\n".join(lines)


def write_bench(result: dict, path: str | Path = DEFAULT_OUTPUT) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def compare_to_baseline(result: dict, baseline_path: str | Path) -> list[str]:
    """Human-readable deltas vs a committed baseline (soft, never raises)."""
    baseline_path = Path(baseline_path)
    if not baseline_path.exists():
        return [f"no baseline at {baseline_path}; nothing to compare"]
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, ValueError) as error:
        return [f"unreadable baseline {baseline_path}: {error}"]
    lines = []
    for section, metric in (
        ("chunking", "speedup"),
        ("count", "speedup"),
        ("count.columnar", "sharded_chunks_per_s"),
        ("count.columnar", "speedup"),
        ("service", "uploads_per_s"),
    ):
        new_section = result
        old_section = baseline
        for part in section.split("."):
            new_section = new_section.get(part, {})
            old_section = old_section.get(part, {})
        new = new_section.get(metric)
        old = old_section.get(metric)
        if new is None or old is None or not old:
            lines.append(f"{section}.{metric}: no comparable baseline value")
            continue
        delta = (new - old) / old * 100.0
        lines.append(
            f"{section}.{metric}: {old} -> {new} ({delta:+.1f}%)"
        )
    if result.get("quick") != baseline.get("quick"):
        lines.append(
            "note: quick-mode mismatch vs baseline; deltas are indicative only"
        )
    return lines


def run_and_report(
    quick: bool = False,
    repeats: int = 3,
    output: str | Path = DEFAULT_OUTPUT,
    compare: str | Path | None = None,
    jobs: int = 1,
) -> int:
    """The shared bench driver behind ``freqdedup bench`` and
    ``benchmarks/bench_hotpaths.py``: run, print, write the JSON, soft-
    report baseline deltas, and exit non-zero only on identity failure
    (the contract CI's bench-smoke job keys on)."""
    result = run_bench(quick=quick, repeats=repeats, jobs=jobs)
    print(render_bench(result))
    path = write_bench(result, output)
    print(f"wrote -> {path}")
    if compare:
        for line in compare_to_baseline(result, compare):
            print(f"baseline delta: {line}")
    return 0 if result["identity_ok"] else 1


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small workloads (CI smoke)"
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--compare",
        metavar="FILE",
        help="soft-report deltas vs a committed baseline JSON",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sharded columnar COUNT section",
    )
    args = parser.parse_args(argv)
    return run_and_report(
        quick=args.quick,
        repeats=args.repeats,
        output=args.output,
        compare=args.compare,
        jobs=args.jobs,
    )


if __name__ == "__main__":
    sys.exit(main())
