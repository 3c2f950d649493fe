"""The full run (all workloads, both passes), ``--compare`` and ``--selftest``.

A result file holds, per workload, the end-to-end metrics of every
untraced run (``--repeats``), the per-layer metrics of one traced run, and
the environment envelope of ``repro.analysis.benchmeta``.
"""

from __future__ import annotations

import json
import os
import re
import statistics

from bench import ROOT, harness, layers

QUICK = {"scale": 0.1, "rounds": 1}
QUICK_SECONDS = 0.5
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def relative_spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (None under four
    values: quartiles of fewer say nothing)."""
    if len(values) < 4:
        return None
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


# -- the full run ----------------------------------------------------------


def run_all(seed, seconds, repeats, quick, trace_out) -> tuple[dict, list[str]]:
    """Every workload: ``repeats`` untraced runs, then one traced run.

    Returns the result document and the list of failed assertions.
    """
    options = QUICK if quick else {}
    if quick:
        seconds = QUICK_SECONDS
    problems: list[str] = []
    workloads: dict[str, dict] = {}
    for name in harness.WORKLOADS:
        runs = [
            harness.run_workload(name, seed, seconds, False, **options)
            for _ in range(repeats)
        ]
        traced = harness.run_workload(name, seed, seconds, True, trace_out=trace_out, **options)
        entry = workloads[name] = {
            "runs": [
                {metric: cell["value"] for metric, cell in run["metrics"].items()}
                for run in runs
            ],
            "detail": [run["detail"] for run in runs],
            "per_layer": {metric: cell["value"] for metric, cell in traced["metrics"].items()},
            "attempted": sum(run["attempted"] for run in [*runs, traced]),
            "failed": sum(run["failed"] for run in [*runs, traced]),
        }
        for run in [*runs, traced]:
            problems += [f"{name}: {message}" for message in run["failures"]]
        overhead = entry["per_layer"]["trace.overhead_ratio"]
        if overhead > harness.MAX_OVERHEAD_RATIO and not quick:
            problems.append(
                f"{name}: trace.overhead_ratio {overhead:.3f} > {harness.MAX_OVERHEAD_RATIO}"
            )
        print_workload(name, entry)
    # Imported only now: a round must pay for importing the library itself.
    from repro.analysis.benchmeta import metadata_envelope

    document = {
        "schema": 1,
        "env": metadata_envelope(),
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "workloads": workloads,
    }
    return document, problems


def print_workload(name: str, entry: dict) -> None:
    runs, detail = entry["runs"], entry["detail"]
    print(f"\n== {name}: {len(runs)} run(s), fail_ratio {entry['failed']}/{entry['attempted']}")
    iterations = statistics.median(row["iterations"] for row in detail)
    for metric, unit, better in harness.END_TO_END:
        values = [run[metric] for run in runs]
        line = f"  {metric:24s} {statistics.median(values):14.6g} {unit:9s} ({better} is better"
        if metric.endswith("_per_s"):
            line += f"; median of {iterations:g} iterations"
        else:
            line += "; median of the run's rounds"
        if len(values) >= 4:
            low, _, high = statistics.quantiles(values, n=4)
            line += f"; quartiles {low:.6g}..{high:.6g}, spread {relative_spread(values):.3f}"
        print(line + ")")
    extras = {
        key: statistics.median(row[key] for row in detail if key in row)
        for key in sorted({key for row in detail for key in row})
    }
    print("  detail (unscaled): " + ", ".join(f"{k}={v:.6g}" for k, v in extras.items()))
    print("  per layer (one traced run; times as measured):")
    for metric, unit, _ in layers.PER_LAYER:
        value = entry["per_layer"][metric]
        if value:
            print(f"    {metric:32s} {value:14.6g} {unit}")


# -- compare ---------------------------------------------------------------


def compare(before_path: str, after_path: str) -> int:
    """One row per end-to-end metric x workload, judged by the bounds of
    BENCHMARK.json.  Returns the number of ``regressed`` rows."""
    with open(before_path, encoding="utf-8") as handle:
        before = json.load(handle)
    with open(after_path, encoding="utf-8") as handle:
        after = json.load(handle)
    if (before["env"]["numpy"] is None) != (after["env"]["numpy"] is None):
        raise SystemExit("refusing to compare: numpy is present in only one of the results")
    bounds = {row["name"]: row for row in manifest()["end_to_end"]}
    regressed = 0
    print(f"{'workload':16s} {'metric':24s} {'verdict':11s} after/before (base)")
    for name in before["workloads"]:
        if name not in after["workloads"]:
            continue
        for metric, unit, better in harness.END_TO_END:
            old = [run[metric] for run in before["workloads"][name]["runs"]]
            new = [run[metric] for run in after["workloads"][name]["runs"]]
            verdict = judge(old, new, better, bounds[metric]["bound"])
            regressed += verdict == "regressed"
            base = statistics.median(old)
            spreads = [relative_spread(old), relative_spread(new)]
            print(
                f"{name:16s} {metric:24s} {verdict:11s} "
                f"{statistics.median(new) / base:.4f} (base {base:.6g} {unit}; "
                f"bound {bounds[metric]['bound']}; spreads "
                + "/".join("n<4" if s is None else f"{s:.3f}" for s in spreads)
                + ")"
            )
    return regressed


def judge(old: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    base = statistics.median(old)
    worse = sign * (statistics.median(new) - base) / base
    base_spread = relative_spread(old)
    widest = max(base_spread or 0.0, relative_spread(new) or 0.0)
    all_better = all(sign * (b - a) < 0 for a in old for b in new)
    all_worse = all(sign * (b - a) > 0 for a in old for b in new)
    if widest > bound and not (all_better or all_worse):
        return "unresolved"
    if worse > bound:
        return "regressed"
    # A gain needs the base's own spread to be known and exceeded.
    if all_better and base_spread is not None and -worse > base_spread:
        return "improved"
    return "unchanged"


# -- selftest --------------------------------------------------------------


def selftest() -> list[str]:
    """BENCHMARK.json and the code must name the same workloads and metrics
    with the same units and directions, and a quick run must emit every
    declared metric x workload cell."""
    declared = manifest()
    problems: list[str] = []

    def same(what, ours, theirs):
        if ours != theirs:
            problems.append(f"{what}: code has {ours}, BENCHMARK.json has {theirs}")

    same("workloads", sorted(harness.WORKLOADS), sorted(row["name"] for row in declared["workloads"]))
    same(
        "end_to_end",
        sorted(harness.END_TO_END),
        sorted((row["name"], row["unit"], row["better"]) for row in declared["end_to_end"]),
    )
    same(
        "per_layer",
        sorted(layers.PER_LAYER),
        sorted((row["name"], row["unit"], row["better"]) for row in declared["per_layer"]),
    )
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in declared[key]]
    problems += [f"bad name {name!r}" for name in names if not NAME.match(name)]
    problems += [f"name {name!r} used twice" for name in set(names) if names.count(name) > 1]
    for name in harness.WORKLOADS:
        for trace, expected in ((False, harness.END_TO_END), (True, layers.PER_LAYER)):
            result = harness.run_workload(name, 11, QUICK_SECONDS, trace, **QUICK)
            same(
                f"{name} --trace {int(trace)} cells",
                sorted((metric, cell["unit"]) for metric, cell in result["metrics"].items()),
                sorted((metric, unit) for metric, unit, _ in expected),
            )
            problems += [f"{name}: {message}" for message in result["failures"]]
            if not trace:
                problems += [
                    f"{name}: end-to-end metric {metric} is zero"
                    for metric, cell in result["metrics"].items()
                    if not cell["value"]
                ]
    return problems
