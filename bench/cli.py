"""End-to-end benchmark of the encrypted-deduplication stack.

Two ways to run it, both from the repository root:

* one workload, one pass (what ``BENCHMARK.json``'s ``command`` does)::

      python3 -m bench --workload serve_bulk --seed 3 --seconds 12 --trace 0

  The last line of standard output is one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
  ``--trace 0``, per-layer metrics with ``--trace 1``).

* every workload, the untraced pass and then the traced pass, as tables::

      python3 -m bench [--seed N] [--repeats K] [--quick] [--out result.json]

``--compare A.json B.json`` judges two result files by the bounds of
``BENCHMARK.json``; ``--selftest`` checks that file against the code and a
quick run.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from bench import ROOT, harness, report

# The benchmark measures the checkout it sits in, never an installed copy.
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=list(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--seconds", type=float, default=float(report.manifest()["run_seconds"]),
        help="timed work per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="FILE", help="append the traced pass' spans as JSONL")
    parser.add_argument("--repeats", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--quick", action="store_true", help="every workload at ~1/10 size")
    parser.add_argument("--out", metavar="FILE", help="write the full run's result document")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return 1 if report.compare(*args.compare) else 0
    if args.selftest:
        problems = report.selftest()
        for problem in problems:
            print("FAIL", problem)
        print("selftest", "failed" if problems else "passed")
        return 1 if problems else 0
    if args.workload is None:
        document, problems = report.run_all(
            args.seed, args.seconds, args.repeats, args.quick, args.trace_out
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
        for problem in problems:
            print("FAIL", problem)
        return 1 if problems else 0

    options = report.QUICK if args.quick else {}
    result = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        trace_out=args.trace_out, **options,
    )
    for message in result["failures"]:
        print("FAIL", message)
    print("detail", json.dumps(result["detail"], sort_keys=True))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
