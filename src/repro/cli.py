"""Command-line front-end: ``freqdedup`` (or ``python -m repro``).

Subcommands:

* ``generate`` — build a canonical dataset and save its trace.
* ``stats`` — workload statistics (dedup ratio, frequency skew, locality).
* ``attack`` — run one inference attack against one dataset/scheme.
* ``figure`` — regenerate a paper figure (or ``all``), optionally in
  parallel (``--jobs``) and against an on-disk cell cache (``--cache``).
* ``sweep`` — run a user-defined scenario grid (any dataset × scheme ×
  attack × (u, v, w) × anchor × leakage-rate combination) through the
  scenario engine — including cells the paper never plotted.
* ``serve-sim`` — simulate a multi-tenant dedup service over synthesized
  population traffic and meter its cross-user side channels.
* ``serve-net`` — serve the same traffic over a real socket through the
  asyncio framed-protocol frontend: multi-process load generation with
  req/s + latency percentiles, or ``--identity`` differential replay
  against the simulator.
* ``frontier`` — sweep the tunable defenses (``obfuscate:t`` encryption,
  dedup-response shaping) into a leakage/cost tradeoff frontier with
  cost columns sourced from the ``repro.obs`` metrics layer.
* ``storage`` — run the DDFS metadata-access experiment.
* ``obs`` — render or diff the metrics snapshot JSON the ``--metrics``
  flag exports.

``attack``, ``figure``, ``sweep``, ``serve-sim`` and ``serve-net`` all
take ``--metrics FILE`` (export a merged metrics-registry snapshot),
``--trace-out FILE`` (export the span ring as JSONL) and ``--log-json``
(structured logs on stderr).  All three are off by default, and leaving
them off keeps every report byte-identical to an uninstrumented build.
"""

from __future__ import annotations

import argparse
import sys

from repro import faults, obs
from repro.analysis import figures as figure_drivers
from repro.analysis.reporting import render_table, save_result
from repro.analysis.workloads import (
    LARGE_CACHE_BYTES,
    SMALL_CACHE_BYTES,
    encrypted_series,
    series_by_name,
)
from repro.attacks import (
    KNOWN_ATTACKS,
    AttackEvaluator,
    build_attack,
    columnar_attack_report,
)
from repro.common.errors import ConfigurationError
from repro.common.units import MiB, format_size
from repro.datasets.stats import (
    adjacency_preservation,
    content_overlap,
    frequency_cdf,
    series_frequencies,
)
from repro.datasets.trace import save_series
from repro.defenses.pipeline import DefenseScheme
from repro.version import __version__

_DATASETS = ("fsl", "vm", "synthetic", "storage-fsl")
_FIGURES = {
    "1": figure_drivers.fig1_frequency_skew,
    "4": figure_drivers.fig4_parameter_impact,
    "5": figure_drivers.fig5_vary_auxiliary,
    "6": figure_drivers.fig6_vary_target,
    "7": figure_drivers.fig7_sliding_window,
    "8": figure_drivers.fig8_known_plaintext,
    "9": figure_drivers.fig9_kpm_vary_auxiliary,
    "10": figure_drivers.fig10_defense_effectiveness,
    "11": figure_drivers.fig11_storage_saving,
    "13": figure_drivers.fig13_metadata_small_cache,
    "14": figure_drivers.fig14_metadata_large_cache,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The observability trio, shared by every instrumented subcommand.

    All default to off; the command's report output is byte-identical
    with and without them (exports go to separate files / stderr).
    """
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help=(
            "enable the metrics registry and write the merged snapshot "
            "JSON to FILE on exit (inspect with 'freqdedup obs')"
        ),
    )
    group.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help=(
            "enable span tracing and write the span ring to FILE as "
            "JSONL on exit"
        ),
    )
    group.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON logs on stderr",
    )


def _add_faults_flag(parser: argparse.ArgumentParser) -> None:
    """The fault-injection plan flag, shared by every chaos-capable
    subcommand.  With no plan the fault plane is a no-op and reports
    stay byte-identical; with one, retries/failovers keep the *results*
    byte-identical while a ``faults`` summary section shows what was
    injected (see docs/robustness.md)."""
    group = parser.add_argument_group("robustness")
    group.add_argument(
        "--faults",
        metavar="PLAN.json",
        default=None,
        help=(
            "install the deterministic fault-injection plan from "
            "PLAN.json for this run: seeded connection drops, stalls, "
            "node kills, disk errors and worker crashes, survived by "
            "retry/failover (see docs/robustness.md)"
        ),
    )


def _faults_install(args: argparse.Namespace) -> None:
    """Install the requested fault plan before dispatch (so every seam
    in the handler's path sees it); ``main`` clears it on the way out."""
    path = getattr(args, "faults", None)
    if path is not None:
        faults.install(faults.load_plan(path))


def _obs_enable(args: argparse.Namespace) -> None:
    """Turn on whichever observability planes the flags requested.

    Runs before dispatch so ``obs.enable`` can export ``REPRO_OBS`` to
    spawn-started workers; with no flags given nothing is touched and
    every ``obs`` call in the handlers stays a no-op.
    """
    metrics = getattr(args, "metrics", None) is not None
    tracing = getattr(args, "trace_out", None) is not None
    logging = bool(getattr(args, "log_json", False))
    if metrics or tracing or logging:
        obs.enable(metrics=metrics, tracing=tracing, logging=logging)


def _obs_export(args: argparse.Namespace) -> None:
    """Write the requested snapshot/trace files after the handler ran.

    Runs in a ``finally`` so a partial run (e.g. identity-mode exit 1)
    still exports what it recorded.  Paths go to stderr to keep stdout
    (the report the goldens pin) untouched.
    """
    metrics_path = getattr(args, "metrics", None)
    if metrics_path and obs.enabled():
        with open(metrics_path, "wb") as handle:
            handle.write(obs.snapshot_bytes(obs.snapshot()) + b"\n")
        print(f"metrics snapshot -> {metrics_path}", file=sys.stderr)
    trace_path = getattr(args, "trace_out", None)
    if trace_path and obs.tracing_enabled():
        count = obs.export_trace(trace_path)
        print(f"{count} spans -> {trace_path}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqdedup",
        description=(
            "Reproduction of 'Information Leakage in Encrypted Deduplication "
            "via Frequency Analysis' (DSN 2017)."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate",
        help="generate a dataset trace file (or columnar trace directory)",
    )
    gen.add_argument("dataset", choices=_DATASETS + ("stream",))
    gen.add_argument(
        "output", help="trace file path (a directory with --columnar)"
    )
    gen.add_argument(
        "--columnar",
        action="store_true",
        help=(
            "write the on-disk columnar layout (fingerprint vocabulary + "
            "memory-mapped uint32 id stream) instead of a trace file; "
            "generate once, mmap thereafter — a completed trace with "
            "matching parameters is reopened, not regenerated"
        ),
    )
    gen.add_argument(
        "--chunks",
        type=_positive_int,
        default=10_000_000,
        metavar="N",
        help=(
            "total chunk records for the 'stream' dataset "
            "(default 10000000; requires --columnar)"
        ),
    )
    gen.add_argument(
        "--backups",
        type=_positive_int,
        default=2,
        metavar="B",
        help="backup count for the 'stream' dataset (default 2)",
    )
    gen.add_argument(
        "--fingerprint-bytes",
        type=_positive_int,
        default=16,
        metavar="K",
        help="fingerprint width for the 'stream' dataset (default 16)",
    )
    gen.add_argument(
        "--seed",
        type=int,
        default=7,
        help="generation seed for the 'stream' dataset (default 7)",
    )

    stats = sub.add_parser("stats", help="print workload statistics")
    stats.add_argument("dataset", choices=_DATASETS)
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the statistics as JSON (stable key order, scriptable)",
    )

    attack = sub.add_parser("attack", help="run an inference attack")
    attack.add_argument("dataset", nargs="?", choices=_DATASETS)
    attack.add_argument(
        "--columnar",
        metavar="DIR",
        help=(
            "attack an on-disk columnar trace directory (see generate "
            "--columnar) instead of a canonical dataset: both COUNT "
            "passes run sharded over the memory-mapped id stream "
            "(--jobs), the MLE ciphertext side is derived from the "
            "target's COUNT (each of its distinct chunks encrypted "
            "once), and no full frequency table is ever materialized "
            "in RAM"
        ),
    )
    attack.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the sharded columnar COUNT (output is "
            "byte-identical at any job count; only with --columnar)"
        ),
    )
    attack.add_argument(
        "--attack",
        choices=KNOWN_ATTACKS,
        default="locality",
    )
    attack.add_argument(
        "--scheme",
        choices=[scheme.value for scheme in DefenseScheme],
        default="mle",
    )
    attack.add_argument(
        "--obfuscate-t",
        type=_positive_int,
        default=None,
        metavar="T",
        help=(
            "ciphertext variants per plaintext chunk for --scheme "
            "obfuscate (default 2); higher flattens the COUNT histogram "
            "at the cost of per-variant dedup"
        ),
    )
    attack.add_argument("--auxiliary", type=int, default=-2)
    attack.add_argument("--target", type=int, default=-1)
    attack.add_argument("--leakage-rate", type=float, default=0.0)
    attack.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the known-plaintext leakage sample (default 0)",
    )
    attack.add_argument("-u", type=int, default=1)
    attack.add_argument("-v", type=int, default=15)
    attack.add_argument("-w", type=int, default=200_000)
    attack.add_argument(
        "--nodes",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "cluster size for a partial-view attack: the target is "
            "sharded over N storage nodes and the adversary observes "
            "one compromised node's shard (default 1 = full view)"
        ),
    )
    attack.add_argument(
        "--routing",
        choices=("ring", "modulo"),
        default="ring",
        help="cluster routing policy for --nodes > 1 (default ring)",
    )
    attack.add_argument(
        "--compromised-node",
        type=int,
        default=0,
        metavar="K",
        help="which node's shard the adversary observes (default 0)",
    )
    _add_obs_flags(attack)
    _add_faults_flag(attack)

    figure = sub.add_parser(
        "figure", help="regenerate a paper figure (or 'all')"
    )
    figure.add_argument(
        "number", choices=sorted(_FIGURES, key=int) + ["all"]
    )
    figure.add_argument("--save", metavar="DIR", help="also save under DIR")
    figure.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes (output is identical at any job count)",
    )
    figure.add_argument(
        "--cache",
        metavar="DIR",
        help="on-disk cell cache; reruns skip completed cells",
    )
    _add_obs_flags(figure)
    _add_faults_flag(figure)

    sweep = sub.add_parser(
        "sweep",
        help="run a user-defined scenario grid through the engine",
        description=(
            "Cross dataset × scheme × attack × (u, v, w) × anchor pair × "
            "leakage rate, run every cell (optionally in parallel and "
            "cached), and print one row per cell — scenarios well beyond "
            "the paper's plotted grid."
        ),
    )
    sweep.add_argument(
        "--datasets", default="fsl", metavar="A,B", help="comma-separated"
    )
    sweep.add_argument(
        "--schemes",
        default="mle",
        metavar="A,B",
        help=f"comma-separated from {[s.value for s in DefenseScheme]}",
    )
    sweep.add_argument(
        "--attacks",
        default="locality",
        metavar="A,B",
        help="comma-separated from basic,locality,advanced",
    )
    sweep.add_argument("--u", default="1", metavar="N,..", help="u values")
    sweep.add_argument("--v", default="15", metavar="N,..", help="v values")
    sweep.add_argument(
        "--w", default="200000", metavar="N,..", help="w values"
    )
    sweep.add_argument(
        "--pairs",
        default="-2:-1",
        metavar="AUX:TGT,..",
        help=(
            "auxiliary:target backup index pairs; negatives count from the "
            "end (use the = form for those, e.g. --pairs=-2:-1,0:-1)"
        ),
    )
    sweep.add_argument(
        "--leakage-rates", default="0", metavar="R,..", help="leakage rates"
    )
    sweep.add_argument(
        "--seed", type=int, default=0, help="leakage-sample seed"
    )
    sweep.add_argument("--jobs", type=_positive_int, default=1, metavar="N")
    sweep.add_argument("--cache", metavar="DIR")
    sweep.add_argument(
        "--json", metavar="FILE", help="also write rows as JSON to FILE"
    )
    _add_obs_flags(sweep)
    _add_faults_flag(sweep)

    serve = sub.add_parser(
        "serve-sim",
        help="simulate a multi-tenant dedup service and meter side channels",
        description=(
            "Synthesize population traffic (Zipf-popular shared files, "
            "per-tenant churn), serve it through a shared dedup engine "
            "with per-tenant namespaces and quotas, and report the "
            "adversary's view: per-upload bandwidth, cross-tenant "
            "overlap, and cross-tenant inference rates. Deterministic: "
            "the same --seed produces a byte-identical JSON report at "
            "any --jobs value."
        ),
    )
    serve.add_argument("--tenants", type=_positive_int, default=20)
    serve.add_argument(
        "--requests",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "total upload requests; rounds = max(1, N // tenants) "
            "(default: 2 rounds)"
        ),
    )
    serve.add_argument(
        "--duplication-factor",
        type=float,
        default=0.5,
        metavar="F",
        help="probability a tenant file copies a shared popular file",
    )
    serve.add_argument(
        "--popularity-exponent",
        type=float,
        default=1.5,
        metavar="S",
        help="Zipf skew over the shared file popularity ranks",
    )
    serve.add_argument(
        "--scheme",
        choices=[scheme.value for scheme in DefenseScheme],
        default="mle",
    )
    serve.add_argument(
        "--obfuscate-t",
        type=_positive_int,
        default=None,
        metavar="T",
        help="ciphertext variants for --scheme obfuscate (default 2)",
    )
    serve.add_argument(
        "--shaping",
        default="honest",
        metavar="SPEC",
        help=(
            "dedup-response shaping policy: 'honest' (default), 'rr:P' "
            "(re-request each deduplicated chunk with probability P), or "
            "'quantize:B' (pad each upload's transfer to a multiple of "
            "B bytes); shaping pads the wire, never the store"
        ),
    )
    serve.add_argument(
        "--attack",
        choices=KNOWN_ATTACKS,
        default="advanced",
    )
    serve.add_argument(
        "--auxiliary-tenant",
        type=int,
        default=-1,
        metavar="T",
        help=(
            "adversary's prior knowledge: a tenant id (curious tenant) "
            "or -1 for the population auxiliary (curious provider)"
        ),
    )
    serve.add_argument(
        "--attack-targets",
        type=_positive_int,
        default=4,
        metavar="N",
        help="number of victim tenants evaluated",
    )
    serve.add_argument(
        "--nodes",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "storage-tier nodes: 1 (default) serves from one shared "
            "engine, N > 1 from a consistent-hash cluster of N engines "
            "with per-node load metering and partial-view attack rows"
        ),
    )
    serve.add_argument(
        "--routing",
        choices=("ring", "modulo"),
        default="ring",
        help="cluster routing policy for --nodes > 1 (default ring)",
    )
    serve.add_argument(
        "--backend",
        choices=("memory", "kvstore", "sqlite", "sharded"),
        default="memory",
        help="fingerprint-index backend of the shared store (per node)",
    )
    serve.add_argument(
        "--shards",
        type=_positive_int,
        default=4,
        help="shard count for --backend sharded (default 4)",
    )
    serve.add_argument(
        "--workdir",
        metavar="DIR",
        help="persist a file-backed index backend under DIR",
    )
    serve.add_argument(
        "--quota-mib",
        type=float,
        default=None,
        metavar="M",
        help="per-tenant logical-byte quota (default: unlimited)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes for the attack pairs (output identical)",
    )
    serve.add_argument(
        "--json", metavar="FILE", help="write the full JSON report to FILE"
    )
    _add_obs_flags(serve)

    net = sub.add_parser(
        "serve-net",
        help="serve the dedup service over a socket and load-generate it",
        description=(
            "Start the asyncio framed-socket frontend over a real Unix "
            "socket (or TCP with --port), then either replay the "
            "synthesized traffic from N client processes and report "
            "sustained req/s and latency percentiles (default), or "
            "replay it in stream order over one connection and prove "
            "the served trace byte-identical to the in-process "
            "simulator (--identity)."
        ),
    )
    net.add_argument("--tenants", type=_positive_int, default=20)
    net.add_argument(
        "--requests",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "total upload requests; rounds = max(1, N // tenants) "
            "(default: 2 rounds)"
        ),
    )
    net.add_argument(
        "--duplication-factor", type=float, default=0.5, metavar="F"
    )
    net.add_argument(
        "--popularity-exponent", type=float, default=1.5, metavar="S"
    )
    net.add_argument(
        "--scheme",
        choices=[scheme.value for scheme in DefenseScheme],
        default="mle",
    )
    net.add_argument(
        "--obfuscate-t",
        type=_positive_int,
        default=None,
        metavar="T",
        help="ciphertext variants for --scheme obfuscate (default 2)",
    )
    net.add_argument(
        "--shaping",
        default="honest",
        metavar="SPEC",
        help=(
            "dedup-response shaping policy ('honest', 'rr:P', "
            "'quantize:B'); shaped responses stay byte-identical "
            "between the socket frontend and the simulator"
        ),
    )
    net.add_argument(
        "--quota-mib",
        type=float,
        default=None,
        metavar="M",
        help="per-tenant logical-byte quota (default: unlimited)",
    )
    net.add_argument(
        "--nodes",
        type=_positive_int,
        default=1,
        metavar="N",
        help="storage-tier nodes behind the frontend (cluster for N > 1)",
    )
    net.add_argument(
        "--routing", choices=("ring", "modulo"), default="ring"
    )
    net.add_argument("--seed", type=int, default=0)
    net.add_argument(
        "--clients",
        type=_positive_int,
        default=2,
        metavar="N",
        help="load-generator client processes (default 2)",
    )
    net.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        metavar="R",
        help="per-tenant admission rate in req/s (0 = unlimited)",
    )
    net.add_argument(
        "--burst",
        type=float,
        default=32.0,
        metavar="B",
        help="per-tenant token-bucket capacity",
    )
    net.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="P",
        help=(
            "serve TCP on 127.0.0.1:P (0 = ephemeral) instead of the "
            "default scratch Unix socket"
        ),
    )
    net.add_argument(
        "--identity",
        action="store_true",
        help=(
            "identity mode: single-connection in-order replay, then "
            "byte-compare the served report against the simulator "
            "(exit 1 on divergence; requires --rate-limit 0)"
        ),
    )
    net.add_argument(
        "--json", metavar="FILE", help="write the JSON report to FILE"
    )
    _add_obs_flags(net)
    _add_faults_flag(net)

    frontier = sub.add_parser(
        "frontier",
        help="sweep the tunable defenses into a leakage/cost frontier",
        description=(
            "Run the defense-frontier grid: every scheme spec through "
            "the encrypted workloads (COUNT inference rate, frequency-"
            "KLD flatness, storage overhead) and every shaping policy "
            "through the service simulator (dedup-signal recall, "
            "bandwidth overhead). Cost columns come from the repro.obs "
            "metrics the cells record. Deterministic at any --jobs."
        ),
    )
    frontier.add_argument(
        "--datasets", default="fsl", metavar="LIST",
        help="comma-separated canonical datasets (default fsl)",
    )
    frontier.add_argument(
        "--schemes",
        default="mle,minhash,combined,obfuscate:1,obfuscate:2,"
        "obfuscate:4,obfuscate:8",
        metavar="LIST",
        help=(
            "comma-separated scheme specs for the storage axis; "
            "parameterized 'obfuscate:T' specs supply the tunable sweep"
        ),
    )
    frontier.add_argument(
        "--attacks", default="basic,locality", metavar="LIST",
        help="comma-separated attacks scored per scheme",
    )
    frontier.add_argument(
        "--policies",
        default="honest,rr:0.25,rr:0.5,rr:1,quantize:4096,quantize:16384",
        metavar="LIST",
        help="comma-separated shaping policy specs for the bandwidth axis",
    )
    frontier.add_argument(
        "--service-schemes", default="mle", metavar="LIST",
        help="schemes the bandwidth-axis service runs under (default mle)",
    )
    frontier.add_argument(
        "--tenants", type=_positive_int, default=8,
        help="bandwidth-axis population size (default 8)",
    )
    frontier.add_argument("--seed", type=int, default=7)
    frontier.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for the grid (report identical at any N)",
    )
    frontier.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "CI grid: 2 obfuscation knobs x 2 attacks plus one shaping "
            "policy (overrides the axis lists)"
        ),
    )
    frontier.add_argument(
        "--output",
        metavar="FILE",
        help="also write the JSON report to FILE",
    )
    frontier.add_argument(
        "--compare",
        metavar="FILE",
        help=(
            "diff rows against a baseline frontier report (env envelope "
            "ignored); exit 1 on drift"
        ),
    )

    storage = sub.add_parser(
        "storage", help="run the DDFS metadata-access experiment"
    )
    storage.add_argument(
        "--cache", choices=("small", "large"), default="small"
    )

    report = sub.add_parser(
        "report", help="summarize figures saved by 'figure all --save DIR'"
    )
    report.add_argument(
        "--results", default="results", help="results directory"
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="emit the summary as JSON (stable key order, scriptable)",
    )

    obs_cmd = sub.add_parser(
        "obs",
        help="render or diff metrics snapshot JSON from --metrics",
        description=(
            "Inspect the snapshot files the --metrics flag exports: "
            "pretty-print one as counter/gauge/histogram tables, or show "
            "the per-metric delta between two runs."
        ),
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_render = obs_sub.add_parser(
        "render", help="pretty-print one snapshot"
    )
    obs_render.add_argument("snapshot", help="snapshot JSON path")
    obs_diff = obs_sub.add_parser(
        "diff", help="per-metric delta between two snapshots"
    )
    obs_diff.add_argument("left", help="baseline snapshot JSON path")
    obs_diff.add_argument("right", help="comparison snapshot JSON path")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.columnar:
        return _generate_columnar(args)
    if args.dataset == "stream":
        raise SystemExit(
            "the 'stream' dataset is trace-scale and only exists in the "
            "columnar layout; add --columnar (and size it with --chunks)"
        )
    series = series_by_name(args.dataset)
    save_series(series, args.output)
    print(
        f"wrote {args.dataset}: {len(series)} backups, "
        f"{sum(len(b) for b in series.backups)} chunk records -> {args.output}"
    )
    return 0


def _generate_columnar(args: argparse.Namespace) -> int:
    """``generate --columnar``: write (or reopen) an on-disk columnar trace."""
    from repro.analysis.workloads import FSL_SEED, SYNTHETIC_SEED

    if args.dataset == "stream":
        from repro.datasets.columnar import StreamConfig, ensure_stream_columnar

        config = StreamConfig(
            chunks=args.chunks,
            backups=args.backups,
            fingerprint_bytes=args.fingerprint_bytes,
        )
        trace = ensure_stream_columnar(args.output, config, seed=args.seed)
    elif args.dataset == "fsl":
        from repro.datasets.fsl import FSLDatasetGenerator

        trace = FSLDatasetGenerator(seed=FSL_SEED).generate_columnar(
            args.output
        )
    elif args.dataset == "synthetic":
        from repro.datasets.synthetic import SyntheticDatasetGenerator

        trace = SyntheticDatasetGenerator(seed=SYNTHETIC_SEED).generate_columnar(
            args.output
        )
    else:
        raise SystemExit(
            f"no columnar writer for dataset {args.dataset!r}; choose from "
            "fsl, synthetic, stream"
        )
    try:
        print(
            f"columnar {trace.name}: {len(trace.backups)} backups, "
            f"{trace.num_chunks} chunk records, {trace.num_unique} unique "
            f"({trace.fingerprint_bytes}-byte fingerprints) -> "
            f"{trace.directory}"
        )
    finally:
        trace.close()
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json as json_module

    series = series_by_name(args.dataset)
    cdf = frequency_cdf(series_frequencies(series))
    if args.json:
        payload = {
            "dataset": series.name,
            "chunking": series.chunking,
            "backups": len(series),
            "labels": series.labels(),
            "logical_bytes": series.logical_bytes,
            "dedup_ratio": round(series.dedup_ratio(), 4),
            "unique_chunks": len(cdf.frequencies),
            "frac_below_100": round(cdf.fraction_below(100), 6),
            "max_frequency": cdf.max_frequency,
        }
        if len(series) >= 2:
            aux, target = series.backups[-2], series.backups[-1]
            payload["last_pair_overlap"] = round(
                content_overlap(aux, target), 6
            )
            payload["adjacency_preservation"] = round(
                adjacency_preservation(aux, target), 6
            )
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"dataset: {series.name} ({series.chunking} chunking)")
    print(f"backups: {len(series)}  labels: {', '.join(series.labels())}")
    print(
        f"logical: {format_size(series.logical_bytes)}  "
        f"dedup ratio: {series.dedup_ratio():.2f}x"
    )
    print(
        f"frequency skew: {cdf.fraction_below(100):.2%} of unique chunks "
        f"occur <100 times; max frequency {cdf.max_frequency}"
    )
    if len(series) >= 2:
        aux, target = series.backups[-2], series.backups[-1]
        print(
            f"last-pair overlap: {content_overlap(aux, target):.2%}  "
            f"adjacency preservation: {adjacency_preservation(aux, target):.2%}"
        )
    return 0


def _scheme_spec(args: argparse.Namespace) -> str:
    """The scheme spec string an ``--scheme``/``--obfuscate-t`` pair names.

    ``--obfuscate-t`` only parameterizes the obfuscation family; on any
    other scheme it is a silent no-op guarded by a stderr warning, like
    the other inapplicable-flag warnings in this module.
    """
    obfuscate_t = getattr(args, "obfuscate_t", None)
    if args.scheme == "obfuscate" and obfuscate_t is not None:
        return f"obfuscate:{obfuscate_t}"
    if obfuscate_t is not None:
        print(
            "warning: --obfuscate-t has no effect without "
            "--scheme obfuscate",
            file=sys.stderr,
        )
    return args.scheme


def _shaping_spec(args: argparse.Namespace) -> str:
    """Validate and canonicalize the ``--shaping`` policy spec."""
    from repro.service.shaping import parse_policy

    return parse_policy(args.shaping).spec()


def _check_attack_flags(args: argparse.Namespace) -> None:
    """Reject the flag sets ``attack`` has no source for; warn (stderr)
    about flags the chosen source ignores."""
    if (args.dataset is None) == (args.columnar is None):
        raise SystemExit(
            "pick exactly one input: a dataset positional, or --columnar DIR"
        )
    if args.columnar is not None:
        if args.scheme != "mle":
            raise SystemExit(
                "--columnar derives the ciphertext side at the vocabulary "
                "level, which exists for the deterministic mle scheme only; "
                "other schemes need the in-RAM pipeline (drop --columnar)"
            )
        if args.nodes > 1:
            raise SystemExit(
                "--columnar and --nodes > 1 are separate experiments; "
                "drop one of the two"
            )
        return
    if args.jobs != 1:
        print(
            "warning: --jobs has no effect without --columnar",
            file=sys.stderr,
        )
    if not 0 <= args.compromised_node < args.nodes:
        raise SystemExit(
            f"compromised node {args.compromised_node} is outside the "
            f"cluster (use 0 .. {args.nodes - 1})"
        )


def _cmd_attack(args: argparse.Namespace) -> int:
    """One attack, one report: the flags pick the adversary's source — an
    on-disk columnar trace, one compromised node's shard of a dataset's
    target, or the whole target."""
    _check_attack_flags(args)
    if args.columnar is not None:
        report = columnar_attack_report(
            args.columnar,
            args.attack,
            auxiliary=args.auxiliary,
            target=args.target,
            leakage_rate=args.leakage_rate,
            seed=args.seed,
            u=args.u,
            v=args.v,
            w=args.w,
            jobs=args.jobs,
        )
    else:
        attack = build_attack(args.attack, args.u, args.v, args.w)
        spec = _scheme_spec(args)
        evaluator = AttackEvaluator(encrypted_series(args.dataset, spec))
        if args.nodes > 1:
            from repro.cluster import partial_view_report

            auxiliary, target = evaluator.pair(args.auxiliary, args.target)
            report = partial_view_report(
                attack,
                target,
                auxiliary,
                nodes=args.nodes,
                routing=args.routing,
                compromised_node=args.compromised_node,
                scheme=spec,
                leakage_rate=args.leakage_rate,
                seed=args.seed,
            )
        else:
            report = evaluator.run(
                attack,
                auxiliary=args.auxiliary,
                target=args.target,
                leakage_rate=args.leakage_rate,
                seed=args.seed,
            )
    print(report)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    numbers = (
        sorted(_FIGURES, key=int) if args.number == "all" else [args.number]
    )
    for index, number in enumerate(numbers):
        if index:
            print()
        result = _FIGURES[number](jobs=args.jobs, cache=args.cache)
        print(render_table(result))
        if args.save:
            path = save_result(result, args.save)
            print(f"saved -> {path}")
    return 0


def _split(text: str, convert) -> tuple:
    return tuple(convert(part) for part in text.split(",") if part)


def _parse_pairs(text: str) -> tuple:
    from repro.scenarios.spec import PAIR, Anchor

    anchors = []
    for part in _split(text, str):
        auxiliary, _, target = part.partition(":")
        try:
            anchor = Anchor(
                mode=PAIR, auxiliary=int(auxiliary), target=int(target)
            )
        except ValueError:
            raise SystemExit(
                f"bad --pairs entry {part!r}; expected AUX:TGT (e.g. -2:-1)"
            ) from None
        anchors.append(anchor)
    return tuple(anchors)


def _validate_sweep_axes(datasets, schemes, attacks) -> None:
    """Reject bad axis values up front, before any worker starts."""
    for dataset in datasets:
        if dataset not in _DATASETS:
            raise SystemExit(
                f"unknown dataset {dataset!r}; choose from {sorted(_DATASETS)}"
            )
    from repro.defenses.obfuscate import parse_scheme

    for scheme in schemes:
        # Accepts plain names and parameterized specs ("obfuscate:4").
        parse_scheme(scheme)
    for attack_name in attacks:
        build_attack(attack_name)


def _validate_leakage_rates(rates) -> None:
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise SystemExit(f"leakage rate {rate} must be in [0, 1]")


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.analysis.reporting import FigureResult
    from repro.scenarios.runner import rows_from, Runner
    from repro.scenarios.spec import AttackParams, ScenarioSpec

    columns = (
        "dataset",
        "scheme",
        "attack",
        "u",
        "v",
        "w",
        "auxiliary",
        "target",
        "leakage_rate",
        "inference_rate",
        "precision",
    )
    params = tuple(
        AttackParams(u=u, v=v, w=w)
        for u in _split(args.u, int)
        for v in _split(args.v, int)
        for w in _split(args.w, int)
    )
    datasets = _split(args.datasets, str)
    schemes = _split(args.schemes, str)
    attacks = _split(args.attacks, str)
    _validate_sweep_axes(datasets, schemes, attacks)
    leakage_rates = _split(args.leakage_rates, float)
    _validate_leakage_rates(leakage_rates)
    cells = []
    for anchor in _parse_pairs(args.pairs):
        spec = ScenarioSpec(
            name="sweep",
            datasets=datasets,
            schemes=schemes,
            attacks=attacks,
            params=params,
            anchor=anchor,
            leakage_rates=leakage_rates,
            seed=args.seed,
        )
        cells.extend(spec.expand())
    runner = Runner(jobs=args.jobs, cache=args.cache)
    results = runner.run_cells(cells)
    result = FigureResult(
        figure="Sweep",
        title=f"{len(cells)} cells (seed {args.seed})",
        columns=list(columns),
    )
    result.rows = rows_from(results, columns)
    print(render_table(result))
    executed = sum(1 for r in results if r.source == "executed")
    cached = sum(1 for r in results if r.source == "cache")
    duplicates = sum(1 for r in results if r.source == "duplicate")
    print(
        f"cells: {len(results)} total, {executed} executed, "
        f"{cached} cached, {duplicates} duplicate",
        file=sys.stderr,
    )
    if args.json:
        payload = {
            "columns": list(columns),
            "rows": result.rows,
            "seed": args.seed,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(payload, handle, indent=2)
        print(f"wrote -> {args.json}", file=sys.stderr)
    return 0


#: The CI smoke grid: two obfuscation knobs x two attacks, one shaping
#: policy against its honest anchor.
_FRONTIER_SMOKE = {
    "datasets": ("fsl",),
    "schemes": ("obfuscate:2", "obfuscate:4"),
    "attacks": ("basic", "locality"),
    "policies": ("honest", "rr:0.5"),
}


def _cmd_frontier(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.analysis.frontier import compare_reports, frontier_report
    from repro.analysis.reporting import FigureResult
    from repro.defenses.obfuscate import parse_scheme
    from repro.service.shaping import parse_policy

    if args.smoke:
        datasets = _FRONTIER_SMOKE["datasets"]
        schemes = _FRONTIER_SMOKE["schemes"]
        attacks = _FRONTIER_SMOKE["attacks"]
        policies = _FRONTIER_SMOKE["policies"]
        service_schemes = ("mle",)
    else:
        datasets = _split(args.datasets, str)
        schemes = _split(args.schemes, str)
        attacks = _split(args.attacks, str)
        policies = _split(args.policies, str)
        service_schemes = _split(args.service_schemes, str)
    _validate_sweep_axes(datasets, schemes, attacks)
    for scheme in service_schemes:
        parse_scheme(scheme)
    for policy in policies:
        parse_policy(policy)

    report = frontier_report(
        datasets=datasets,
        schemes=schemes,
        attacks=attacks,
        policies=policies,
        service_schemes=service_schemes,
        tenants=args.tenants,
        seed=args.seed,
        jobs=args.jobs,
    )

    storage_result = FigureResult(
        figure="Frontier",
        title="storage axis: COUNT leakage vs. dedup loss",
        columns=[
            "dataset", "scheme", "attack", "inference_rate", "kld_bits",
            "storage_overhead", "stored_bytes",
        ],
    )
    storage_result.rows = [
        [row[column] for column in storage_result.columns]
        for row in report["storage"]
    ]
    print(render_table(storage_result))
    print()
    bandwidth_result = FigureResult(
        figure="Frontier",
        title="bandwidth axis: dedup-signal recall vs. padded transfer",
        columns=[
            "scheme", "policy", "dedup_signal_recall", "bandwidth_overhead",
            "mean_inference_rate", "transferred_bytes",
        ],
    )
    bandwidth_result.rows = [
        [row[column] for column in bandwidth_result.columns]
        for row in report["bandwidth"]
    ]
    print(render_table(bandwidth_result))
    for section in ("storage", "bandwidth"):
        for entry in report["monotonicity"][section]:
            verdict = "ok" if entry["non_increasing"] else "VIOLATED"
            label = ", ".join(
                f"{key}={value}"
                for key, value in entry.items()
                if isinstance(value, str)
            )
            print(
                f"monotone non-increasing [{label}]: {verdict}",
                file=sys.stderr,
            )

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json_module.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote -> {args.output}", file=sys.stderr)
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            baseline = json_module.load(handle)
        drifts = compare_reports(report, baseline)
        if drifts:
            for drift in drifts:
                print(f"drift: {drift}", file=sys.stderr)
            return 1
        print(f"no drift vs {args.compare}", file=sys.stderr)
    return 0


def _cmd_storage(args: argparse.Namespace) -> int:
    if args.cache == "small":
        result = figure_drivers.fig13_metadata_small_cache()
        budget = SMALL_CACHE_BYTES
    else:
        result = figure_drivers.fig14_metadata_large_cache()
        budget = LARGE_CACHE_BYTES
    print(f"fingerprint cache budget: {format_size(budget)}")
    print(render_table(result))
    return 0


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.analysis.reporting import FigureResult
    from repro.service.simulate import (
        ATTACK_COLUMNS,
        ServiceConfig,
        service_report,
    )

    rounds = 2
    if args.requests is not None:
        rounds = max(1, args.requests // args.tenants)
    if not 0.0 <= args.duplication_factor <= 1.0:
        raise SystemExit(
            f"duplication factor {args.duplication_factor} must be in [0, 1]"
        )
    if not -1 <= args.auxiliary_tenant < args.tenants:
        raise SystemExit(
            f"auxiliary tenant {args.auxiliary_tenant} is outside the "
            f"population (use -1 for the population auxiliary, or a "
            f"tenant id below {args.tenants})"
        )
    backend = args.backend
    if backend == "sharded":
        backend = f"sharded:{args.shards}"
    backend_path = None
    if args.workdir is not None:
        from pathlib import Path

        if args.backend == "memory":
            raise SystemExit("--workdir requires a persistent --backend")
        workdir = Path(args.workdir)
        if workdir.is_file() or (
            workdir.is_dir() and any(workdir.iterdir())
        ):
            # A persisted index would dedup this run against a previous
            # run's chunks, silently breaking the same-seed determinism
            # guarantee the report makes.
            raise SystemExit(
                f"refusing to reuse non-empty --workdir {args.workdir!r}: "
                "a persisted index changes dedup results; use a fresh "
                "directory"
            )
        # The index persists *under* the directory, like attack
        # --workdir: a database file for sqlite/kvstore, a shard
        # directory for sharded.
        if args.backend == "sharded":
            backend_path = str(workdir / "index-shards")
        else:
            backend_path = str(workdir / "index.db")
    quota_bytes = (
        int(args.quota_mib * MiB) if args.quota_mib is not None else None
    )
    scheme = _scheme_spec(args)
    config = ServiceConfig(
        tenants=args.tenants,
        rounds=rounds,
        duplication_factor=args.duplication_factor,
        popularity_exponent=args.popularity_exponent,
        scheme=scheme,
        backend=backend,
        backend_path=backend_path,
        quota_bytes=quota_bytes,
        nodes=args.nodes,
        routing=args.routing,
        shaping=_shaping_spec(args),
        attack=args.attack,
        auxiliary_tenant=args.auxiliary_tenant,
        attack_targets=args.attack_targets,
        seed=args.seed,
    )
    report = service_report(config, jobs=args.jobs)
    traffic = report["traffic"]
    service = report["service"]
    overlap = report["side_channel"]["overlap"]
    tier = (
        f"nodes: {args.nodes} ({args.routing})  "
        if args.nodes > 1
        else ""
    )
    shaped = (
        f"shaping: {config.shaping}  " if config.shaping != "honest" else ""
    )
    print(
        f"tenants: {args.tenants}  rounds: {rounds}  scheme: {scheme}  "
        f"{tier}{shaped}backend: {backend}  seed: {args.seed}"
    )
    print(
        f"requests: {traffic['requests']} "
        f"({traffic['uploads']} uploads, {traffic['restores']} restores, "
        f"{traffic['rejected_uploads']} rejected)"
    )
    print(
        f"logical {format_size(service['logical_bytes'])}  "
        f"transferred {format_size(service['transferred_bytes'])}  "
        f"dedup ratio {service['dedup_ratio']:.2f}x  "
        f"cross-user dedup rate {service['cross_user_dedup_rate']:.2%}"
    )
    print(
        f"cross-tenant overlap: mean {overlap['mean']:.2%} "
        f"max {overlap['max']:.2%}"
    )
    attack = report["attack"]
    result = FigureResult(
        figure="Serve-sim",
        title=(
            f"{attack['name']} attack, "
            f"mean inference rate {attack['mean_inference_rate']:.2%}"
        ),
        columns=list(ATTACK_COLUMNS),
    )
    result.rows = [list(row) for row in attack["pairs"]]
    print(render_table(result))
    if args.nodes > 1:
        cluster = report["cluster"]
        skew = cluster["skew"]
        partial = cluster["partial_view"]
        print(
            f"cluster: {cluster['total_chunks']} chunks over "
            f"{cluster['nodes']} nodes  "
            f"imbalance {skew['imbalance']:.2f}x  cv {skew['cv']:.2f}"
        )
        print(
            f"partial view (node {partial['compromised_node']} "
            f"compromised): mean inference rate "
            f"{partial['mean_inference_rate']:.2%} "
            f"vs {attack['mean_inference_rate']:.2%} full view"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote -> {args.json}", file=sys.stderr)
    return 0


def _cmd_serve_net(args: argparse.Namespace) -> int:
    import json as json_module
    import os
    import shutil
    import tempfile

    from repro.service.frontend import (
        FrontendConfig,
        FrontendServer,
        build_frontend,
        identity_check,
    )
    from repro.service.loadgen import RetryPolicy, replay_stream, run_loadgen
    from repro.service.simulate import ServiceConfig

    rounds = 2
    if args.requests is not None:
        rounds = max(1, args.requests // args.tenants)
    if not 0.0 <= args.duplication_factor <= 1.0:
        raise SystemExit(
            f"duplication factor {args.duplication_factor} must be in [0, 1]"
        )
    if args.identity and args.rate_limit > 0:
        raise SystemExit(
            "--identity needs admission disabled (--rate-limit 0): a "
            "throttled request would diverge from the simulator"
        )
    scheme = _scheme_spec(args)
    config = ServiceConfig(
        tenants=args.tenants,
        rounds=rounds,
        duplication_factor=args.duplication_factor,
        popularity_exponent=args.popularity_exponent,
        scheme=scheme,
        quota_bytes=(
            int(args.quota_mib * MiB) if args.quota_mib is not None else None
        ),
        nodes=args.nodes,
        routing=args.routing,
        shaping=_shaping_spec(args),
        seed=args.seed,
    )
    frontend = build_frontend(
        config,
        FrontendConfig(rate_limit=args.rate_limit, burst=args.burst),
    )
    scratch = None
    if args.port is not None:
        requested = ("tcp", "127.0.0.1", args.port)
    else:
        scratch = tempfile.mkdtemp(prefix="serve-net-")
        requested = ("unix", os.path.join(scratch, "frontend.sock"))
    tier = f"nodes: {args.nodes} ({args.routing})  " if args.nodes > 1 else ""
    try:
        with FrontendServer(frontend, requested) as address:
            where = (
                f"{address[1]}:{address[2]}"
                if address[0] == "tcp"
                else address[1]
            )
            shaped = (
                f"shaping: {config.shaping}  "
                if config.shaping != "honest"
                else ""
            )
            print(
                f"tenants: {args.tenants}  rounds: {rounds}  "
                f"scheme: {scheme}  {tier}{shaped}seed: {args.seed}  "
                f"listening: {address[0]}://{where}"
            )
            # Under a fault plan the clients must survive what it
            # injects: capped-backoff retries with idempotent re-HELLO
            # resume, seeded from the run seed so reruns are identical.
            retry = (
                RetryPolicy(seed=args.seed)
                if args.faults is not None
                else None
            )
            if args.identity:
                counts = replay_stream(address, config, retry=retry)
                report = {"mode": "identity", "replay": counts}
            else:
                report = run_loadgen(
                    address, config, processes=args.clients, retry=retry
                )
                report["mode"] = "loadgen"
            if obs.enabled():
                # Final server-side engine gauges (cache, bloom FPs,
                # metadata bytes) into the snapshot --metrics exports.
                frontend.service.publish_metrics()
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    injector = faults.active()
    if injector is not None:
        # Server-side injections (client processes count their own
        # retries into the report's "retries" section).
        report["faults"] = injector.summary()
    if args.identity:
        check = identity_check(frontend)
        report["identical"] = check["identical"]
        report["report"] = check["served"]
        counts = report["replay"]
        print(
            f"replayed {counts['requests']} requests in order "
            f"({counts['uploads']} uploads, {counts['restores']} restores, "
            f"{counts['rejected_uploads']} quota-rejected, "
            f"{counts['skipped_restores']} skipped restores)"
        )
        verdict = (
            "IDENTICAL to the in-process simulator"
            if check["identical"]
            else "DIVERGED from the in-process simulator"
        )
        print(f"served trace: {verdict}")
    else:
        latency = report["latency_ms"]
        print(
            f"clients: {report['processes']}  "
            f"sessions: {report['sessions']}  "
            f"requests: {report['requests']} ({report['ok']} ok)"
        )
        print(
            f"sustained {report['requests_per_s']:.0f} req/s over "
            f"{report['elapsed_s']:.2f}s  latency p50 {latency['p50']:.2f}ms "
            f"p99 {latency['p99']:.2f}ms max {latency['max']:.2f}ms"
        )
        if report["errors"]:
            print(
                "errors: "
                + "  ".join(
                    f"{code}={count}"
                    for code, count in report["errors"].items()
                )
            )
        retries = report.get("retries")
        if retries is not None:
            print(
                f"retries: {retries['retries']}  "
                f"reconnects: {retries['reconnects']}  "
                f"gave_up: {retries['gave_up']}"
            )
    if "faults" in report:
        fired = sum(
            site["fired"] for site in report["faults"]["sites"].values()
        )
        print(
            f"faults injected: {fired} "
            f"(plan seed {report['faults']['seed']})"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote -> {args.json}", file=sys.stderr)
    return 0 if not args.identity or report["identical"] else 1


def _cmd_report(args: argparse.Namespace) -> int:
    import json as json_module
    from dataclasses import asdict

    from repro.analysis.summary import render_summary, summarize_results

    lines = summarize_results(args.results)
    if args.json:
        print(
            json_module.dumps(
                [asdict(line) for line in lines], indent=2, sort_keys=True
            )
        )
        return 0
    print(render_summary(lines))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.render import (
        diff_snapshots,
        load_snapshot,
        render_snapshot,
    )

    try:
        if args.obs_command == "render":
            print(render_snapshot(load_snapshot(args.snapshot)))
        else:
            print(
                diff_snapshots(
                    load_snapshot(args.left), load_snapshot(args.right)
                )
            )
    except (OSError, ConfigurationError) as error:
        raise SystemExit(f"obs: {error}") from None
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "attack": _cmd_attack,
    "figure": _cmd_figure,
    "sweep": _cmd_sweep,
    "serve-sim": _cmd_serve_sim,
    "serve-net": _cmd_serve_net,
    "frontier": _cmd_frontier,
    "storage": _cmd_storage,
    "report": _cmd_report,
    "obs": _cmd_obs,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _obs_enable(args)
    _faults_install(args)
    try:
        return _HANDLERS[args.command](args)
    except ConfigurationError as error:
        # The one boundary: bad input exits with its one-line message.
        raise SystemExit(str(error)) from None
    finally:
        faults.clear()
        _obs_export(args)


if __name__ == "__main__":
    sys.exit(main())
