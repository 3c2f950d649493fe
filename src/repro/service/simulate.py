"""End-to-end service simulation: traffic → service → meter → report.

:func:`simulate` drives one :class:`~repro.service.traffic.TrafficModel`
stream through a :class:`~repro.service.server.DedupService` under a
:class:`~repro.service.meter.SideChannelMeter` and memoises the resulting
:class:`ServiceTrace` per process — the same economics as the canonical
workload registry (:mod:`repro.analysis.workloads`): the parent process
(or each forked worker) pays for a given configuration at most once.

:func:`service_report` is what ``freqdedup serve-sim`` and the throughput
benchmark share: it assembles a fully deterministic, JSON-serializable
report and runs the cross-tenant attack pairs through the scenario
engine's :class:`~repro.scenarios.runner.Runner` (cells of kind
``service_attack``, see :mod:`repro.service.cells`), so ``--jobs N``
fans the attacks out across processes with byte-identical output.

:func:`service_grid_cells` is the grid axis for scenario sweeps: one
``service`` cell per (tenants × popularity-skew × duplication-factor)
combination, each returning the simulation's headline metrics as a row.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, replace

from repro import obs
from repro.attacks.evaluation import build_attack
from repro.common.errors import QuotaExceededError
from repro.scenarios.spec import Cell, Tags
from repro.service.meter import SideChannelMeter
from repro.service.server import DedupService
from repro.service.traffic import (
    RESTORE,
    UPLOAD,
    TrafficConfig,
    TrafficModel,
)


@dataclass(frozen=True)
class ServiceConfig:
    """One full service experiment: population, service, and attack knobs.

    Frozen and built from primitives only, so a config is hashable (the
    :func:`simulate` memoisation key) and its fields embed directly into
    scenario-cell params (the cache identity).
    """

    tenants: int = 20
    rounds: int = 2
    files_per_tenant: int = 12
    mean_file_chunks: int = 16
    duplication_factor: float = 0.5
    popularity_exponent: float = 1.5
    num_templates: int = 40
    modify_fraction: float = 0.25
    churn: float = 0.2
    restore_probability: float = 0.1
    popular_rate: float = 0.08
    scheme: str = "mle"
    backend: str = "memory"
    backend_path: str | None = None
    quota_bytes: int | None = None
    # Storage-tier shape: 1 node serves from one shared engine (the
    # pre-cluster service, byte-identical reports); N > 1 fronts a
    # DedupCluster of N engines behind the chosen routing policy.
    nodes: int = 1
    routing: str = "ring"
    # Dedup-response shaping policy spec ("honest", "rr:p",
    # "quantize:bytes"); "honest" is the pre-shaping protocol and is
    # elided from report config echoes, keeping them byte-identical.
    shaping: str = "honest"
    attack: str = "advanced"
    u: int = 1
    v: int = 15
    w: int = 200_000
    # The adversary's prior knowledge: -1 evaluates the curious-provider
    # model (population auxiliary: everything every other tenant uploaded,
    # the journal extension's strongest multi-tenant adversary); a tenant
    # id evaluates the curious-tenant model (that tenant's last upload).
    auxiliary_tenant: int = -1
    attack_targets: int = 4
    seed: int = 0


CONFIG_FIELDS = tuple(
    field.name for field in dataclasses.fields(ServiceConfig)
)


def config_params(config: ServiceConfig) -> Tags:
    """The config as sorted ``(field, value)`` pairs (cell params)."""
    return tuple(sorted(dataclasses.asdict(config).items()))


def config_from_params(params: dict) -> ServiceConfig:
    """Rebuild a config from cell params (extra keys are ignored)."""
    return ServiceConfig(
        **{name: params[name] for name in CONFIG_FIELDS if name in params}
    )


@dataclass
class ServiceTrace:
    """Everything one simulated service run produced."""

    config: ServiceConfig
    service: DedupService
    meter: SideChannelMeter
    rejected_uploads: int = 0
    skipped_restores: int = 0


def _traffic_config(config: ServiceConfig) -> TrafficConfig:
    return TrafficConfig(
        tenants=config.tenants,
        rounds=config.rounds,
        files_per_tenant=config.files_per_tenant,
        mean_file_chunks=config.mean_file_chunks,
        duplication_factor=config.duplication_factor,
        popularity_exponent=config.popularity_exponent,
        num_templates=config.num_templates,
        modify_fraction=config.modify_fraction,
        churn=config.churn,
        restore_probability=config.restore_probability,
        popular_rate=config.popular_rate,
    )


# Per-process traffic memo: the synthesized request stream depends only on
# (seed, TrafficConfig), not on the service/backend/attack knobs, so one
# stream serves every backend variant of the same population. Requests
# are treated read-only by the service, so sharing the list is safe.
_TRAFFIC_CACHE: OrderedDict[tuple[int, TrafficConfig], list] = OrderedDict()
_TRAFFIC_CACHE_SIZE = 4


def synthesize_requests(seed: int, traffic: TrafficConfig) -> list:
    """The deterministic request stream for one population (memoised)."""
    key = (seed, traffic)
    requests = _TRAFFIC_CACHE.get(key)
    if requests is None:
        requests = TrafficModel(seed=seed, config=traffic).requests()
        _TRAFFIC_CACHE[key] = requests
        while len(_TRAFFIC_CACHE) > _TRAFFIC_CACHE_SIZE:
            _TRAFFIC_CACHE.popitem(last=False)
    else:
        _TRAFFIC_CACHE.move_to_end(key)
    return requests


# Per-process trace memo.  A plain lru_cache would evict traces without
# releasing their index backends (an open file/connection for sqlite and
# sharded stores), so eviction closes the evicted trace's service.
_TRACE_CACHE: OrderedDict[ServiceConfig, ServiceTrace] = OrderedDict()
_TRACE_CACHE_SIZE = 4


def _evict_trace(trace: ServiceTrace) -> None:
    trace.service.close()


def simulate(config: ServiceConfig) -> ServiceTrace:
    """Run the full simulation for ``config`` (memoised per process).

    At most :data:`_TRACE_CACHE_SIZE` traces stay resident; the least-
    recently-used one is closed (open container sealed, index backend
    released) on eviction, so grid sweeps over many configs don't leak
    backend handles.
    """
    trace = _TRACE_CACHE.get(config)
    if trace is not None:
        _TRACE_CACHE.move_to_end(config)
        return trace
    trace = _simulate(config)
    _TRACE_CACHE[config] = trace
    while len(_TRACE_CACHE) > _TRACE_CACHE_SIZE:
        _, evicted = _TRACE_CACHE.popitem(last=False)
        _evict_trace(evicted)
    return trace


def traffic_requests(config: ServiceConfig) -> list:
    """The (memoised) request stream behind ``config``'s population."""
    return synthesize_requests(config.seed, _traffic_config(config))


def build_service(config: ServiceConfig) -> DedupService:
    """The service a config describes (shared with the socket frontend).

    The in-process simulator and the framed-socket frontend both build
    their service through this one constructor call, which is half of
    the identity argument: same config, same engine knobs, so any
    divergence between the two can only come from the serving order.
    """
    return DedupService(
        scheme=config.scheme,
        index_backend=config.backend,
        index_path=config.backend_path,
        default_quota_bytes=config.quota_bytes,
        seed=config.seed,
        nodes=config.nodes,
        routing=config.routing,
        shaping=config.shaping,
    )


def _simulate(config: ServiceConfig) -> ServiceTrace:
    requests = traffic_requests(config)
    service = build_service(config)
    meter = SideChannelMeter(scheme=service.scheme)
    trace = ServiceTrace(config=config, service=service, meter=meter)
    for request in requests:
        if request.kind == UPLOAD:
            try:
                result = service.upload(
                    request.tenant, request.backup, label=request.label
                )
            except QuotaExceededError:
                trace.rejected_uploads += 1
                continue
            meter.observe_upload(request, result)
        else:
            # A quota-rejected upload leaves no recipe to restore from.
            if not service.has_upload(request.tenant, request.restore_label):
                trace.skipped_restores += 1
                continue
            observables, _ = service.restore(
                request.tenant, request.restore_label
            )
            meter.observe_restore(observables)
    return trace


# -- cross-tenant attack pairs ---------------------------------------------

ATTACK_COLUMNS = (
    "auxiliary_tenant",
    "target_tenant",
    "auxiliary",
    "target",
    "overlap",
    "inference_rate",
    "precision",
)


def attack_pairs(config: ServiceConfig) -> tuple[tuple[int, int], ...]:
    """The evaluated (auxiliary tenant, target tenant) pairs.

    Population mode (``auxiliary_tenant == -1``): the first
    ``attack_targets`` tenants are victims of the curious provider.
    Tenant mode: the configured tenant is the curious insider, the first
    ``attack_targets`` *other* tenants are victims.
    """
    auxiliary = config.auxiliary_tenant
    if auxiliary < 0:
        victims = range(min(config.tenants, config.attack_targets))
        return tuple((-1, target) for target in victims)
    victims = [
        tenant for tenant in range(config.tenants) if tenant != auxiliary
    ]
    return tuple(
        (auxiliary, target)
        for target in victims[: config.attack_targets]
    )


def pair_served(
    meter: SideChannelMeter, auxiliary_tenant: int, target_tenant: int
) -> bool:
    """Whether both ends of an attack pair completed at least one upload.

    A pair that fails this check (e.g. every upload was quota-rejected)
    scores a zero row instead of failing — the shared convention of
    :func:`evaluate_pair` and :func:`cluster_report`, which keeps
    reports over throttled populations deterministic and comparable.
    """
    auxiliary = None if auxiliary_tenant < 0 else auxiliary_tenant
    served = set(meter.tenants())
    return target_tenant in served and (
        auxiliary is None or auxiliary in served
    )


def evaluate_pair(
    trace: ServiceTrace, auxiliary_tenant: int, target_tenant: int
) -> dict[str, object]:
    """Score one cross-tenant attack on a simulated trace
    (``auxiliary_tenant == -1`` selects the population auxiliary).

    Pairs that fail :func:`pair_served` score a zero row (see there).
    """
    config = trace.config
    meter = trace.meter
    auxiliary = None if auxiliary_tenant < 0 else auxiliary_tenant
    if not pair_served(meter, auxiliary_tenant, target_tenant):
        return {
            "auxiliary_tenant": auxiliary_tenant,
            "target_tenant": target_tenant,
            "auxiliary": "-",
            "target": "-",
            "overlap": 0.0,
            "inference_rate": 0.0,
            "precision": 0.0,
            "correct_pairs": 0,
            "inferred_pairs": 0,
            "unique_ciphertext_chunks": 0,
        }
    attack = build_attack(config.attack, config.u, config.v, config.w)
    report = meter.evaluate(attack, auxiliary, target_tenant)
    return {
        "auxiliary_tenant": auxiliary_tenant,
        "target_tenant": target_tenant,
        **dict(report.row("auxiliary", "target")),
        "overlap": round(trace.meter.overlap(auxiliary, target_tenant), 4),
        **dict(
            report.row(
                "inference_rate",
                "precision",
                "correct_pairs",
                "inferred_pairs",
                "unique_ciphertext_chunks",
            )
        ),
    }


def attack_cells(config: ServiceConfig) -> tuple[Cell, ...]:
    """One ``service_attack`` cell per cross-tenant pair."""
    base = dict(config_params(config))
    cells = []
    for auxiliary_tenant, target_tenant in attack_pairs(config):
        params = dict(base)
        params["auxiliary_tenant"] = auxiliary_tenant
        params["target_tenant"] = target_tenant
        cells.append(
            Cell(
                kind="service_attack",
                params=tuple(sorted(params.items())),
                tags=(
                    ("auxiliary_tenant", auxiliary_tenant),
                    ("target_tenant", target_tenant),
                ),
            )
        )
    return tuple(cells)


# -- headline metrics and the JSON report -----------------------------------


def headline_metrics(trace: ServiceTrace) -> dict[str, object]:
    """Service-wide totals plus the side-channel headline numbers.

    ``cross_user_dedup_rate`` measures leakage-relevant deduplication:
    over round-0 uploads (each tenant's first, so the store holds no own
    history), the fraction of *unique-chunk* bytes the server already
    had.  Using unique bytes excludes intra-upload self-duplicates — a
    tenant's own repeated content — which are deduplicated too but leak
    nothing across users; a single-tenant population scores 0.
    """
    uploads = [
        record
        for record in trace.meter.observables
        if record.kind == UPLOAD
    ]
    restores = [
        record
        for record in trace.meter.observables
        if record.kind == RESTORE
    ]
    logical = sum(record.logical_bytes for record in uploads)
    transferred = sum(record.transferred_bytes for record in uploads)
    metadata = sum(record.metadata_bytes for record in trace.meter.observables)
    round0 = [
        record
        for round_index, record in trace.meter.upload_records()
        if round_index == 0
    ]
    round0_unique = sum(record.unique_bytes for record in round0)
    round0_transferred = sum(record.transferred_bytes for record in round0)
    return {
        "uploads": len(uploads),
        "restores": len(restores),
        "logical_bytes": logical,
        "transferred_bytes": transferred,
        "deduped_bytes": logical - transferred,
        "metadata_bytes": metadata,
        "dedup_ratio": round(logical / transferred, 4) if transferred else 0.0,
        "cross_user_dedup_rate": round(
            1.0 - round0_transferred / round0_unique, 4
        )
        if round0_unique
        else 0.0,
        "unique_chunks_stored": trace.service.unique_chunks_stored(),
    }


def cluster_report(
    trace: ServiceTrace, compromised_node: int = 0
) -> dict[str, object]:
    """The clustered run's extra report section (``nodes > 1`` only).

    Per-node load/bandwidth/skew metering from
    :meth:`~repro.cluster.cluster.DedupCluster.load_report`, plus the
    partial-view attack rows: the configured attack pairs re-run with
    the adversary demoted from the whole store to ``compromised_node``'s
    shard (:meth:`~repro.service.meter.SideChannelMeter.evaluate_partial`).
    Computed in the calling process — deterministic at any ``jobs``.
    """
    config = trace.config
    cluster = trace.service.cluster
    report = cluster.load_report()
    attack = build_attack(config.attack, config.u, config.v, config.w)
    pairs = []
    rates = []
    for auxiliary_tenant, target_tenant in attack_pairs(config):
        auxiliary = None if auxiliary_tenant < 0 else auxiliary_tenant
        if not pair_served(trace.meter, auxiliary_tenant, target_tenant):
            # Zero-row convention shared with evaluate_pair (pair_served).
            pairs.append(
                {
                    "auxiliary_tenant": auxiliary_tenant,
                    "target_tenant": target_tenant,
                    "shard_fraction": 0.0,
                    "inference_rate": 0.0,
                }
            )
            rates.append(0.0)
            continue
        view = trace.meter.evaluate_partial(
            attack,
            auxiliary,
            target_tenant,
            cluster.router,
            compromised_node,
        )
        pairs.append(
            {
                "auxiliary_tenant": auxiliary_tenant,
                "target_tenant": target_tenant,
                "shard_fraction": round(view.shard_fraction, 5),
                **dict(view.report.row("inference_rate")),
            }
        )
        rates.append(view.report.inference_rate)
    report["partial_view"] = {
        "compromised_node": compromised_node,
        "pairs": pairs,
        "mean_inference_rate": round(sum(rates) / len(rates), 5)
        if rates
        else 0.0,
    }
    return report


def service_report(
    config: ServiceConfig, jobs: int = 1, cache=None
) -> dict[str, object]:
    """The full deterministic report behind ``freqdedup serve-sim``.

    The simulation itself runs (memoised) in the calling process; the
    cross-tenant attack pairs run as ``service_attack`` cells through the
    scenario :class:`~repro.scenarios.runner.Runner`, whose spec-order
    merge makes the report byte-identical at any ``jobs`` value (forked
    workers inherit the memoised trace and only pay for their attacks).

    Single-node configs produce the exact pre-cluster report (the
    ``nodes``/``routing`` keys are elided from the config echo and no
    ``cluster`` section appears), so existing pinned reports stay
    byte-identical.  Clustered configs add a ``cluster`` section: per-
    node load and skew, rebalance history, and the partial-view attack
    rows for the default compromised node.
    """
    from repro.scenarios.runner import Runner, rows_from

    trace = simulate(config)
    if obs.enabled():
        # Engine-lifetime gauges (cache hit/miss, bloom FPs, metadata
        # bytes) for the --metrics snapshot; a no-op on the pinned
        # report itself.
        trace.service.publish_metrics()
    results = Runner(jobs=jobs, cache=cache).run_cells(
        list(attack_cells(config))
    )
    rows = rows_from(results, ATTACK_COLUMNS)
    return trace_report(trace, rows)


def trace_report(
    trace: ServiceTrace, rows: list[list[object]]
) -> dict[str, object]:
    """Assemble the full report dict from a trace and its attack rows.

    This is the body of :func:`service_report` with the attack-pair
    execution factored out: the CLI path feeds rows fanned out through
    the scenario :class:`~repro.scenarios.runner.Runner`, while
    :func:`inline_report` (the socket frontend's identity mode) feeds
    rows evaluated inline on an arbitrary trace.  Both paths produce the
    identical structure, so served and simulated traces compare
    byte-for-byte with ``json.dumps``.
    """
    config = trace.config
    meter = trace.meter
    rate_index = ATTACK_COLUMNS.index("inference_rate")
    rates = [row[rate_index] for row in rows]
    service_totals = headline_metrics(trace)
    config_echo = dict(config_params(config))
    if config.nodes == 1:
        # Keep single-node reports byte-identical to the pre-cluster
        # service: the tier shape only appears once it is non-trivial.
        del config_echo["nodes"]
        del config_echo["routing"]
    if config.shaping == "honest":
        # Same elision discipline for response shaping: the honest
        # policy is the pre-shaping protocol, so its key only appears
        # once a run actually shapes.
        del config_echo["shaping"]
    report = {
        "config": config_echo,
        "traffic": {
            "requests": len(meter.observables)
            + trace.rejected_uploads
            + trace.skipped_restores,
            "uploads": service_totals.pop("uploads"),
            "restores": service_totals.pop("restores"),
            "rejected_uploads": trace.rejected_uploads,
            "skipped_restores": trace.skipped_restores,
        },
        "service": service_totals,
        "tenants": [
            trace.service.tenant_usage(tenant)
            for tenant in trace.service.tenants()
        ],
        "side_channel": {
            "bandwidth_signal": meter.bandwidth_signal(),
            "overlap": meter.overlap_summary(),
        },
        "attack": {
            "name": config.attack,
            "columns": list(ATTACK_COLUMNS),
            "pairs": rows,
            "mean_inference_rate": round(sum(rates) / len(rates), 5)
            if rates
            else 0.0,
        },
    }
    if config.nodes > 1:
        report["cluster"] = cluster_report(trace)
    return report


def inline_report(trace: ServiceTrace) -> dict[str, object]:
    """The full report for an *arbitrary* trace, attack pairs inline.

    :func:`service_report` only works for traces the simulator can
    rebuild from a config (its attack cells re-simulate in workers).
    A trace served through the socket frontend exists once, in one
    process, so its attack pairs run inline here instead — through the
    same :func:`evaluate_pair` the ``service_attack`` cells execute,
    projected onto :data:`ATTACK_COLUMNS` exactly like the runner's
    ``rows_from`` merge.  For a simulated trace the two paths are
    byte-identical, which is what lets the differential tests compare a
    served trace against ``service_report`` output with ``json.dumps``.
    """
    rows = [
        [
            evaluate_pair(trace, auxiliary_tenant, target_tenant)[column]
            for column in ATTACK_COLUMNS
        ]
        for auxiliary_tenant, target_tenant in attack_pairs(trace.config)
    ]
    return trace_report(trace, rows)


# -- scenario grid axis ------------------------------------------------------

SERVICE_GRID_COLUMNS = (
    "tenants",
    "popularity_exponent",
    "duplication_factor",
    "cross_user_dedup_rate",
    "dedup_ratio",
    "mean_overlap",
    "mean_inference_rate",
)


def service_grid_cells(
    base: ServiceConfig | None = None,
    tenants: tuple[int, ...] | None = None,
    popularity_exponents: tuple[float, ...] | None = None,
    duplication_factors: tuple[float, ...] | None = None,
) -> tuple[Cell, ...]:
    """Expand a tenants × popularity-skew × duplication-factor grid into
    ``service`` cells (one full simulation each; row columns are
    :data:`SERVICE_GRID_COLUMNS`).  Run them with the scenario
    :class:`~repro.scenarios.runner.Runner` like any other cells."""
    base = base if base is not None else ServiceConfig()
    tenants = tenants if tenants is not None else (base.tenants,)
    popularity_exponents = (
        popularity_exponents
        if popularity_exponents is not None
        else (base.popularity_exponent,)
    )
    duplication_factors = (
        duplication_factors
        if duplication_factors is not None
        else (base.duplication_factor,)
    )
    cells = []
    for num_tenants in tenants:
        for exponent in popularity_exponents:
            for factor in duplication_factors:
                config = replace(
                    base,
                    tenants=num_tenants,
                    popularity_exponent=exponent,
                    duplication_factor=factor,
                )
                cells.append(
                    Cell(
                        kind="service",
                        params=config_params(config),
                        tags=(
                            ("tenants", num_tenants),
                            ("popularity_exponent", exponent),
                            ("duplication_factor", factor),
                        ),
                    )
                )
    return tuple(cells)
