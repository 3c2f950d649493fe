"""Leakage/cost tradeoff frontier for the tunable defense families.

The paper's defenses trade *security for storage* along fixed design
points (MinHash, scrambling).  PR 10 adds two *tunable* families — the
frequency-obfuscated encryptor (``obfuscate:t``,
:mod:`repro.defenses.obfuscate`) and dedup-response shaping
(``rr:p`` / ``quantize:B``, :mod:`repro.service.shaping`) — and this
module sweeps their knobs into one machine-readable frontier:

* the **storage axis** runs each scheme spec through the canonical
  encrypted workloads and scores COUNT leakage (attack inference rate,
  frequency-KLD flatness) against the storage cost of per-variant
  dedup loss;
* the **bandwidth axis** runs each shaping policy through the service
  simulation and scores the dedup side channel that survives shaping
  (dedup-signal recall) against the bandwidth cost of the padded
  responses.

Cells execute through the scenario engine (kind
:data:`DEFENSE_FRONTIER`, registered on import and lazily resolvable by
workers), so the frontier parallelises and crash-retries like every
other grid.  Cost columns are **not** recomputed at assembly time: each
cell records ``frontier.*`` counters through :mod:`repro.obs`, the
runner ships worker snapshots back, and :func:`frontier_report` joins
the merged counters into the rows — the observability layer is the
single source of truth for what an experiment cost.

Frontier runs are deliberately uncached (a cache hit would skip the
cell body and with it the metric recording), which also keeps repeated
``freqdedup frontier`` invocations honest about cost.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro import obs
from repro.analysis.benchmeta import metadata_envelope
from repro.common.errors import ConfigurationError
from repro.obs.metrics import metric_key
from repro.scenarios.cells import register_cell_kind
from repro.scenarios.runner import Runner, rows_from
from repro.scenarios.spec import Cell

DEFENSE_FRONTIER = "defense_frontier"

#: Default grid: the paper's fixed schemes anchor the frontier, the
#: obfuscation sweep supplies the tunable storage axis (``obfuscate:1``
#: is the deterministic anchor — same hash domain as the sweep, so
#: monotonicity is judged within one family).
DEFAULT_DATASETS = ("fsl",)
DEFAULT_SCHEMES = (
    "mle",
    "minhash",
    "combined",
    "obfuscate:1",
    "obfuscate:2",
    "obfuscate:4",
    "obfuscate:8",
)
DEFAULT_ATTACKS = ("basic", "locality")
DEFAULT_POLICIES = (
    "honest",
    "rr:0.25",
    "rr:0.5",
    "rr:1",
    "quantize:4096",
    "quantize:16384",
)

#: Baseline scheme for the storage-cost denominator: deterministic MLE
#: stores every duplicate once, so ``stored / baseline - 1`` is the
#: dedup loss a tunable scheme pays for flattening the COUNT histogram.
BASELINE_SCHEME = "mle"

STORAGE_COLUMNS = (
    "dataset",
    "scheme",
    "attack",
    "inference_rate",
    "kld_bits",
    "storage_overhead",
)
BANDWIDTH_COLUMNS = (
    "scheme",
    "policy",
    "dedup_signal_recall",
    "bandwidth_overhead",
    "mean_inference_rate",
)

# Identity keys for drift comparison (everything else is a measurement).
_STORAGE_IDENTITY = ("dataset", "scheme", "attack")
_BANDWIDTH_IDENTITY = ("scheme", "policy")


def _unique_bytes(backups: Iterable) -> int:
    """Bytes the store holds after dedup: each fingerprint counted once."""
    seen: dict[bytes, int] = {}
    for backup in backups:
        ciphertext = backup.ciphertext
        for fingerprint, size in zip(
            ciphertext.fingerprints, ciphertext.sizes
        ):
            seen.setdefault(fingerprint, size)
    return sum(seen.values())


def _run_storage_cell(params: dict) -> tuple:
    """COUNT leakage vs. storage cost for one dataset x scheme x attack."""
    from repro.analysis.workloads import encrypted_series
    from repro.defenses.obfuscate import frequency_kld
    from repro.scenarios.cells import attack_report

    dataset = params["dataset"]
    scheme = params["scheme"]
    encrypted = encrypted_series(dataset, scheme)
    baseline = encrypted_series(dataset, BASELINE_SCHEME)

    stored = _unique_bytes(encrypted.backups)
    baseline_stored = _unique_bytes(baseline.backups)
    fingerprints: list[bytes] = []
    for backup in encrypted.backups:
        fingerprints.extend(backup.ciphertext.fingerprints)

    report = attack_report(params)

    obs.counter(
        "frontier.stored_bytes", stored, dataset=dataset, scheme=scheme,
        attack=params["attack"],
    )
    obs.counter(
        "frontier.baseline_bytes", baseline_stored, dataset=dataset,
        scheme=scheme, attack=params["attack"],
    )
    overhead = stored / baseline_stored - 1.0 if baseline_stored else 0.0
    return (
        (
            *report.row("inference_rate"),
            ("kld_bits", round(frequency_kld(fingerprints), 4)),
            ("storage_overhead", round(overhead, 4)),
        ),
    )


def _run_bandwidth_cell(params: dict) -> tuple:
    """Dedup-signal recall vs. bandwidth cost for one shaping policy.

    Recall measures how much of the honest dedup side channel a shaped
    response still exposes: per upload the honest protocol reveals
    ``unique - transferred_honest`` deduplicated bytes; shaping hides
    part of that by re-requesting duplicates, leaving
    ``unique - transferred_shaped`` visible.  Summed over uploads,

        recall = sum(unique - shaped) / sum(unique - honest)

    is 1.0 under the honest policy and 0.0 once every duplicate is
    re-transferred (``rr:1``).  The inline COUNT attack rate rides along
    to show what shaping deliberately does *not* change: ciphertexts —
    and with them frequency leakage — are untouched.
    """
    import dataclasses

    from repro.service.simulate import (
        UPLOAD,
        ServiceConfig,
        attack_pairs,
        evaluate_pair,
        simulate,
    )

    config = ServiceConfig(
        tenants=params["tenants"],
        rounds=params["rounds"],
        scheme=params["scheme"],
        shaping=params["policy"],
        seed=params["seed"],
    )
    honest_config = dataclasses.replace(config, shaping="honest")
    shaped = simulate(config)
    honest = simulate(honest_config)

    shaped_uploads = [
        record for record in shaped.meter.observables if record.kind == UPLOAD
    ]
    honest_uploads = [
        record for record in honest.meter.observables if record.kind == UPLOAD
    ]
    shaped_bytes = sum(record.transferred_bytes for record in shaped_uploads)
    honest_bytes = sum(record.transferred_bytes for record in honest_uploads)
    unique_bytes = sum(record.unique_bytes for record in honest_uploads)
    signal = unique_bytes - honest_bytes
    recall = (unique_bytes - shaped_bytes) / signal if signal else 1.0

    rates = [
        evaluate_pair(shaped, auxiliary, target)["inference_rate"]
        for auxiliary, target in attack_pairs(config)
    ]
    mean_rate = round(sum(rates) / len(rates), 5) if rates else 0.0

    obs.counter(
        "frontier.transferred_bytes", shaped_bytes,
        scheme=params["scheme"], policy=params["policy"],
    )
    obs.counter(
        "frontier.honest_bytes", honest_bytes,
        scheme=params["scheme"], policy=params["policy"],
    )
    overhead = shaped_bytes / honest_bytes - 1.0 if honest_bytes else 0.0
    return (
        (
            ("dedup_signal_recall", round(recall, 5)),
            ("bandwidth_overhead", round(overhead, 4)),
            ("mean_inference_rate", mean_rate),
        ),
    )


def _run_frontier_cell(params: dict) -> tuple:
    axis = params.get("axis")
    if axis == "storage":
        return _run_storage_cell(params)
    if axis == "bandwidth":
        return _run_bandwidth_cell(params)
    raise ConfigurationError(f"unknown frontier axis {axis!r}")


register_cell_kind(DEFENSE_FRONTIER, _run_frontier_cell)


def storage_cells(
    datasets: Sequence[str],
    schemes: Sequence[str],
    attacks: Sequence[str],
    seed: int = 0,
) -> list[Cell]:
    """Storage-axis cells: dataset x scheme spec x attack.

    The attack anchors at the paper's default pair (previous backup as
    auxiliary, latest as target) with ciphertext-only leakage.
    """
    from repro.defenses.obfuscate import parse_scheme

    cells = []
    for dataset in datasets:
        for scheme in schemes:
            parse_scheme(scheme)  # fail fast on bad specs
            for attack in attacks:
                params = {
                    "axis": "storage",
                    "dataset": dataset,
                    "scheme": scheme,
                    "attack": attack,
                    "u": 1,
                    "v": 15,
                    "w": 200_000,
                    "auxiliary": -2,
                    "target": -1,
                    "leakage_rate": 0.0,
                    "seed": seed,
                }
                tags = {
                    "dataset": dataset,
                    "scheme": scheme,
                    "attack": attack,
                }
                cells.append(
                    Cell(
                        kind=DEFENSE_FRONTIER,
                        params=tuple(sorted(params.items())),
                        tags=tuple(sorted(tags.items())),
                    )
                )
    return cells


def bandwidth_cells(
    schemes: Sequence[str],
    policies: Sequence[str],
    tenants: int = 8,
    rounds: int = 2,
    seed: int = 7,
) -> list[Cell]:
    """Bandwidth-axis cells: service scheme x shaping policy."""
    from repro.service.shaping import parse_policy

    cells = []
    for scheme in schemes:
        for policy in policies:
            spec = parse_policy(policy).spec()  # validate + canonicalize
            params = {
                "axis": "bandwidth",
                "scheme": scheme,
                "policy": spec,
                "tenants": tenants,
                "rounds": rounds,
                "seed": seed,
            }
            tags = {"scheme": scheme, "policy": spec}
            cells.append(
                Cell(
                    kind=DEFENSE_FRONTIER,
                    params=tuple(sorted(params.items())),
                    tags=tuple(sorted(tags.items())),
                )
            )
    return cells


def _counter(counters: dict, name: str, **labels) -> int | None:
    return counters.get(metric_key(name, labels))


def _non_increasing(values: Sequence[float], tolerance: float = 0.0) -> bool:
    return all(
        later <= earlier + tolerance
        for earlier, later in zip(values, values[1:])
    )


def _obfuscate_sweep(schemes: Sequence[str]) -> list[tuple[int, str]]:
    """The ``(variants, spec)`` pairs of the obfuscation family, sorted
    by knob — the axis monotonicity is judged along."""
    from repro.defenses.obfuscate import parse_scheme
    from repro.defenses.pipeline import DefenseScheme

    sweep = []
    for scheme in schemes:
        parsed, variants = parse_scheme(scheme)
        if parsed is DefenseScheme.OBFUSCATE:
            sweep.append((variants, scheme))
    return sorted(sweep)


def _rr_sweep(policies: Sequence[str]) -> list[tuple[float, str]]:
    from repro.service.shaping import RANDOMIZED_RESPONSE, parse_policy

    sweep = []
    for policy in policies:
        parsed = parse_policy(policy)
        if parsed.mode == RANDOMIZED_RESPONSE:
            sweep.append((parsed.flip_probability, parsed.spec()))
        elif parsed.mode == "honest":
            sweep.append((0.0, parsed.spec()))
    return sorted(sweep)


def frontier_report(
    datasets: Sequence[str] = DEFAULT_DATASETS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    attacks: Sequence[str] = DEFAULT_ATTACKS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    service_schemes: Sequence[str] = (BASELINE_SCHEME,),
    tenants: int = 8,
    rounds: int = 2,
    seed: int = 7,
    jobs: int = 1,
) -> dict:
    """Run the full frontier grid and assemble the tradeoff report.

    Metrics are force-enabled for the duration of the run (prior
    recorded state is saved and merged back afterwards, and the
    enable/disable switches are restored), because the cost columns are
    *read from* the observability layer rather than recomputed here.
    """
    cells = storage_cells(datasets, schemes, attacks, seed=seed)
    cells += bandwidth_cells(
        service_schemes, policies, tenants=tenants, rounds=rounds, seed=seed
    )
    storage_count = len(cells) - len(policies) * len(service_schemes)

    prior_metrics = obs.enabled()
    prior_tracing = obs.tracing_enabled()
    obs.enable(metrics=True)
    saved = obs.registry().snapshot()
    obs.registry().clear()
    try:
        results = Runner(jobs=jobs, cache=None).run_cells(cells)
        counters = obs.snapshot()["counters"]
    finally:
        obs.registry().clear()
        if not prior_metrics:
            obs.disable()
            if prior_tracing:
                obs.enable(metrics=False, tracing=True)
        obs.merge_snapshot(saved)

    storage_rows = [
        dict(zip(STORAGE_COLUMNS, row))
        for row in rows_from(results[:storage_count], STORAGE_COLUMNS)
    ]
    bandwidth_rows = [
        dict(zip(BANDWIDTH_COLUMNS, row))
        for row in rows_from(results[storage_count:], BANDWIDTH_COLUMNS)
    ]
    for row in storage_rows:
        labels = {
            "dataset": row["dataset"],
            "scheme": row["scheme"],
            "attack": row["attack"],
        }
        row["stored_bytes"] = _counter(
            counters, "frontier.stored_bytes", **labels
        )
        row["baseline_bytes"] = _counter(
            counters, "frontier.baseline_bytes", **labels
        )
    for row in bandwidth_rows:
        labels = {"scheme": row["scheme"], "policy": row["policy"]}
        row["transferred_bytes"] = _counter(
            counters, "frontier.transferred_bytes", **labels
        )
        row["honest_bytes"] = _counter(
            counters, "frontier.honest_bytes", **labels
        )

    monotonicity = {"storage": [], "bandwidth": []}
    sweep = _obfuscate_sweep(schemes)
    for dataset in datasets:
        for attack in attacks:
            rates = [
                row["inference_rate"]
                for _, spec in sweep
                for row in storage_rows
                if row["dataset"] == dataset
                and row["attack"] == attack
                and row["scheme"] == spec
            ]
            if len(rates) >= 2:
                monotonicity["storage"].append(
                    {
                        "dataset": dataset,
                        "attack": attack,
                        "axis": "obfuscate_variants",
                        "inference_rates": rates,
                        "non_increasing": _non_increasing(rates),
                    }
                )
    rr = _rr_sweep(policies)
    for scheme in service_schemes:
        recalls = [
            row["dedup_signal_recall"]
            for _, spec in rr
            for row in bandwidth_rows
            if row["scheme"] == scheme and row["policy"] == spec
        ]
        if len(recalls) >= 2:
            monotonicity["bandwidth"].append(
                {
                    "scheme": scheme,
                    "axis": "flip_probability",
                    "dedup_signal_recalls": recalls,
                    "non_increasing": _non_increasing(recalls),
                }
            )

    return {
        "env": metadata_envelope(),
        "grid": {
            "datasets": list(datasets),
            "schemes": list(schemes),
            "attacks": list(attacks),
            "policies": [p if isinstance(p, str) else p.spec() for p in policies],
            "service_schemes": list(service_schemes),
            "tenants": tenants,
            "rounds": rounds,
            "seed": seed,
        },
        "storage": storage_rows,
        "bandwidth": bandwidth_rows,
        "monotonicity": monotonicity,
    }


def compare_reports(current: dict, baseline: dict) -> list[str]:
    """Row-level drift between two frontier reports.

    The ``env`` envelope is ignored (it is machine-specific by design);
    rows are matched on their identity keys and every measurement field
    must be equal — these are deterministic reproductions, so any drift
    is a real behavior change.

    Returns:
        Human-readable drift descriptions; empty means identical.
    """
    drifts: list[str] = []
    for section, identity in (
        ("storage", _STORAGE_IDENTITY),
        ("bandwidth", _BANDWIDTH_IDENTITY),
    ):
        current_rows = {
            tuple(row[key] for key in identity): row
            for row in current.get(section, ())
        }
        baseline_rows = {
            tuple(row[key] for key in identity): row
            for row in baseline.get(section, ())
        }
        for key in sorted(
            set(current_rows) - set(baseline_rows), key=repr
        ):
            drifts.append(f"{section}: row {key!r} missing from baseline")
        for key in sorted(
            set(baseline_rows) - set(current_rows), key=repr
        ):
            drifts.append(f"{section}: row {key!r} missing from current")
        for key in sorted(
            set(current_rows) & set(baseline_rows), key=repr
        ):
            row, other = current_rows[key], baseline_rows[key]
            for field in sorted(set(row) | set(other)):
                if row.get(field) != other.get(field):
                    drifts.append(
                        f"{section}: row {key!r} field {field}: "
                        f"{row.get(field)!r} != baseline {other.get(field)!r}"
                    )
    return drifts
