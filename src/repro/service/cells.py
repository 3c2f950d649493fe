"""Scenario-engine cell kinds for the service layer.

Importing this module registers three cell kinds with
:mod:`repro.scenarios.cells` (the engine lazy-loads it on first use, so
specs and cells can name these kinds without importing the service):

* ``service_attack`` — one cross-tenant attack pair over one simulated
  trace.  All pairs of a report share one config, so the registered
  *warmer* runs the simulation in the parent before workers fork; each
  forked worker then inherits the memoised trace and only pays for its
  own attack runs.
* ``service`` — one full simulation per cell, reduced to the headline
  metrics row (:data:`repro.service.simulate.SERVICE_GRID_COLUMNS`).
  These cells fan a (tenants × popularity-skew × duplication-factor)
  grid across processes, so they deliberately have **no** warmer: each
  worker simulating its own cell's config *is* the parallel work.
* ``serve_net`` — one *served* run per cell: a real socket frontend
  (:mod:`repro.service.frontend`) over a Unix socket in a scratch
  directory, driven by an in-order :func:`replay_stream`, reduced to
  headline metrics plus the ``identical_to_sim`` differential verdict.
  Identity-ordered replay with admission disabled is deterministic, so
  these rows cache like any simulated cell.

Both kinds sit on the per-process memo pair in
:mod:`repro.service.simulate`: the trace memo (what the
``service_attack`` warmer fills before workers fork) and the traffic
memo, which lets cells whose configs differ only in service/backend/
attack knobs — not in population — reuse one synthesized request
stream instead of regenerating it per cell.
"""

from __future__ import annotations

import os
import shutil
import tempfile

from repro.scenarios.cells import register_cell_kind
from repro.service.simulate import (
    attack_pairs,
    config_from_params,
    evaluate_pair,
    headline_metrics,
    simulate,
)


def _run_service_attack(params: dict) -> tuple:
    config = config_from_params(params)
    trace = simulate(config)
    row = evaluate_pair(
        trace, params["auxiliary_tenant"], params["target_tenant"]
    )
    return (tuple(row.items()),)


def _warm_service_attack(params: dict) -> None:
    simulate(config_from_params(params))


def _run_service_grid(params: dict) -> tuple:
    config = config_from_params(params)
    trace = simulate(config)
    metrics = headline_metrics(trace)
    rates = [
        evaluate_pair(trace, auxiliary, target)["inference_rate"]
        for auxiliary, target in attack_pairs(config)
    ]
    row = (
        ("tenants", config.tenants),
        ("popularity_exponent", config.popularity_exponent),
        ("duplication_factor", config.duplication_factor),
        ("cross_user_dedup_rate", metrics["cross_user_dedup_rate"]),
        ("dedup_ratio", metrics["dedup_ratio"]),
        ("mean_overlap", trace.meter.overlap_summary()["mean"]),
        (
            "mean_inference_rate",
            round(sum(rates) / len(rates), 5) if rates else 0.0,
        ),
    )
    return (row,)


def _run_serve_net(params: dict) -> tuple:
    """Serve one config over a real socket and diff it against the sim.

    Heavy imports stay inside the executor so merely registering the
    kind never drags asyncio/socket machinery into scenario workers
    that run other kinds.
    """
    from repro.service.frontend import (
        FrontendServer,
        build_frontend,
        identity_check,
    )
    from repro.service.loadgen import replay_stream

    config = config_from_params(params)
    frontend = build_frontend(config)
    scratch = tempfile.mkdtemp(prefix="serve-net-")
    try:
        address = ("unix", os.path.join(scratch, "frontend.sock"))
        with FrontendServer(frontend, address) as bound:
            counts = replay_stream(bound, config)
        identical = identity_check(frontend)["identical"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = headline_metrics(frontend.as_trace())
    row = (
        ("tenants", config.tenants),
        ("scheme", config.scheme),
        ("requests", counts["requests"]),
        ("uploads", counts["uploads"]),
        ("restores", counts["restores"]),
        ("rejected_uploads", counts["rejected_uploads"]),
        ("skipped_restores", counts["skipped_restores"]),
        ("dedup_ratio", metrics["dedup_ratio"]),
        ("cross_user_dedup_rate", metrics["cross_user_dedup_rate"]),
        ("identical_to_sim", identical),
    )
    return (row,)


register_cell_kind(
    "service_attack", _run_service_attack, warmer=_warm_service_attack
)
register_cell_kind("service", _run_service_grid)
register_cell_kind("serve_net", _run_serve_net)
