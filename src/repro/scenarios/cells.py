"""Cell executors: one function per cell kind, runnable in any process.

``execute_cell`` is the single entry point the runner fans out (it is a
top-level function, so it pickles cleanly into ``ProcessPoolExecutor``
workers).  Each kind's executor resolves its workload through the memoised
canonical registry (:mod:`repro.analysis.workloads`) — a worker generates a
dataset at most once, no matter how many of its cells it executes — and
returns rows of plain ``(field, value)`` pairs, which survive the JSON
round-trip through the on-disk result cache bit-for-bit.

Rounding happens here (4 decimals for storage and metadata figures; the
attack row's 5 for inference rates is
:meth:`~repro.attacks.evaluation.InferenceReport.row`), matching the
pre-engine figure drivers, so cached and freshly-computed rows are
byte-identical.
"""

from __future__ import annotations

import importlib
from typing import Callable

from repro.common.errors import ConfigurationError
from repro.common.units import MiB
from repro.scenarios.spec import (
    ATTACK,
    FREQUENCY,
    METADATA,
    STORAGE_SAVING,
    Cell,
    Tags,
)

FieldRows = tuple[Tags, ...]
CellExecutor = Callable[[dict], FieldRows]


def _encrypted(dataset: str, scheme: str):
    # Scheme specs pass through verbatim (the pipeline parses plain
    # names and parameterized "obfuscate:t" specs alike).
    from repro.analysis.workloads import encrypted_series

    return encrypted_series(dataset, scheme)


def attack_report(params: dict):
    """One evaluator run from attack-cell params: the ``attack`` kind
    behind Figs. 4–10, and the attack inside any kind that adds columns
    to it."""
    from repro.attacks.evaluation import AttackEvaluator, build_attack

    evaluator = AttackEvaluator(_encrypted(params["dataset"], params["scheme"]))
    attack = build_attack(
        params["attack"], params["u"], params["v"], params["w"]
    )
    return evaluator.run(
        attack,
        auxiliary=params["auxiliary"],
        target=params["target"],
        leakage_rate=params["leakage_rate"],
        seed=params.get("seed", 0),
    )


def _run_attack(params: dict) -> FieldRows:
    return (attack_report(params).row(),)


def _run_frequency(params: dict) -> FieldRows:
    """Frequency-skew statistics of one dataset (Fig. 1's row)."""
    from repro.analysis.workloads import series_by_name
    from repro.datasets.stats import frequency_cdf, series_frequencies

    series = series_by_name(params["dataset"])
    cdf = frequency_cdf(series_frequencies(series))
    p99 = cdf.frequencies[int(0.99 * (len(cdf.frequencies) - 1))]
    return (
        (
            ("unique_chunks", len(cdf.frequencies)),
            ("frac_below_10", round(cdf.fraction_below(10), 4)),
            ("frac_below_100", round(cdf.fraction_below(100), 4)),
            ("p50_freq", cdf.median_frequency),
            ("p99_freq", p99),
            ("max_freq", cdf.max_frequency),
        ),
    )


def _run_storage_saving(params: dict) -> FieldRows:
    """Cumulative storage saving per backup under one scheme (Fig. 11);
    one row per backup in series order."""
    from repro.datasets.stats import storage_savings

    encrypted = _encrypted(params["dataset"], params["scheme"])
    savings = storage_savings(
        [backup.ciphertext for backup in encrypted.backups]
    )
    return tuple(
        (("backup", backup.label), ("storage_saving", round(saving, 4)))
        for backup, saving in zip(encrypted.backups, savings)
    )


def _run_metadata(params: dict) -> FieldRows:
    """DDFS metadata access per backup (Figs. 13/14).  One cell covers a
    *whole series* — the engine is stateful across backups, so the cell
    is the unit that keeps cache/Bloom/index state coherent."""
    from repro.storage.ddfs import DDFSEngine

    encrypted = _encrypted(params["dataset"], params["scheme"])
    # All engine knobs must come through cell params (specs attach them
    # via `extra`) so they are part of the cache identity — no silent
    # defaults here that could diverge from the spec side.
    engine = DDFSEngine(
        cache_budget_bytes=params["cache_budget_bytes"],
        bloom_capacity=params["bloom_capacity"],
        container_size=params["container_size"],
    )
    rows = []
    for backup in encrypted.backups:
        meta = engine.process_backup(backup.ciphertext).metadata
        rows.append(
            (
                ("backup", backup.label),
                ("update_MiB", round(meta.update_bytes / MiB, 4)),
                ("index_MiB", round(meta.index_bytes / MiB, 4)),
                ("loading_MiB", round(meta.loading_bytes / MiB, 4)),
                ("total_MiB", round(meta.total_bytes / MiB, 4)),
            )
        )
    return tuple(rows)


CELL_EXECUTORS: dict[str, CellExecutor] = {
    ATTACK: _run_attack,
    FREQUENCY: _run_frequency,
    STORAGE_SAVING: _run_storage_saving,
    METADATA: _run_metadata,
}

# Per-kind warmers: called by warm_workloads in the parent process before
# workers fork, for kinds whose cells share expensive state (the service
# attack cells share one simulated trace, for example).
CELL_WARMERS: dict[str, Callable[[dict], None]] = {}

# Kinds registered by subsystems on import.  ensure_cell_kind imports the
# owning module on first use, so specs and cached cells can name these
# kinds without the caller importing the subsystem — including inside
# spawned worker processes, which start from a fresh interpreter.
_LAZY_KIND_MODULES = {
    "service": "repro.service.cells",
    "service_attack": "repro.service.cells",
    "serve_net": "repro.service.cells",
    "cluster": "repro.cluster.cells",
    "defense_frontier": "repro.analysis.frontier",
}


def register_cell_kind(
    kind: str,
    executor: CellExecutor,
    warmer: Callable[[dict], None] | None = None,
) -> None:
    """Register an additional cell kind (tests and other subsystems).

    ``warmer`` optionally pre-materializes state shared by cells of this
    kind, in the parent process, before workers fork (see
    :func:`warm_workloads`).
    """
    CELL_EXECUTORS[kind] = executor
    if warmer is not None:
        CELL_WARMERS[kind] = warmer


def ensure_cell_kind(kind: str) -> bool:
    """Whether ``kind`` is executable, importing its module if deferred.

    Args:
        kind: the cell kind name.

    Returns:
        True once an executor for ``kind`` is registered; importing the
        owning module from :data:`_LAZY_KIND_MODULES` as a side effect
        (safe in spawned workers, which start from a fresh interpreter).
    """
    if kind not in CELL_EXECUTORS:
        module_name = _LAZY_KIND_MODULES.get(kind)
        if module_name is not None:
            importlib.import_module(module_name)
    return kind in CELL_EXECUTORS


def known_cell_kinds() -> list[str]:
    """Every nameable kind: registered executors plus deferred kinds."""
    return sorted(set(CELL_EXECUTORS) | set(_LAZY_KIND_MODULES))


def warm_workloads(cells) -> None:
    """Materialize every workload the cells touch, in the calling process.

    The runner calls this before forking workers: with the fork start
    method the children inherit the parent's memoised series, so no worker
    pays dataset generation or encryption for work the parent already did.
    Kinds with a registered warmer (see :func:`register_cell_kind`) warm
    through it instead; kinds with neither a ``dataset`` param nor a
    warmer are skipped.
    """
    from repro.analysis.workloads import series_by_name

    for cell in cells:
        params = dict(cell.params)
        ensure_cell_kind(cell.kind)
        warmer = CELL_WARMERS.get(cell.kind)
        if warmer is not None:
            warmer(params)
            continue
        dataset = params.get("dataset")
        if not isinstance(dataset, str):
            continue
        scheme = params.get("scheme")
        if isinstance(scheme, str):
            _encrypted(dataset, scheme)
        else:
            series_by_name(dataset)


def execute_cell(cell: Cell) -> FieldRows:
    """Run one cell in the current process.

    This is the single entry point the runner submits to workers (a
    top-level function, so it pickles cleanly).

    Args:
        cell: the cell to execute; its params fully determine the
            computation.

    Returns:
        The cell's rows as ``(field, value)`` tuples — plain primitives
        that survive the JSON round-trip through the result cache
        bit-for-bit.

    Raises:
        ConfigurationError: the cell names an unknown kind.
    """
    if not ensure_cell_kind(cell.kind):
        raise ConfigurationError(f"unknown cell kind {cell.kind!r}")
    return CELL_EXECUTORS[cell.kind](dict(cell.params))
