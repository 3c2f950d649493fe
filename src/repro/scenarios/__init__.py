"""Declarative scenario engine: specs → cells → (parallel, cached) runs.

``ScenarioSpec`` declares an experiment grid and expands into atomic
``Cell``s; ``Runner`` executes them serially or across a process pool and
merges rows back in spec order; ``ResultCache`` content-addresses completed
cells on disk.  Every figure driver in :mod:`repro.analysis.figures` and
the ``freqdedup sweep`` CLI are built on this package.
"""

from repro.scenarios.cache import CACHE_VERSION, ResultCache, cell_key
from repro.scenarios.cells import (
    CELL_EXECUTORS,
    CELL_WARMERS,
    ensure_cell_kind,
    execute_cell,
    known_cell_kinds,
    register_cell_kind,
    warm_workloads,
)
from repro.scenarios.runner import (
    CellResult,
    Runner,
    RunStats,
    ScenarioRun,
    rows_from,
    run_scenario,
)
from repro.scenarios.spec import (
    Anchor,
    AttackParams,
    Cell,
    Scenario,
    ScenarioSpec,
)

__all__ = [
    "Anchor",
    "AttackParams",
    "CACHE_VERSION",
    "CELL_EXECUTORS",
    "CELL_WARMERS",
    "Cell",
    "CellResult",
    "ResultCache",
    "RunStats",
    "Runner",
    "Scenario",
    "ScenarioRun",
    "ScenarioSpec",
    "cell_key",
    "ensure_cell_kind",
    "execute_cell",
    "known_cell_kinds",
    "register_cell_kind",
    "rows_from",
    "run_scenario",
    "warm_workloads",
]
