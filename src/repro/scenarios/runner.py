"""Cache-aware scenario runner: serial baseline + process-pool fan-out.

The runner takes the cells a :class:`~repro.scenarios.spec.Scenario`
expands to and produces their rows **in spec order**, whatever executes
where: results are merged back positionally, so the output is
byte-identical at ``jobs=1`` and ``jobs=N`` (``tests/unit/test_scenarios.py``
asserts this).  Three layers of work avoidance stack:

1. **Result cache** — cells whose content hash is already on disk
   (:class:`~repro.scenarios.cache.ResultCache`) are never executed;
   completed cells are persisted as they finish, so an interrupted run
   resumes where it stopped.
2. **In-run deduplication** — identical cells appearing in several specs
   (figures share anchor pairs) execute once per run.
3. **Per-process workload memoisation** — executors resolve datasets and
   encrypted series through :mod:`repro.analysis.workloads`' ``lru_cache``,
   so each worker process regenerates a given workload at most once.

Determinism does not depend on scheduling: every cell carries its own
explicit seed (specs thread it through), and leakage sampling already
derives an independent stream per (seed, target, rate) via
:func:`repro.common.rng.rng_from` — there is no shared RNG state to race.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro import faults, obs
from repro.faults import WorkerCrashError
from repro.scenarios.cache import ResultCache, cell_key
from repro.scenarios.cells import execute_cell, warm_workloads
from repro.scenarios.spec import Cell, Scenario, Tags

_log = obs.get_logger("runner")

#: A cell slower than this multiple of the batch mean is logged as a
#: straggler (process mode only — serial runs have no co-runners to lag).
_STRAGGLER_FACTOR = 2.0

#: How many times a crashed cell is re-run before the scenario gives up.
_CELL_RETRIES = 3


@dataclass(frozen=True)
class CellResult:
    """One cell's computed rows plus where they came from."""

    cell: Cell
    rows: tuple[Tags, ...]
    source: str = "executed"  # "executed" | "cache" | "duplicate"


@dataclass
class RunStats:
    """Execution accounting for one ``run_cells`` call."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    duplicates: int = 0

    def note(self, source: str) -> None:
        self.total += 1
        obs.counter("runner.cells", source=source)
        if source == "executed":
            self.executed += 1
        elif source == "cache":
            self.cache_hits += 1
        else:
            self.duplicates += 1


@dataclass
class ScenarioRun:
    """The outcome of :func:`run_scenario`: assembled rows + provenance."""

    scenario: Scenario
    rows: list[list[object]] = field(default_factory=list)
    results: list[CellResult] = field(default_factory=list)
    stats: RunStats = field(default_factory=RunStats)


def rows_from(
    results: Iterable[CellResult], columns: Sequence[str]
) -> list[list[object]]:
    """Assemble output rows: computed fields first, cell tags as fallback."""
    rows: list[list[object]] = []
    for result in results:
        tag_map = dict(result.cell.tags)
        for fields in result.rows:
            field_map = dict(fields)
            row: list[object] = []
            for column in columns:
                if column in field_map:
                    row.append(field_map[column])
                elif column in tag_map:
                    row.append(tag_map[column])
                else:
                    raise KeyError(
                        f"column {column!r} is neither computed by "
                        f"{result.cell.kind!r} cells nor tagged on the spec"
                    )
            rows.append(row)
    return rows


def _record_cell_metrics(cell: Cell, rows, elapsed: float) -> None:
    """The per-cell registry marks, identical on the serial and process
    paths so stable snapshots match at any ``jobs``."""
    obs.counter("runner.cells_executed", kind=cell.kind)
    obs.counter("runner.rows", len(rows), kind=cell.kind)
    obs.observe("runner.cell_s", elapsed, kind=cell.kind)


def _run_cell_job(cell: Cell, crash: str | None = None):
    """Worker-side cell execution; returns ``(rows, metrics snapshot)``.

    The fork-inherited global registry is cleared first, so the snapshot
    shipped back contains exactly this cell's recordings (including
    metrics the cell body itself records, e.g. the sharded COUNT's) —
    the parent merge then sees the same stable content a serial run
    records directly.  Pool workers run jobs sequentially, so clearing
    per job cannot race another cell in this process.

    ``crash`` is the parent's ``cell.crash`` fault decision, made at
    submission time so per-rule state never diverges across forks:
    ``"exit"`` dies like a segfault (breaking the pool), any other mode
    raises the detectable :class:`~repro.faults.WorkerCrashError`.
    """
    if crash is not None:
        if crash == "exit":
            os._exit(3)
        raise WorkerCrashError(f"injected cell crash ({cell.kind})")
    observing = obs.enabled()
    if observing:
        obs.registry().clear()
    started = time.perf_counter()
    rows = execute_cell(cell)
    if not observing:
        return rows, None
    _record_cell_metrics(cell, rows, time.perf_counter() - started)
    return rows, obs.snapshot()


class Runner:
    """Executes cells through a pluggable executor and merges in order.

    Args:
        jobs: worker processes; ``1`` (default) runs serially in-process,
            sharing the caller's memoised workloads.
        cache: a :class:`ResultCache`, a directory path to open one in, or
            ``None`` to disable on-disk caching.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | str | os.PathLike | None = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache

    def run_cells(
        self, cells: Sequence[Cell], stats: RunStats | None = None
    ) -> list[CellResult]:
        """Run ``cells``, returning one result per cell in input order."""
        stats = stats if stats is not None else RunStats()
        results: list[CellResult | None] = [None] * len(cells)

        # Layer 1+2: satisfy from the on-disk cache, dedupe the remainder.
        # The content hash is computed once per cell and threaded through
        # cache lookup, dedup, and persistence.
        pending: dict[str, list[int]] = {}
        pending_cells: dict[str, Cell] = {}
        for index, cell in enumerate(cells):
            key = cell_key(cell)
            if self.cache is not None:
                rows = self.cache.load(cell, key=key)
                if rows is not None:
                    results[index] = CellResult(cell, rows, source="cache")
                    stats.note("cache")
                    continue
            siblings = pending.setdefault(key, [])
            if siblings:
                stats.note("duplicate")
            else:
                pending_cells[key] = cell
                stats.note("executed")
            siblings.append(index)

        if pending:
            computed = self._execute(pending_cells)
            for key, rows in computed.items():
                first, *rest = pending[key]
                results[first] = CellResult(cells[first], rows)
                for index in rest:
                    results[index] = CellResult(
                        cells[index], rows, source="duplicate"
                    )
        return [result for result in results if result is not None]

    # -- executors ----------------------------------------------------------

    def _execute(
        self, keyed_cells: dict[str, Cell]
    ) -> dict[str, tuple[Tags, ...]]:
        if self.jobs == 1 or len(keyed_cells) == 1:
            computed = {}
            for key, cell in keyed_cells.items():
                _log.info("cell start", extra={"kind": cell.kind})
                self._survive_serial_crashes(cell)
                started = time.perf_counter()
                with obs.span("runner.cell", kind=cell.kind):
                    rows = execute_cell(cell)
                elapsed = time.perf_counter() - started
                if obs.enabled():
                    _record_cell_metrics(cell, rows, elapsed)
                _log.info(
                    "cell done",
                    extra={"kind": cell.kind, "dur_s": round(elapsed, 6)},
                )
                computed[key] = rows
                self._persist(cell, rows, key=key)
            return computed
        return self._execute_processes(keyed_cells)

    @staticmethod
    def _survive_serial_crashes(cell: Cell) -> None:
        """The serial path's ``cell.crash`` seam: there is no worker to
        kill in-process, so every crash mode degrades to a detectable
        pre-execution failure — retried with the same cap and counters
        as the pool path, keeping retry accounting identical."""
        for attempt in range(_CELL_RETRIES + 1):
            action = faults.fire("cell.crash", kind=cell.kind)
            if action is None:
                return
            if attempt == _CELL_RETRIES:
                raise WorkerCrashError(
                    f"cell {cell.kind} crashed {attempt + 1} times; giving up"
                )
            obs.counter("faults.retries", site="cell.crash")

    def _submit_cell(self, executor: ProcessPoolExecutor, cell: Cell):
        """Submit one cell, consulting the ``cell.crash`` site in the
        parent (see :func:`_run_cell_job` for why)."""
        action = faults.fire("cell.crash", kind=cell.kind)
        crash = None if action is None else str(action.get("mode", "raise"))
        return executor.submit(_run_cell_job, cell, crash)

    def _execute_processes(
        self, keyed_cells: dict[str, Cell]
    ) -> dict[str, tuple[Tags, ...]]:
        # The engine's worker-side economics (parent-warmed workloads,
        # kinds registered at runtime) rely on fork semantics; pin the
        # start method rather than trusting the platform default, which
        # is spawn on macOS and forkserver on new Python versions.  Where
        # fork does not exist (Windows) workers fall back to the default
        # and simply regenerate workloads themselves.
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            warm_workloads(keyed_cells.values())
        else:
            context = None
        computed: dict[str, tuple[Tags, ...]] = {}
        workers = min(self.jobs, len(keyed_cells))
        durations: dict[str, float] = {}
        attempts: dict[str, int] = {}
        deferred: list[str] = []
        executor = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        try:
            submitted = time.perf_counter()
            futures = {
                self._submit_cell(executor, cell): key
                for key, cell in keyed_cells.items()
            }
            _log.info(
                "batch start",
                extra={"cells": len(futures), "workers": workers},
            )
            first_error: BaseException | None = None
            while futures or deferred:
                if not futures:
                    # A hard worker death poisoned the pool; it is fully
                    # drained now, so rebuild and resubmit every cell it
                    # took down.
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = ProcessPoolExecutor(
                        max_workers=workers, mp_context=context
                    )
                    futures = {
                        self._submit_cell(executor, keyed_cells[key]): key
                        for key in deferred
                    }
                    deferred = []
                    continue
                done, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                for future in done:
                    key = futures.pop(future)
                    try:
                        rows, snapshot = future.result()
                    except (WorkerCrashError, BrokenProcessPool) as error:
                        # A crashed worker is survivable: re-run the
                        # cell up to the retry cap.  A hard exit breaks
                        # the whole pool, so its victims are deferred
                        # until the pool drains and is rebuilt.
                        count = attempts.get(key, 0) + 1
                        attempts[key] = count
                        if count > _CELL_RETRIES:
                            if first_error is None:
                                first_error = error
                            continue
                        obs.counter("faults.retries", site="cell.crash")
                        _log.warning(
                            "cell crashed; retrying",
                            extra={
                                "kind": keyed_cells[key].kind,
                                "attempt": count,
                            },
                        )
                        if isinstance(error, BrokenProcessPool):
                            deferred.append(key)
                        else:
                            try:
                                futures[
                                    self._submit_cell(
                                        executor, keyed_cells[key]
                                    )
                                ] = key
                            except BrokenProcessPool:
                                deferred.append(key)
                        continue
                    except BaseException as error:  # noqa: BLE001
                        # Keep persisting the cells that did complete —
                        # the retry then resumes instead of recomputing
                        # them — and re-raise after the pool drains.
                        if first_error is None:
                            first_error = error
                        continue
                    obs.merge_snapshot(snapshot)
                    # Parent-side wall time since submission: includes
                    # pool queueing, which is what straggler detection
                    # should see.
                    elapsed = time.perf_counter() - submitted
                    durations[key] = elapsed
                    _log.info(
                        "cell done",
                        extra={
                            "kind": keyed_cells[key].kind,
                            "dur_s": round(elapsed, 6),
                            "pending": len(futures),
                        },
                    )
                    computed[key] = rows
                    # Persist as results arrive, not at the end: an
                    # interrupted run keeps every completed cell.
                    self._persist(keyed_cells[key], rows, key=key)
            if first_error is not None:
                raise first_error
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        if len(durations) > 1:
            mean = sum(durations.values()) / len(durations)
            for key, elapsed in durations.items():
                if elapsed > _STRAGGLER_FACTOR * mean:
                    obs.counter("runner.stragglers", stable=False)
                    _log.warning(
                        "straggler cell",
                        extra={
                            "kind": keyed_cells[key].kind,
                            "dur_s": round(elapsed, 6),
                            "mean_s": round(mean, 6),
                        },
                    )
        return computed

    def _persist(
        self, cell: Cell, rows: tuple[Tags, ...], key: str | None = None
    ) -> None:
        if self.cache is not None:
            self.cache.store(cell, rows, key=key)


def run_scenario(
    scenario: Scenario,
    jobs: int = 1,
    cache: ResultCache | str | os.PathLike | None = None,
    lengths: Mapping[str, int] | None = None,
) -> ScenarioRun:
    """Expand, execute and assemble one scenario."""
    runner = Runner(jobs=jobs, cache=cache)
    run = ScenarioRun(scenario=scenario)
    cells = scenario.cells(lengths)
    run.results = runner.run_cells(cells, stats=run.stats)
    run.rows = rows_from(run.results, scenario.columns)
    return run
