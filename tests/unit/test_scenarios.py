"""Tests for the scenario engine: specs, cells, cache, runner."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.scenarios.cache import ResultCache, cell_key
from repro.attacks import build_attack
from repro.scenarios.cells import (
    CELL_EXECUTORS,
    execute_cell,
    register_cell_kind,
)
from repro.scenarios.runner import Runner, RunStats, rows_from
from repro.scenarios.spec import (
    PAIR,
    SLIDING,
    VARY_AUXILIARY,
    VARY_TARGET,
    Anchor,
    AttackParams,
    Cell,
    ScenarioSpec,
)

LENGTHS = {"fsl": 5, "vm": 13, "synthetic": 11, "storage-fsl": 5}


class TestAnchor:
    def test_pair_resolves_negative_indices(self):
        anchor = Anchor(mode=PAIR, auxiliary=-2, target=-1)
        assert anchor.resolve(5) == [(3, 4, ())]

    def test_pair_out_of_range(self):
        anchor = Anchor(mode=PAIR, auxiliary=7, target=-1)
        with pytest.raises(ConfigurationError):
            anchor.resolve(5)

    def test_vary_auxiliary(self):
        anchor = Anchor(mode=VARY_AUXILIARY, target=-1)
        assert anchor.resolve(4) == [(0, 3, ()), (1, 3, ()), (2, 3, ())]

    def test_vary_auxiliary_capped(self):
        anchor = Anchor(mode=VARY_AUXILIARY, target=10, max_auxiliary=2)
        assert anchor.resolve(12) == [(0, 10, ()), (1, 10, ())]

    def test_vary_target(self):
        anchor = Anchor(mode=VARY_TARGET, auxiliary=0)
        assert anchor.resolve(4) == [(0, 1, ()), (0, 2, ()), (0, 3, ())]

    def test_sliding_tags_each_shift(self):
        anchor = Anchor(mode=SLIDING, shifts=(1, 2))
        assert anchor.resolve(4) == [
            (0, 1, (("s", 1),)),
            (1, 2, (("s", 1),)),
            (2, 3, (("s", 1),)),
            (0, 2, (("s", 2),)),
            (1, 3, (("s", 2),)),
        ]

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            Anchor(mode="sideways")

    def test_bad_shift_rejected(self):
        with pytest.raises(ConfigurationError):
            Anchor(mode=SLIDING, shifts=(0,)).resolve(4)


class TestScenarioSpecExpansion:
    def test_canonical_nesting_order(self):
        spec = ScenarioSpec(
            name="t",
            datasets=("fsl", "vm"),
            attacks=("basic", "locality"),
            anchor=Anchor(mode=PAIR, auxiliary=0, target=1),
            leakage_rates=(0.0, 0.001),
        )
        cells = spec.expand(LENGTHS)
        coords = [
            (cell.param("dataset"), cell.param("attack"), cell.param("leakage_rate"))
            for cell in cells
        ]
        assert coords == [
            ("fsl", "basic", 0.0),
            ("fsl", "basic", 0.001),
            ("fsl", "locality", 0.0),
            ("fsl", "locality", 0.001),
            ("vm", "basic", 0.0),
            ("vm", "basic", 0.001),
            ("vm", "locality", 0.0),
            ("vm", "locality", 0.001),
        ]

    def test_expansion_is_deterministic(self):
        spec = ScenarioSpec(name="t", datasets=("fsl", "synthetic"))
        assert spec.expand(LENGTHS) == spec.expand(LENGTHS)

    def test_per_dataset_overrides(self):
        spec = ScenarioSpec(
            name="t",
            datasets=("fsl", "vm"),
            attacks=("locality", "advanced"),
            attacks_by_dataset=(("vm", ("locality",)),),
            anchor=Anchor(mode=PAIR, auxiliary=0, target=1),
            anchors_by_dataset=(("vm", Anchor(mode=PAIR, auxiliary=2, target=3)),),
        )
        cells = spec.expand(LENGTHS)
        assert [cell.param("attack") for cell in cells] == [
            "locality",
            "advanced",
            "locality",
        ]
        assert cells[-1].param("auxiliary") == 2
        assert cells[-1].param("target") == 3

    def test_param_tags_arity_checked(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="t",
                params=(AttackParams(), AttackParams(u=2)),
                param_tags=((("parameter", "u"),),),
            )

    def test_param_and_anchor_tags_reach_cells(self):
        spec = ScenarioSpec(
            name="t",
            datasets=("fsl",),
            params=(AttackParams(u=7),),
            param_tags=(((("parameter", "u")), ("value", 7)),),
            anchor=Anchor(mode=SLIDING, shifts=(2,)),
        )
        cell = spec.expand(LENGTHS)[0]
        tags = dict(cell.tags)
        assert tags["parameter"] == "u"
        assert tags["value"] == 7
        assert tags["s"] == 2
        assert tags["u"] == 7

    def test_basic_attack_normalizes_unused_params(self):
        # BasicAttack ignores (u, v, w): cells differing only in those
        # must share one computation/cache entry, while the requested
        # values remain visible as row tags.
        spec = ScenarioSpec(
            name="t",
            datasets=("fsl",),
            attacks=("basic",),
            params=(AttackParams(u=1, v=15, w=100), AttackParams(u=5, v=30, w=200)),
            anchor=Anchor(mode=PAIR, auxiliary=0, target=1),
        )
        first, second = spec.expand(LENGTHS)
        assert first.params == second.params
        assert cell_key(first) == cell_key(second)
        assert dict(first.tags)["u"] == 1
        assert dict(second.tags)["u"] == 5

    def test_seed_normalized_at_zero_leakage(self):
        # The seed only feeds the leakage sample; ciphertext-only cells
        # from differently-seeded specs must share one cache entry.
        def cell_at(seed, rates):
            spec = ScenarioSpec(
                name="t",
                datasets=("fsl",),
                anchor=Anchor(mode=PAIR, auxiliary=0, target=1),
                leakage_rates=rates,
                seed=seed,
            )
            return spec.expand(LENGTHS)[0]

        assert cell_key(cell_at(0, (0.0,))) == cell_key(cell_at(5, (0.0,)))
        assert cell_key(cell_at(0, (0.001,))) != cell_key(cell_at(5, (0.001,)))

    def test_custom_kind_usable_from_spec(self, echo_kind):
        spec = ScenarioSpec(name="t", kind="echo", datasets=("fsl",))
        assert spec.kind == "echo"

    def test_locality_attack_keeps_params_distinct(self):
        spec = ScenarioSpec(
            name="t",
            datasets=("fsl",),
            attacks=("locality",),
            params=(AttackParams(u=1), AttackParams(u=5)),
            anchor=Anchor(mode=PAIR, auxiliary=0, target=1),
        )
        first, second = spec.expand(LENGTHS)
        assert cell_key(first) != cell_key(second)

    def test_non_attack_kinds_ignore_attack_axes(self):
        frequency = ScenarioSpec(
            name="t", kind="frequency", datasets=("fsl", "vm")
        )
        assert len(frequency.expand(LENGTHS)) == 2
        storage = ScenarioSpec(
            name="t",
            kind="storage_saving",
            datasets=("fsl",),
            schemes=("mle", "combined"),
        )
        params = [dict(cell.params) for cell in storage.expand(LENGTHS)]
        assert params == [
            {"dataset": "fsl", "scheme": "mle"},
            {"dataset": "fsl", "scheme": "combined"},
        ]

    def test_extra_params_merged(self):
        spec = ScenarioSpec(
            name="t",
            kind="metadata",
            datasets=("storage-fsl",),
            schemes=("mle",),
            extra=(("cache_budget_bytes", 1024),),
        )
        cell = spec.expand(LENGTHS)[0]
        assert cell.param("cache_budget_bytes") == 1024

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="t", kind="telepathy")


class TestFigureScenarios:
    """The declarative figure grids expand to the historical cell counts
    (row counts for the attack figures) without generating any dataset."""

    @pytest.mark.parametrize(
        "number,cells",
        [("4", 32), ("5", 66), ("6", 66), ("7", 85), ("8", 20), ("9", 30),
         ("10", 24), ("11", 8), ("13", 2), ("14", 2), ("1", 2)],
    )
    def test_cell_counts(self, number, cells):
        from repro.analysis.figures import FIGURE_SCENARIOS

        scenario = FIGURE_SCENARIOS[number]()
        assert len(scenario.cells(LENGTHS)) == cells


class TestCellKey:
    def test_tags_do_not_affect_key(self):
        a = Cell(kind="attack", params=(("dataset", "fsl"),), tags=())
        b = Cell(
            kind="attack",
            params=(("dataset", "fsl"),),
            tags=(("parameter", "u"),),
        )
        assert cell_key(a) == cell_key(b)

    def test_params_affect_key(self):
        a = Cell(kind="attack", params=(("u", 1),))
        b = Cell(kind="attack", params=(("u", 2),))
        assert cell_key(a) != cell_key(b)
        assert cell_key(a) != cell_key(Cell(kind="other", params=(("u", 1),)))

    def test_non_primitive_params_rejected(self):
        with pytest.raises(TypeError):
            cell_key(Cell(kind="attack", params=(("u", (1, 2)),)))


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = Cell(kind="echo", params=(("x", 1),))
        rows = ((("value", 2), ("rate", 0.125)),)
        cache.store(cell, rows)
        assert cache.load(cell) == rows
        assert len(cache) == 1

    def test_miss_on_absent(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load(Cell(kind="echo", params=(("x", 1),))) is None

    def test_miss_on_corrupt_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = Cell(kind="echo", params=(("x", 1),))
        path = cache.store(cell, ((("value", 2),),))
        path.write_text("{torn", encoding="utf-8")
        assert cache.load(cell) is None

    def test_miss_on_foreign_content(self, tmp_path):
        # A file under the right name but describing a different cell
        # (hash collision paranoia) must not be served.
        cache = ResultCache(tmp_path)
        cell = Cell(kind="echo", params=(("x", 1),))
        other = Cell(kind="echo", params=(("x", 2),))
        stored = cache.store(other, ((("value", 4),),))
        stored.rename(cache._path(cell_key(cell)))
        assert cache.load(cell) is None

    def test_len_ignores_orphaned_temp_files(self, tmp_path):
        # A writer killed between mkstemp and os.replace leaves a temp
        # file behind; it must count as neither an entry nor a hit.
        cache = ResultCache(tmp_path)
        cache.store(Cell(kind="echo", params=(("x", 1),)), ((("v", 1),),))
        (tmp_path / ".partial-orphan.tmp").write_text("{", encoding="utf-8")
        assert len(cache) == 1

    def test_float_rows_survive_json_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = Cell(kind="echo", params=(("x", 1),))
        rows = ((("rate", round(0.1265348, 5)), ("count", 30344)),)
        cache.store(cell, rows)
        loaded = cache.load(cell)
        assert loaded == rows
        assert json.dumps(loaded) == json.dumps(rows)

    def test_truncated_entry_detected_and_recomputed(self, tmp_path):
        # Truncation tears the JSON, which the parse already catches —
        # but a truncated-then-"repaired" file (valid JSON, damaged
        # rows) must fall to the checksum.
        cache = ResultCache(tmp_path)
        cell = Cell(kind="echo", params=(("x", 1),))
        path = cache.store(cell, ((("value", 2), ("rate", 0.5)),))
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw[: len(raw) // 2], encoding="utf-8")
        assert cache.load(cell) is None

    def test_bit_flip_detected_discarded_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = Cell(kind="echo", params=(("x", 1),))
        rows = ((("value", 271828),),)
        path = cache.store(cell, rows)
        # Flip one digit inside the rows payload: still valid JSON, still
        # this cell's kind/params, but not what was computed.
        damaged = path.read_text(encoding="utf-8").replace("271828", "271829")
        path.write_text(damaged, encoding="utf-8")
        assert cache.load(cell) is None
        # The corrupt entry was discarded on detection...
        assert len(cache) == 0
        # ...so recomputing and re-storing serves clean rows again.
        cache.store(cell, rows)
        assert cache.load(cell) == rows

    def test_version1_entries_miss_after_checksum_upgrade(self, tmp_path):
        # Entries written before CACHE_VERSION 2 carry no checksum; the
        # version bump re-keys them so they miss instead of loading.
        cache = ResultCache(tmp_path)
        cell = Cell(kind="echo", params=(("x", 1),))
        legacy = {
            "kind": "echo",
            "params": [["x", 1]],
            "rows": [[["value", 2]]],
        }
        cache._path(cell_key(cell)).write_text(
            json.dumps(legacy), encoding="utf-8"
        )
        assert cache.load(cell) is None

    def test_store_survives_injected_disk_errors(self, tmp_path):
        from repro import faults

        cache = ResultCache(tmp_path)
        cell = Cell(kind="echo", params=(("x", 1),))
        rows = ((("value", 2),),)
        try:
            # First write attempt fails, the bounded retry lands it.
            faults.install(
                faults.FaultPlan.from_dict(
                    {"rules": [{"site": "disk.write", "at": 1, "times": 1}]}
                )
            )
            assert cache.store(cell, rows) is not None
            assert cache.load(cell) == rows
            # A persistently failing disk degrades the store to a no-op
            # instead of raising: the rows are computed, just uncached.
            other = Cell(kind="echo", params=(("x", 2),))
            faults.install(
                faults.FaultPlan.from_dict(
                    {"rules": [{"site": "disk.write"}]}
                )
            )
            assert cache.store(other, rows) is None
            assert cache.load(other) is None
        finally:
            faults.clear()


class TestRowsFrom:
    def test_fields_shadow_tags(self):
        from repro.scenarios.runner import CellResult

        cell = Cell(
            kind="echo",
            params=(("x", 1),),
            tags=(("auxiliary", 3), ("dataset", "fsl")),
        )
        result = CellResult(cell, ((("auxiliary", "Mar 22"), ("rate", 0.5)),))
        rows = rows_from([result], ("dataset", "auxiliary", "rate"))
        assert rows == [["fsl", "Mar 22", 0.5]]

    def test_missing_column_raises(self):
        from repro.scenarios.runner import CellResult

        result = CellResult(Cell(kind="echo", params=()), ((("rate", 0.5),),))
        with pytest.raises(KeyError):
            rows_from([result], ("nope",))


@pytest.fixture()
def echo_kind():
    calls = []

    def run_echo(params):
        calls.append(params["x"])
        return ((("value", params["x"] * 2),),)

    register_cell_kind("echo", run_echo)
    yield calls
    CELL_EXECUTORS.pop("echo", None)


def echo_cells(xs):
    return [Cell(kind="echo", params=(("x", x),)) for x in xs]


class TestRunner:
    def test_serial_order_preserved(self, echo_kind):
        results = Runner(jobs=1).run_cells(echo_cells([3, 1, 2]))
        assert [dict(r.rows[0])["value"] for r in results] == [6, 2, 4]
        assert all(r.source == "executed" for r in results)

    def test_duplicates_execute_once(self, echo_kind):
        stats = RunStats()
        results = Runner(jobs=1).run_cells(echo_cells([5, 5, 5]), stats=stats)
        assert [dict(r.rows[0])["value"] for r in results] == [10, 10, 10]
        assert echo_kind == [5]
        assert stats.executed == 1
        assert stats.duplicates == 2

    def test_cache_skips_completed_cells(self, echo_kind, tmp_path):
        cells = echo_cells([1, 2])
        first = RunStats()
        Runner(jobs=1, cache=tmp_path).run_cells(cells, stats=first)
        assert first.executed == 2
        second = RunStats()
        results = Runner(jobs=1, cache=tmp_path).run_cells(cells, stats=second)
        assert second.executed == 0
        assert second.cache_hits == 2
        assert [dict(r.rows[0])["value"] for r in results] == [2, 4]
        assert echo_kind == [1, 2]  # not re-executed

    def test_partial_cache_runs_only_missing(self, echo_kind, tmp_path):
        Runner(jobs=1, cache=tmp_path).run_cells(echo_cells([1]))
        stats = RunStats()
        Runner(jobs=1, cache=tmp_path).run_cells(
            echo_cells([1, 2]), stats=stats
        )
        assert stats.cache_hits == 1
        assert stats.executed == 1
        assert echo_kind == [1, 2]

    def test_process_pool_matches_serial(self, echo_kind):
        # fork start method: workers inherit the registered test kind.
        cells = echo_cells([4, 5, 6, 7])
        serial = Runner(jobs=1).run_cells(cells)
        parallel = Runner(jobs=2).run_cells(cells)
        assert [r.rows for r in parallel] == [r.rows for r in serial]

    def test_worker_failure_still_persists_completed_cells(self, tmp_path):
        def flaky(params):
            if params["x"] == 13:
                raise ConfigurationError("boom")
            return ((("value", params["x"]),),)

        register_cell_kind("flaky", flaky)
        try:
            cells = [
                Cell(kind="flaky", params=(("x", x),)) for x in (1, 2, 13, 3)
            ]
            with pytest.raises(ConfigurationError):
                Runner(jobs=2, cache=tmp_path).run_cells(cells)
            # The three good cells were persisted despite the failure, so
            # a retry resumes instead of recomputing them.
            assert len(ResultCache(tmp_path)) == 3
            stats = RunStats()
            with pytest.raises(ConfigurationError):
                Runner(jobs=2, cache=tmp_path).run_cells(cells, stats=stats)
            assert stats.cache_hits == 3
        finally:
            CELL_EXECUTORS.pop("flaky", None)

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError):
            execute_cell(Cell(kind="telepathy", params=()))

    def test_jobs_validated(self):
        with pytest.raises(ValueError):
            Runner(jobs=0)

    @pytest.mark.parametrize("mode", ("raise", "exit"))
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_injected_cell_crash_retried_identically(
        self, echo_kind, jobs, mode
    ):
        from repro import faults

        cells = echo_cells([4, 5, 6, 7])
        clean = Runner(jobs=jobs).run_cells(cells)
        try:
            faults.install(
                faults.FaultPlan.from_dict(
                    {
                        "rules": [
                            {
                                "site": "cell.crash",
                                "at": 2,
                                "times": 1,
                                "mode": mode,
                            }
                        ]
                    }
                )
            )
            crashed = Runner(jobs=jobs).run_cells(cells)
        finally:
            faults.clear()
        assert [r.rows for r in crashed] == [r.rows for r in clean]

    def test_cell_crash_exhausts_retries(self, echo_kind):
        from repro import faults
        from repro.faults import WorkerCrashError

        try:
            faults.install(
                faults.FaultPlan.from_dict(
                    {"rules": [{"site": "cell.crash"}]}  # crash every time
                )
            )
            with pytest.raises(WorkerCrashError):
                Runner(jobs=1).run_cells(echo_cells([1]))
        finally:
            faults.clear()


class TestBuildAttack:
    def test_known_attacks(self):
        assert build_attack("basic", 1, 15, 10).name == "basic"
        locality = build_attack("locality", 2, 20, 1000)
        assert (locality.u, locality.v, locality.w) == (2, 20, 1000)
        advanced = build_attack("advanced", 1, 15, 10)
        assert advanced.name == "advanced"

    def test_unknown_attack(self):
        with pytest.raises(ConfigurationError):
            build_attack("quantum", 1, 1, 1)


class TestEndToEnd:
    """Real cells through the engine: figure output is identical at any
    job count, and cached reruns are served without recomputation."""

    def test_fig1_identical_across_job_counts(self):
        from repro.analysis.figures import fig1_frequency_skew

        datasets = ("fsl", "storage-fsl")  # two cheap cells -> real fan-out
        serial = fig1_frequency_skew(datasets=datasets)
        parallel = fig1_frequency_skew(datasets=datasets, jobs=2)
        assert serial.rows == parallel.rows
        assert serial.columns == parallel.columns

    def test_fig1_cache_round_trip(self, tmp_path):
        from repro.analysis.figures import fig1_frequency_skew

        first = fig1_frequency_skew(datasets=("fsl",), cache=tmp_path)
        again = fig1_frequency_skew(datasets=("fsl",), cache=tmp_path)
        assert first.rows == again.rows
        assert len(ResultCache(tmp_path)) == 1
