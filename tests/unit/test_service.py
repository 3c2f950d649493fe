"""Tests for the multi-tenant service layer (traffic, server, meter,
scenario cells, serve-sim CLI)."""

import json

import pytest

from repro.attacks import LocalityAttack
from repro.cli import main
from repro.common.errors import (
    ConfigurationError,
    QuotaExceededError,
    StorageError,
)
from repro.scenarios.cells import ensure_cell_kind, execute_cell
from repro.scenarios.runner import Runner, rows_from
from repro.service import (
    DedupService,
    ServiceConfig,
    TrafficConfig,
    TrafficModel,
    attack_cells,
    service_grid_cells,
    service_report,
    simulate,
)
from repro.service.simulate import ATTACK_COLUMNS, SERVICE_GRID_COLUMNS
from repro.service.traffic import RESTORE, UPLOAD

SMALL = TrafficConfig(
    tenants=5,
    rounds=2,
    files_per_tenant=5,
    mean_file_chunks=8,
    restore_probability=0.5,
)

SMALL_SIM = ServiceConfig(
    tenants=6,
    rounds=2,
    files_per_tenant=6,
    mean_file_chunks=8,
    attack_targets=3,
)


def stream_signature(model: TrafficModel) -> list:
    return [
        (
            request.kind,
            request.tenant,
            request.label,
            request.restore_label,
            tuple(request.backup.fingerprints) if request.backup else None,
        )
        for request in model.requests()
    ]


class TestTrafficModel:
    def test_deterministic_per_seed(self):
        first = stream_signature(TrafficModel(seed=3, config=SMALL))
        second = stream_signature(TrafficModel(seed=3, config=SMALL))
        assert first == second

    def test_seed_changes_stream(self):
        first = stream_signature(TrafficModel(seed=3, config=SMALL))
        second = stream_signature(TrafficModel(seed=4, config=SMALL))
        assert first != second

    def test_requests_materialized_once(self):
        model = TrafficModel(seed=1, config=SMALL)
        assert model.requests() is model.requests()

    def test_one_upload_per_tenant_per_round(self):
        requests = TrafficModel(seed=2, config=SMALL).requests()
        uploads = [r for r in requests if r.kind == UPLOAD]
        assert len(uploads) == SMALL.tenants * SMALL.rounds
        assert len({r.label for r in uploads}) == len(uploads)

    def test_restores_reference_previous_round_uploads(self):
        requests = TrafficModel(seed=2, config=SMALL).requests()
        served: set[str] = set()
        saw_restore = False
        for request in requests:
            if request.kind == UPLOAD:
                served.add(request.label)
            else:
                saw_restore = True
                assert request.round > 0
                assert request.restore_label in served
        assert saw_restore  # probability 0.5 over 5 tenants: expected

    def test_duplication_factor_drives_cross_tenant_overlap(self):
        def mean_overlap(factor):
            config = TrafficConfig(
                tenants=6,
                rounds=1,
                files_per_tenant=8,
                mean_file_chunks=8,
                duplication_factor=factor,
            )
            per_tenant = {}
            for request in TrafficModel(seed=5, config=config).requests():
                per_tenant.setdefault(request.tenant, set()).update(
                    request.backup.fingerprints
                )
            tenants = sorted(per_tenant)
            values = [
                len(per_tenant[a] & per_tenant[b]) / len(per_tenant[b])
                for a in tenants
                for b in tenants
                if a != b
            ]
            return sum(values) / len(values)

        assert mean_overlap(0.8) > mean_overlap(0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrafficConfig(tenants=0)
        with pytest.raises(ConfigurationError):
            TrafficConfig(duplication_factor=1.5)
        with pytest.raises(ConfigurationError):
            TrafficConfig(churn=-0.1)


def tiny_backup(tokens, label="up"):
    from repro.datasets.model import Backup

    return Backup(
        label=label,
        fingerprints=[t.encode() for t in tokens],
        sizes=[4096] * len(tokens),
    )


class TestDedupService:
    def test_identical_reupload_transfers_nothing(self):
        service = DedupService()
        backup = tiny_backup(["a", "b", "c"], "first")
        first = service.upload(0, backup, "first")
        assert first.observables.transferred_bytes > 0
        second = service.upload(0, tiny_backup(["a", "b", "c"]), "second")
        assert second.observables.transferred_bytes == 0
        assert second.observables.deduped_bytes == (
            second.observables.logical_bytes
        )

    def test_cross_tenant_dedup_and_restore(self):
        service = DedupService()
        service.upload(0, tiny_backup(["a", "b", "c"]), "up")
        result = service.upload(1, tiny_backup(["a", "b", "c"]), "up")
        assert result.observables.transferred_bytes == 0
        observables, recipe = service.restore(1, "up")
        assert observables.kind == RESTORE
        assert recipe.fingerprints == result.encrypted.ciphertext.fingerprints
        # Restores serve the full logical stream: no dedup signal.
        assert observables.transferred_bytes == observables.logical_bytes

    def test_observables_arithmetic(self):
        service = DedupService()
        # Intra-upload duplicates are client-side dedup'd too.
        result = service.upload(0, tiny_backup(["a", "b", "a", "a"]), "up")
        observables = result.observables
        assert observables.total_chunks == 4
        assert observables.unique_chunks == 2
        assert observables.stored_chunks == 2
        assert (
            observables.transferred_bytes + observables.deduped_bytes
            == observables.logical_bytes
        )

    @pytest.mark.parametrize("shaping", ["honest", "rr:0.5"])
    def test_wire_payload_is_the_flat_asdict(self, shaping):
        """``observables_payload`` spells the fields out; ``asdict`` is
        the oracle — same keys, same order, same values."""
        from dataclasses import asdict

        from repro.service.protocol import observables_payload

        service = DedupService(shaping=shaping, seed=4)
        service.upload(0, tiny_backup(["a", "b", "c", "d"]), "up")
        upload = service.upload(1, tiny_backup(["a", "b", "c", "e"]), "up")
        restore, _ = service.restore(1, "up")
        if shaping != "honest":
            assert upload.observables.shaped_extra_bytes > 0
        for observables in (upload.observables, restore):
            payload = observables_payload(observables)
            assert list(payload.items()) == list(asdict(observables).items())

    def test_namespace_isolation(self):
        service = DedupService()
        service.upload(0, tiny_backup(["a"]), "mine")
        with pytest.raises(StorageError):
            service.restore(1, "mine")
        with pytest.raises(StorageError):
            service.restore(0, "nope")

    def test_duplicate_label_rejected(self):
        service = DedupService()
        service.upload(0, tiny_backup(["a"]), "up")
        with pytest.raises(ConfigurationError):
            service.upload(0, tiny_backup(["b"]), "up")

    def test_quota_enforced_per_tenant(self):
        service = DedupService(default_quota_bytes=10_000)
        service.upload(0, tiny_backup(["a", "b"]), "ok")  # ~8 KiB padded
        with pytest.raises(QuotaExceededError):
            service.upload(0, tiny_backup(["c"]), "over")
        # Another tenant's namespace is unaffected; duplicates still
        # count against *logical* usage (quotas bill pre-dedup bytes).
        result = service.upload(1, tiny_backup(["a", "b"]), "ok")
        assert result.observables.transferred_bytes == 0
        usage = service.tenant_usage(1)
        assert usage["logical_bytes"] > 0

    def test_quota_checked_before_the_upload_is_encrypted(self, monkeypatch):
        service = DedupService(default_quota_bytes=10_000)
        service.upload(0, tiny_backup(["a", "b"]), "ok")
        before = service.tenant_usage(0), service.stored_bytes
        calls = []
        monkeypatch.setattr(
            service.pipeline, "encrypt_backup", lambda *args: calls.append(args)
        )
        with pytest.raises(QuotaExceededError, match="4112 B logical"):
            service.upload(0, tiny_backup(["c"]), "over")
        assert calls == []
        assert not service.has_upload(0, "over")
        assert (service.tenant_usage(0), service.stored_bytes) == before
        # The label-taken check still comes first.
        with pytest.raises(ConfigurationError):
            service.upload(0, tiny_backup(["c"]), "ok")

    def test_explicit_registration_conflict(self):
        service = DedupService()
        service.register_tenant(7, quota_bytes=None)
        with pytest.raises(ConfigurationError):
            service.register_tenant(7)

    def test_metadata_bytes_metered(self):
        service = DedupService()
        result = service.upload(0, tiny_backup(["a", "b", "c"]), "up")
        # The dedup response batch-probes the index: >= one entry per
        # unique fingerprint.
        assert result.observables.metadata_bytes >= (
            service.engine.index.entry_bytes * 3
        )

    def test_duplicate_confirmation_prefetches_container(self):
        # Small containers seal immediately, so a re-upload confirms its
        # duplicates against the index and must mirror DDFS step S4:
        # prefetch the hit containers into the fingerprint cache.
        service = DedupService(container_size=4096)
        service.upload(0, tiny_backup(["a", "b", "c"]), "first")
        service.upload(1, tiny_backup(["a", "b", "c"]), "second")
        assert service.engine.index.stats.loading_bytes > 0
        # A third identical upload resolves at S1 (cache hits), without
        # re-probing the index per fingerprint.
        before = service.engine.index.stats.index_bytes
        result = service.upload(2, tiny_backup(["a", "b", "c"]), "third")
        assert service.engine.cache.hits > 0
        assert service.engine.index.stats.index_bytes == before
        assert result.observables.transferred_bytes == 0

    def test_single_tenant_population_has_no_cross_user_dedup(self):
        from dataclasses import replace

        from repro.service.simulate import headline_metrics

        trace = simulate(replace(SMALL_SIM, tenants=1, attack_targets=1))
        assert headline_metrics(trace)["cross_user_dedup_rate"] == 0.0


class TestSideChannelMeter:
    def test_bandwidth_signal_rows(self):
        trace = simulate(SMALL_SIM)
        signal = trace.meter.bandwidth_signal()
        assert len(signal) == SMALL_SIM.tenants * SMALL_SIM.rounds
        for row in signal:
            assert 0.0 <= row["dedup_fraction"] <= 1.0

    def test_overlap_matrix_shape_and_diagonal(self):
        trace = simulate(SMALL_SIM)
        matrix = trace.meter.overlap_matrix()
        tenants = trace.meter.tenants()
        assert sorted(matrix) == tenants
        for tenant in tenants:
            assert matrix[tenant][tenant] == 1.0

    def test_population_overlap_bounds_tenant_overlap(self):
        trace = simulate(SMALL_SIM)
        meter = trace.meter
        assert meter.overlap(None, 1) >= meter.overlap(0, 1)

    def test_evaluate_rejects_unknown_tenant(self):
        trace = simulate(SMALL_SIM)
        with pytest.raises(ConfigurationError):
            trace.meter.evaluate(LocalityAttack(), 99, 1)

    def test_cross_tenant_inference_tracks_duplication_factor(self):
        # The acceptance property at unit scale: nonzero cross-tenant
        # inference that decreases as the duplication factor drops.
        from dataclasses import replace

        high = service_report(replace(SMALL_SIM, duplication_factor=0.7))
        low = service_report(
            replace(SMALL_SIM, duplication_factor=0.05, popular_rate=0.04)
        )
        high_rate = high["attack"]["mean_inference_rate"]
        low_rate = low["attack"]["mean_inference_rate"]
        assert high_rate > 0.0
        assert high_rate > low_rate

    def test_report_identical_across_index_backends(self, tmp_path):
        # The index backend decides where fingerprints live, never a
        # dedup decision, a metered byte or an attack row.
        from dataclasses import replace

        reports = {}
        for backend, path in (
            ("memory", None),
            ("kvstore", str(tmp_path / "index.kv")),
            ("sqlite", str(tmp_path / "index.db")),
            ("sharded:3", str(tmp_path / "shards")),
        ):
            report = service_report(
                replace(SMALL_SIM, backend=backend, backend_path=path)
            )
            assert report["config"].pop("backend") == backend
            del report["config"]["backend_path"]
            reports[backend] = json.dumps(report, sort_keys=True)
        assert tmp_path.joinpath("shards", "shard-02.db").exists()
        for backend, report in reports.items():
            assert report == reports["memory"], backend


class TestServiceCells:
    def test_lazy_kind_registration(self):
        assert ensure_cell_kind("service")
        assert ensure_cell_kind("service_attack")
        assert not ensure_cell_kind("nope")

    def test_attack_cells_execute_and_merge(self):
        cells = list(attack_cells(SMALL_SIM))
        assert len(cells) == SMALL_SIM.attack_targets
        results = Runner(jobs=1).run_cells(cells)
        rows = rows_from(results, ATTACK_COLUMNS)
        assert len(rows) == len(cells)
        target_index = ATTACK_COLUMNS.index("target_tenant")
        assert [row[target_index] for row in rows] == [0, 1, 2]

    def test_attack_cells_parallel_identical(self):
        cells = list(attack_cells(SMALL_SIM))
        serial = rows_from(Runner(jobs=1).run_cells(cells), ATTACK_COLUMNS)
        parallel = rows_from(Runner(jobs=2).run_cells(cells), ATTACK_COLUMNS)
        assert serial == parallel

    def test_grid_cells_cross_axes(self):
        cells = service_grid_cells(
            base=SMALL_SIM,
            duplication_factors=(0.1, 0.7),
            popularity_exponents=(1.5,),
        )
        assert len(cells) == 2
        rows = rows_from(
            Runner(jobs=1).run_cells(list(cells)), SERVICE_GRID_COLUMNS
        )
        factor_index = SERVICE_GRID_COLUMNS.index("duplication_factor")
        rate_index = SERVICE_GRID_COLUMNS.index("mean_inference_rate")
        by_factor = {row[factor_index]: row[rate_index] for row in rows}
        assert by_factor[0.7] > by_factor[0.1]

    def test_execute_cell_roundtrips_config(self):
        cell = attack_cells(SMALL_SIM)[0]
        rows = execute_cell(cell)
        fields = dict(rows[0])
        assert fields["target_tenant"] == 0
        assert 0.0 <= fields["inference_rate"] <= 1.0


class TestServeSimCLI:
    ARGS = ["serve-sim", "--tenants", "5", "--requests", "10", "--seed", "3"]

    def test_reports_byte_identical_across_runs_and_jobs(
        self, tmp_path, capsys
    ):
        paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
        assert main(self.ARGS + ["--json", paths[0]]) == 0
        assert (
            main(self.ARGS + ["--jobs", "2", "--json", paths[1]]) == 0
        )
        first, second = (open(p, "rb").read() for p in paths)
        assert first == second
        payload = json.loads(first)
        assert payload["attack"]["mean_inference_rate"] >= 0.0
        assert payload["traffic"]["uploads"] == 10
        capsys.readouterr()

    def test_human_output_mentions_side_channel(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "cross-user dedup rate" in out
        assert "inference_rate" in out

    def test_quota_flag_rejects_uploads(self, capsys):
        assert main(self.ARGS + ["--quota-mib", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "rejected" in out

    def test_bad_duplication_factor_exits(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "serve-sim",
                    "--tenants",
                    "4",
                    "--duplication-factor",
                    "1.5",
                ]
            )

    def test_workdir_requires_persistent_backend(self):
        with pytest.raises(SystemExit):
            main(["serve-sim", "--workdir", "/tmp/x"])

    def test_sqlite_backend_roundtrip(self, tmp_path, capsys):
        args = self.ARGS + [
            "--backend",
            "sqlite",
            "--workdir",
            str(tmp_path / "idx"),
        ]
        assert main(args) == 0
        capsys.readouterr()

    def test_nonempty_workdir_refused(self, tmp_path, capsys):
        # A persisted index from an earlier run would change dedup
        # results; the CLI must refuse instead of silently diverging.
        workdir = tmp_path / "idx"
        args = self.ARGS + ["--backend", "sqlite", "--workdir", str(workdir)]
        assert main(args) == 0
        capsys.readouterr()
        # The index persists *under* the directory, like attack --workdir.
        assert workdir.is_dir() and (workdir / "index.db").exists()
        with pytest.raises(SystemExit):
            main(args)

    def test_precreated_empty_workdir_accepted(self, tmp_path, capsys):
        workdir = tmp_path / "fresh"
        workdir.mkdir()
        args = self.ARGS + ["--backend", "sqlite", "--workdir", str(workdir)]
        assert main(args) == 0
        capsys.readouterr()

    def test_out_of_range_auxiliary_tenant_exits(self):
        with pytest.raises(SystemExit):
            main(["serve-sim", "--tenants", "3", "--auxiliary-tenant", "99"])
        with pytest.raises(SystemExit):
            main(["serve-sim", "--tenants", "3", "--auxiliary-tenant", "-2"])

    def test_unknown_spec_kind_error_names_service_kinds(self):
        from repro.scenarios.spec import ScenarioSpec

        with pytest.raises(ConfigurationError) as excinfo:
            ScenarioSpec(name="typo", kind="servce")
        assert "service" in str(excinfo.value)
