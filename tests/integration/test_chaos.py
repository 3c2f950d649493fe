"""Chaos tests: the seeded fault plane, survived end to end.

The contract under test is the PR's headline guarantee: a run under a
deterministic :class:`~repro.faults.FaultPlan` — connection drops,
stalls, corrupt frames, node kills and rejoins, worker crashes — with
retries enabled produces **byte-identical results** to the fault-free
run, while the fault/retry/failover accounting shows the storm actually
happened.  Three layers:

* **serving** — the retrying client survives injected server-side drops
  and stalls plus client-side drops/corruption, and the served trace
  stays identical to the in-process simulator; the rid replay cache
  makes retries of already-served uploads idempotent; graceful drain
  captures final stats.
* **cluster** — a node kill mid-ingest fails placement over to ring
  successors, the metadata plane (and so the load report) never
  flinches, and the rejoin move respects the K/N bound.
* **COUNT / scenarios** — crashed shard workers (soft raise and hard
  ``os._exit``) are detected and re-run; the merged tables match the
  fault-free run exactly.
"""

from __future__ import annotations

import json

import pytest

from repro import faults
from repro.attacks.frequency import count_with_neighbors
from repro.attacks.sharded import sharded_count
from repro.cluster.cluster import DedupCluster
from repro.common.errors import StorageError
from repro.datasets.columnar import StreamConfig, ensure_stream_columnar
from repro.faults import FaultPlan, WorkerCrashError
from repro.service import protocol as wire
from repro.service.frontend import identity_check
from repro.service.loadgen import (
    FrontendClient,
    RetryPolicy,
    replay_stream,
    run_loadgen,
)
from repro.service.simulate import ServiceConfig

from tests.integration.test_serve_frontend import make_backup, served

pytestmark = [pytest.mark.integration, pytest.mark.frontend]


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.clear()
    yield
    faults.clear()


def install(*rules, seed=0):
    return faults.install(
        FaultPlan.from_dict({"seed": seed, "rules": list(rules)})
    )


# -- serving under fire -------------------------------------------------------


class TestServeChaos:
    def test_replay_identical_under_drops_stalls_and_corruption(self):
        config = ServiceConfig(tenants=6, rounds=3, seed=5)
        injector = install(
            {"site": "serve.drop", "every": 11, "times": 3},
            {"site": "serve.drop", "times": 1, "when": "after"},
            {"site": "serve.stall", "at": 7, "times": 1, "delay_s": 0.01},
            {"site": "client.drop", "at": 5, "times": 1},
            {"site": "client.corrupt", "at": 20, "times": 1},
            seed=7,
        )
        with served(config) as (frontend, address):
            counts = replay_stream(
                address, config, retry=RetryPolicy(seed=1)
            )
            check = identity_check(frontend)
        fired = sum(
            site["fired"] for site in injector.summary()["sites"].values()
        )
        assert fired > 0, "the plan must actually inject faults"
        assert counts["retries"] > 0
        assert counts["gave_up"] == 0
        assert counts["errors"] == 0
        assert check["identical"], "faulted replay diverged from simulator"

    def test_clean_run_report_shape_unchanged(self):
        # Without a retry policy the replay report carries no retry
        # section at all — fault-free output stays byte-identical to
        # the pre-fault-plane stack.
        config = ServiceConfig(tenants=4, rounds=2, seed=5)
        with served(config) as (frontend, address):
            counts = replay_stream(address, config)
        assert "retries" not in counts
        assert "gave_up" not in counts

    def test_drop_after_serving_replays_from_rid_cache(self):
        # The nastiest drop: the server processed the upload but the
        # answer was lost.  The retry re-sends under the same rid and
        # must be answered from the replay cache — served exactly once.
        config = ServiceConfig(tenants=4, rounds=2, seed=5)
        install(
            {
                "site": "serve.drop",
                "times": 1,
                "match": {"kind": "upload_batch"},
                "when": "after",
            }
        )
        with served(config) as (frontend, address):
            with FrontendClient(address) as client:
                client.hello()
                backup = make_backup("b0", ["aa", "bb", "cc"])
                kind, payload = client.request_with_retry(
                    wire.UPLOAD_BATCH,
                    wire.upload_payload(0, 0, "b0", backup),
                    RetryPolicy(seed=2),
                    rid="rid-upload-0",
                )
                assert kind == wire.OK
                assert client.retries == 1
                assert client.reconnects == 1
            assert frontend.stats.uploads == 1
            assert len(frontend.meter.observables) == 1

    def test_retry_exhaustion_reports_gave_up(self):
        config = ServiceConfig(tenants=4, rounds=2, seed=5)
        install({"site": "client.drop"})  # every attempt, forever
        with served(config) as (frontend, address):
            client = FrontendClient(address)
            try:
                client.hello()
                with pytest.raises(StorageError):
                    client.request_with_retry(
                        wire.STATS,
                        {},
                        RetryPolicy(attempts=3, seed=2),
                        rid="rid-stats",
                    )
                assert client.gave_up == 1
                assert client.retries == 2  # attempts - 1
            finally:
                client.close()

    def test_drain_captures_final_stats(self):
        config = ServiceConfig(tenants=4, rounds=2, seed=5)
        with served(config) as (frontend, address):
            with FrontendClient(address) as client:
                client.hello()
                client.request(
                    wire.UPLOAD_BATCH,
                    wire.upload_payload(
                        0, 0, "b0", make_backup("b0", ["aa", "bb"])
                    ),
                )
            assert frontend.final_stats is None  # not drained yet
        # FrontendServer's exit path drains: stop accepting, let live
        # sessions finish, then capture one last STATS payload.
        assert frontend.final_stats is not None
        assert frontend.final_stats["uploads"] == 1
        assert frontend.final_stats["sessions_opened"] == 1


# -- multi-process load generation --------------------------------------------


class TestLoadgenProcesses:
    """``run_loadgen`` from two client processes against one frontend:
    one connection per tenant session, clean and under fire."""

    CONFIG = ServiceConfig(
        tenants=12, rounds=2, files_per_tenant=4, mean_file_chunks=8, seed=11
    )

    def test_clean_run_serves_every_session(self):
        with served(self.CONFIG) as (frontend, address):
            report = run_loadgen(address, self.CONFIG, processes=2)
        assert report["processes"] == 2
        assert report["errors"] == {}
        assert report["ok"] == report["requests"] > 0
        assert report["sessions"] == (
            self.CONFIG.tenants * self.CONFIG.rounds
        )
        assert "retries" not in report

    def test_every_request_survives_drops_and_stalls(self):
        # All server-side, so one plan covers both client processes
        # without coordinating injector state across forks: periodic
        # connection drops, one lost answer (served, never delivered —
        # the rid-replay case) and periodic stalls.
        injector = install(
            {"site": "serve.drop", "every": 9, "times": 4},
            {"site": "serve.drop", "at": 13, "times": 1, "when": "after"},
            {"site": "serve.stall", "every": 17, "times": 2, "delay_s": 0.005},
            seed=7,
        )
        with served(self.CONFIG) as (frontend, address):
            report = run_loadgen(
                address, self.CONFIG, processes=2, retry=RetryPolicy(seed=1)
            )
        sites = injector.summary()["sites"]
        assert sites["serve.drop"]["fired"] == 5
        assert sites["serve.stall"]["fired"] == 2
        assert report["retries"]["gave_up"] == 0
        assert report["ok"] == report["requests"] > 0, report["errors"]
        # Retry amplification as an invariant: an injected drop costs at
        # most one retry (a drop that lands on a session's closing frame
        # costs none).
        assert 0 < report["retries"]["retries"] <= sites["serve.drop"]["fired"]


# -- cluster failover ---------------------------------------------------------


def _fill(cluster: DedupCluster, batches: int = 5, keys: int = 50):
    import hashlib

    for batch in range(batches):
        fingerprints = [
            hashlib.blake2b(
                b"%d:%d" % (batch, index), digest_size=8
            ).digest()
            for index in range(keys)
        ]
        cluster.store_stream(fingerprints, [1024] * keys)


class TestClusterFailover:
    def test_kill_failover_rejoin_and_identical_load_report(self):
        install(
            {"site": "node.kill", "at": 2, "times": 1, "node": 1},
            {"site": "node.restart", "at": 4, "times": 1, "node": 1},
        )
        faulted = DedupCluster(nodes=3)
        _fill(faulted)
        faults.clear()
        clean = DedupCluster(nodes=3)
        _fill(clean)

        # The metadata plane is modeled as replicated, so the load
        # report — every leakage observable derives from it — is
        # byte-identical despite the outage.
        assert json.dumps(faulted.load_report(), sort_keys=True) == (
            json.dumps(clean.load_report(), sort_keys=True)
        )

        # The data plane did degrade, and the report accounts for it.
        assert faulted.health_report()["health"] == {
            "0": "up", "1": "up", "2": "up"
        }
        assert faulted.health_report()["parked_chunks"] == 0
        (report,) = faulted.degraded_reports
        assert report.node_id == 1
        assert report.killed_after_ingests == 2
        assert report.rejoined_after_ingests == 4
        assert report.unreachable_keys > 0
        assert report.failover_keys > 0
        assert report.failover_probes >= report.failover_keys
        assert report.rejoin_moved_keys == report.failover_keys
        # Ingest calls 2 and 3 (2 batches x 50 unique keys) happened
        # while node 1 was down; it owns an expected 1/3 of them.
        assert report.within_bound(total_keys=100, nodes=3)

    def test_ring_successors_start_at_owner_and_cover_members(self):
        cluster = DedupCluster(nodes=4)
        key = b"fp-probe"
        successors = list(cluster.router.successors(key))
        assert successors[0] == cluster.router.node_of(key)
        assert sorted(successors) == [0, 1, 2, 3]

    def test_parked_chunks_live_on_healthy_successors_only(self):
        install({"site": "node.kill", "at": 1, "times": 1, "node": 0})
        cluster = DedupCluster(nodes=3)
        _fill(cluster, batches=2)
        faults.clear()
        assert cluster.nodes[0].health == "down"
        assert not cluster.nodes[0].failover_chunks
        parked = sum(
            len(node.failover_chunks) for node in cluster.nodes.values()
        )
        assert parked == cluster.health_report()["parked_chunks"] > 0

    def test_no_healthy_node_left_raises(self):
        cluster = DedupCluster(nodes=2)
        cluster.kill_node(0)
        cluster.kill_node(1)
        with pytest.raises(StorageError):
            cluster.ingest([b"fp-alone"], [64])


# -- crash-safe COUNT ---------------------------------------------------------


def _tables(stats):
    return (
        list(stats.frequencies.items()),
        {
            side: {
                key: list(table.items())
                for key, table in getattr(stats, side).items()
            }
            for side in ("left", "right")
        },
    )


class TestShardedCountChaos:
    @pytest.mark.parametrize("mode", ["raise", "exit"])
    def test_worker_crash_recovery_byte_identical(self, tmp_path, mode):
        config = StreamConfig(chunks=6_000, backups=2)
        trace = ensure_stream_columnar(tmp_path / "trace", config, seed=5)
        try:
            view = trace.view(0)
            clean = _tables(sharded_count(view, jobs=4))
            injector = install(
                {"site": "count.worker", "at": 2, "times": 1, "mode": mode}
            )
            faulted = _tables(sharded_count(view, jobs=4))
            assert injector.summary()["sites"]["count.worker"]["fired"] == 1
            assert faulted == clean
            # And the recovered tables still match the in-RAM oracle.
            reference = count_with_neighbors(view.to_backup())
            assert faulted[0] == list(reference.frequencies.items())
        finally:
            trace.close()

    def test_crash_every_time_gives_up(self, tmp_path):
        config = StreamConfig(chunks=500, backups=1)
        trace = ensure_stream_columnar(tmp_path / "trace", config, seed=5)
        try:
            install({"site": "count.worker"})  # crash on every attempt
            with pytest.raises(WorkerCrashError):
                sharded_count(trace.view(0), jobs=1)
        finally:
            trace.close()

    def test_crash_every_time_gives_up_in_the_pool(self, tmp_path):
        config = StreamConfig(chunks=500, backups=1)
        trace = ensure_stream_columnar(tmp_path / "trace", config, seed=5)
        try:
            install({"site": "count.worker"})
            with pytest.raises(WorkerCrashError, match=r"shard \d crashed"):
                sharded_count(trace.view(0), jobs=3)
        finally:
            trace.close()
