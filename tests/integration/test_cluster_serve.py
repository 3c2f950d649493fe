"""Cluster serving end to end: serve-sim over a 2-node ring, pinned.

``tests/integration`` previously had no cluster coverage — the PR 5
routing/rebalance path was only exercised by unit tests and benches.
These tests pin it end to end through the *service* entry points:

* a 2-node ring ``serve-sim`` report (cluster section present, chunks
  placed on both nodes, partial-view rows bounded by the full view);
* the socket frontend serving the same clustered config byte-identically
  to the simulator (the cluster tier sits behind the same
  ``DedupService`` seam, so identity must hold there too);
* the consistent-hash rebalance path (add a node to a served cluster,
  movement within the theoretical bound);
* a ``cluster`` partial-view attack cell through the scenario Runner.
"""

from __future__ import annotations

import json

import pytest

from repro.service.frontend import identity_check
from repro.service.loadgen import replay_stream
from repro.service.simulate import ServiceConfig, service_report

from tests.integration.test_serve_frontend import served

pytestmark = [pytest.mark.integration, pytest.mark.frontend]

CLUSTER_CONFIG = ServiceConfig(tenants=8, rounds=3, nodes=2, routing="ring", seed=4)


class TestClusterServeSim:
    def test_two_node_ring_report_has_cluster_section(self):
        report = service_report(CLUSTER_CONFIG, jobs=1)
        cluster = report["cluster"]
        assert cluster["nodes"] == 2
        assert cluster["routing"] == "ring"
        # Both nodes actually hold chunks — the ring really shards.
        per_node = {entry["node"]: entry for entry in cluster["per_node"]}
        assert set(per_node) == {0, 1}
        assert all(entry["chunks"] > 0 for entry in per_node.values())
        assert cluster["total_chunks"] == sum(
            entry["chunks"] for entry in per_node.values()
        )
        assert cluster["skew"]["imbalance"] >= 1.0

    def test_partial_view_rows_bounded_by_full_view(self):
        """A one-node shard adversary never beats the full-store one."""
        report = service_report(CLUSTER_CONFIG, jobs=1)
        partial = report["cluster"]["partial_view"]
        assert partial["compromised_node"] == 0
        assert partial["pairs"], "attack pairs must be evaluated"
        full_rate = report["attack"]["mean_inference_rate"]
        assert 0.0 <= partial["mean_inference_rate"] <= full_rate
        for pair in partial["pairs"]:
            assert 0.0 <= pair["shard_fraction"] <= 1.0

    def test_report_deterministic_across_jobs(self):
        serial = service_report(CLUSTER_CONFIG, jobs=1)
        fanned = service_report(CLUSTER_CONFIG, jobs=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            fanned, sort_keys=True
        )


class TestClusterFrontend:
    def test_served_cluster_identical_to_simulator(self):
        """Identity holds with the cluster tier behind the frontend."""
        with served(CLUSTER_CONFIG) as (frontend, bound):
            counts = replay_stream(bound, CLUSTER_CONFIG)
        assert counts["errors"] == 0
        check = identity_check(frontend)
        assert check["identical"]
        # The served report carries the full cluster section too.
        assert check["served"]["cluster"]["nodes"] == 2

    def test_rebalance_after_serving_within_bound(self):
        """Joining a node moves ~1/new_nodes of keys, never much more."""
        with served(CLUSTER_CONFIG) as (frontend, bound):
            replay_stream(bound, CLUSTER_CONFIG)
        cluster = frontend.service.cluster
        before = sum(len(node.chunks) for node in cluster.nodes.values())
        report = cluster.add_node()
        assert report.within_bound(), (
            f"moved {report.moved_fraction:.2%} vs theoretical "
            f"{report.theoretical_fraction:.2%}"
        )
        after = sum(len(node.chunks) for node in cluster.nodes.values())
        assert after == before, "rebalance must not lose chunks"
        assert len(cluster.nodes) == 3


class TestClusterCell:
    def test_partial_view_attack_cell_through_runner(self):
        """One `cluster` cell end to end via the scenario engine."""
        from repro.cluster.cells import (
            CLUSTER_GRID_COLUMNS,
            cluster_grid_cells,
        )
        from repro.scenarios.runner import Runner, rows_from

        cells = cluster_grid_cells(
            dataset="fsl",
            schemes=("mle",),
            attacks=("locality",),
            nodes=(2,),
            routings=("ring",),
        )
        assert len(cells) == 1
        rows = rows_from(Runner(jobs=1).run_cells(cells), CLUSTER_GRID_COLUMNS)
        (row,) = rows
        record = dict(zip(CLUSTER_GRID_COLUMNS, row))
        assert record["nodes"] == 2
        assert record["routing"] == "ring"
        assert 0.0 < record["shard_fraction"] < 1.0
        assert 0.0 <= record["inference_rate"] <= 1.0
