"""Tests for the multi-node cluster tier (routing, rebalancing,
partial-view attacks, scenario cells, clustered serve-sim)."""

import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.attacks import KNOWN_ATTACKS, LocalityAttack, build_attack
from repro.cli import main
from repro.cluster import (
    DedupCluster,
    HashRing,
    ModuloRouter,
    open_router,
    partial_view_report,
    shard_view,
)
from repro.cluster.cells import CLUSTER_GRID_COLUMNS, cluster_grid_cells
from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup
from repro.scenarios.cells import ensure_cell_kind
from repro.scenarios.runner import Runner, rows_from
from repro.service import ServiceConfig, service_report


def pinned_keys(count: int, seed: int = 17) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(8) for _ in range(count)]


class TestRouters:
    def test_ring_deterministic_across_instances(self):
        keys = pinned_keys(500)
        first = [open_router("ring", 5).node_of(key) for key in keys]
        second = [open_router("ring", 5).node_of(key) for key in keys]
        assert first == second

    def test_ring_uses_every_node(self):
        router = open_router("ring", 8)
        owners = Counter(router.node_of(key) for key in pinned_keys(5000))
        assert sorted(owners) == list(range(8))

    def test_ring_shards_nest_as_cluster_grows(self):
        # Consistent hashing: adding nodes only *steals* keys from the
        # survivors, so an existing node's shard shrinks monotonically.
        # This is what makes the partial-view sweep monotone in N.
        keys = pinned_keys(3000)
        for node in (0, 1):
            previous = None
            for nodes in (2, 3, 4, 8, 16):
                router = open_router("ring", nodes)
                shard = {key for key in keys if router.node_of(key) == node}
                if previous is not None:
                    assert shard <= previous
                previous = shard

    def test_modulo_routes_by_residue(self):
        router = open_router("modulo", 4)
        import zlib

        for key in pinned_keys(100):
            assert router.node_of(key) == zlib.crc32(key) % 4

    def test_membership_validation(self):
        ring = HashRing(range(3))
        with pytest.raises(ConfigurationError):
            ring.add_node(2)
        with pytest.raises(ConfigurationError):
            ring.remove_node(9)
        single = ModuloRouter([0])
        with pytest.raises(ConfigurationError):
            single.remove_node(0)
        with pytest.raises(ConfigurationError):
            open_router("nope", 4)

    def test_ring_remove_restores_prior_placement(self):
        # Removing the node that was added last must hand every stolen
        # key straight back to its previous owner.
        keys = pinned_keys(2000)
        small = open_router("ring", 4)
        grown = open_router("ring", 4)
        grown.add_node(4)
        grown.remove_node(4)
        assert [small.node_of(k) for k in keys] == [
            grown.node_of(k) for k in keys
        ]


class TestDedupCluster:
    def make_cluster(self, nodes=4, routing="ring", count=4000):
        keys = pinned_keys(count)
        sizes = [1024 + (i % 7) * 512 for i in range(count)]
        cluster = DedupCluster(nodes=nodes, routing=routing)
        cluster.store_stream(keys, sizes)
        return cluster, keys, sizes

    def test_store_stream_deduplicates(self):
        cluster = DedupCluster(nodes=3)
        keys = pinned_keys(100)
        stored = cluster.store_stream(keys * 2, [2048] * (len(keys) * 2))
        assert stored == len(keys)
        assert cluster.unique_chunks_stored() == len(keys)
        # Every chunk lives on exactly the node the router names.
        for node_id, node in cluster.nodes.items():
            for fingerprint in node.chunks:
                assert cluster.node_of(fingerprint) == node_id

    def test_per_node_metering_sums_to_totals(self):
        cluster, keys, sizes = self.make_cluster()
        report = cluster.load_report()
        assert report["total_chunks"] == len(keys)
        assert sum(
            entry["chunks"] for entry in report["per_node"]
        ) == len(keys)
        assert cluster.stored_bytes == sum(sizes)
        assert report["skew"]["imbalance"] >= 1.0

    def test_ring_add_node_moves_within_bound(self):
        cluster, keys, _ = self.make_cluster()
        report = cluster.add_node()
        assert report.total_keys == len(keys)
        assert report.within_bound()
        # Moved keys all landed on the new node, and placement is
        # consistent again.
        assert report.per_node_moves == ((4, report.moved_keys),)
        assert len(cluster.nodes[4].chunks) == report.moved_keys
        for node_id, node in cluster.nodes.items():
            for fingerprint in node.chunks:
                assert cluster.node_of(fingerprint) == node_id

    def test_modulo_add_node_moves_most_keys(self):
        ring_report = self.make_cluster(routing="ring")[0].add_node()
        modulo_report = self.make_cluster(routing="modulo")[0].add_node()
        assert modulo_report.moved_fraction > 0.5
        assert modulo_report.moved_keys > 2 * ring_report.moved_keys

    def test_remove_node_drains_exactly_its_shard(self):
        cluster, keys, _ = self.make_cluster()
        drained = len(cluster.nodes[2].chunks)
        report = cluster.remove_node(2)
        assert report.moved_keys == drained
        assert cluster.unique_chunks_stored() == len(keys)
        assert 2 not in cluster.nodes
        for node_id, node in cluster.nodes.items():
            for fingerprint in node.chunks:
                assert cluster.node_of(fingerprint) == node_id

    def test_dedup_response_after_rebalance(self):
        # Re-uploading the same stream after a membership change must
        # resolve everything as duplicate — nothing re-stored.
        cluster, keys, sizes = self.make_cluster()
        cluster.add_node()
        stored = cluster.store_stream(keys, sizes)
        assert stored == 0

    def test_modulo_remove_rebalances_survivors_too(self):
        # Modulo routing remaps residues on *every* node when the count
        # changes; a remove must sweep the survivors, not just re-home
        # the drained shard, or placement diverges from the router and
        # re-uploads silently duplicate.
        cluster, keys, sizes = self.make_cluster(routing="modulo")
        report = cluster.remove_node(3)
        assert report.moved_fraction > 0.5  # ≈ (N-1)/N, not just 1/N
        for node_id, node in cluster.nodes.items():
            for fingerprint in node.chunks:
                assert cluster.node_of(fingerprint) == node_id
        assert cluster.store_stream(keys, sizes) == 0
        assert cluster.unique_chunks_stored() == len(keys)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DedupCluster(nodes=0)
        with pytest.raises(ConfigurationError):
            DedupCluster(nodes=2, index_path="/tmp/x")
        cluster = DedupCluster(nodes=1)
        with pytest.raises(ConfigurationError):
            cluster.remove_node(0)


def encrypted_fixture():
    from repro.analysis.workloads import encrypted_series
    from repro.defenses.pipeline import DefenseScheme

    return encrypted_series("synthetic", DefenseScheme.MLE)


class TestPartialView:
    def test_shard_view_partitions_the_stream(self):
        backup = Backup(
            label="b",
            fingerprints=pinned_keys(300),
            sizes=[4096] * 300,
        )
        router = open_router("ring", 4)
        shards = [shard_view(backup, router, node) for node in range(4)]
        assert sum(len(shard) for shard in shards) == len(backup)
        # Arrival order survives projection.
        for shard in shards:
            positions = [
                backup.fingerprints.index(fp) for fp in shard.fingerprints[:5]
            ]
            assert positions == sorted(positions)

    def test_single_node_equals_full_view(self):
        # Acceptance edge case: a one-node cluster is the paper's
        # adversary — identical numbers to the standard evaluator.
        from repro.attacks.evaluation import AttackEvaluator

        encrypted = encrypted_fixture()
        attack = LocalityAttack()
        full = AttackEvaluator(encrypted).run(attack, auxiliary=-2, target=-1)
        view = partial_view_report(
            attack,
            encrypted[-1],
            encrypted.plaintext[-2],
            nodes=1,
            routing="ring",
        )
        assert view.shard_fraction == 1.0
        assert view.report.correct_pairs == full.correct_pairs
        assert view.report.inferred_pairs == full.inferred_pairs
        assert view.report.inference_rate == full.inference_rate

    @pytest.mark.parametrize("attack", KNOWN_ATTACKS)
    def test_empty_shard_scores_zero_without_failing(self, attack, count_mode):
        # Acceptance edge case: a compromised node that happens to own
        # none of the target's chunks observes nothing. partial.py has no
        # empty-shard special case, so every attack must itself return
        # nothing over an empty stream, in both accel modes — and nothing
        # may leak from a node that stores nothing.
        class LonelyRouter:
            policy = "ring"
            node_ids = (0, 1)

            def node_of(self, key):
                return 0  # node 1 never owns anything

        from repro.cluster import evaluate_partial_view

        encrypted = encrypted_fixture()
        view = evaluate_partial_view(
            build_attack(attack),
            encrypted[-1],
            encrypted.plaintext[-2],
            LonelyRouter(),
            compromised_node=1,
            leakage_rate=0.05,
        )
        assert view.shard_chunks == 0
        assert view.report.inference_rate == 0.0
        assert view.report.inferred_pairs == 0
        assert view.report.unique_ciphertext_chunks > 0
        assert view.report.leaked_pairs == 0
        assert view.report.attack == attack

    def test_unknown_node_rejected(self):
        encrypted = encrypted_fixture()
        with pytest.raises(ConfigurationError):
            partial_view_report(
                LocalityAttack(),
                encrypted[-1],
                encrypted.plaintext[-2],
                nodes=4,
                compromised_node=9,
            )

    def test_leaked_pairs_restricted_to_shard(self):
        encrypted = encrypted_fixture()
        router = open_router("ring", 4)
        view = partial_view_report(
            LocalityAttack(),
            encrypted[-1],
            encrypted.plaintext[-2],
            nodes=4,
            compromised_node=0,
            leakage_rate=0.01,
        )
        target_shard = shard_view(encrypted[-1].ciphertext, router, 0)
        # The shard holds ~1/4 of unique chunks, so the restricted leak
        # must be well below the full-view sample size.
        full_sample = round(0.01 * encrypted[-1].unique_ciphertext_chunks)
        assert 0 <= view.report.leaked_pairs < full_sample
        assert view.shard_unique_chunks == len(
            set(target_shard.fingerprints)
        )


class TestClusterCells:
    def test_lazy_kind_registration(self):
        assert ensure_cell_kind("cluster")

    def test_grid_expands_axes(self):
        cells = cluster_grid_cells(
            dataset="synthetic",
            schemes=("mle", "minhash"),
            nodes=(1, 2),
            routings=("ring", "modulo"),
        )
        assert len(cells) == 2 * 2 * 2
        kinds = {cell.kind for cell in cells}
        assert kinds == {"cluster"}

    def test_parameterised_scheme_spec_passes_through(self):
        # "obfuscate:4" is a spec, not a DefenseScheme member: the cell
        # hands it to the workload registry verbatim, like attack cells —
        # and at one node scores what the full-view evaluator scores.
        from repro.analysis.workloads import encrypted_series
        from repro.attacks import AttackEvaluator

        cells = cluster_grid_cells(
            dataset="synthetic", schemes=("obfuscate:4",), nodes=(1, 2),
            leakage_rate=0.01,
        )
        rows = rows_from(Runner(jobs=1).run_cells(cells), CLUSTER_GRID_COLUMNS)
        full = AttackEvaluator(encrypted_series("synthetic", "obfuscate:4")).run(
            LocalityAttack(), -2, -1, leakage_rate=0.01
        )
        assert full.correct_pairs > full.leaked_pairs > 0
        scheme, rate = (
            CLUSTER_GRID_COLUMNS.index(name) for name in ("scheme", "inference_rate")
        )
        assert [row[scheme] for row in rows] == ["obfuscate:4"] * 2
        assert rows[0][rate] == round(full.inference_rate, 5)
        assert 0 < rows[1][rate] < rows[0][rate]

    def test_rows_monotone_and_deterministic_across_jobs(self):
        # Acceptance properties at unit scale: routing determinism
        # across reruns and job counts, and a partial-view inference
        # rate that never increases with cluster size.
        cells = list(
            cluster_grid_cells(
                dataset="synthetic",
                nodes=(1, 2, 4),
                leakage_rate=0.002,
                seed=3,
            )
        )
        serial = rows_from(
            Runner(jobs=1).run_cells(cells), CLUSTER_GRID_COLUMNS
        )
        rerun = rows_from(
            Runner(jobs=1).run_cells(cells), CLUSTER_GRID_COLUMNS
        )
        parallel = rows_from(
            Runner(jobs=2).run_cells(cells), CLUSTER_GRID_COLUMNS
        )
        assert serial == rerun == parallel
        rate_index = CLUSTER_GRID_COLUMNS.index("inference_rate")
        nodes_index = CLUSTER_GRID_COLUMNS.index("nodes")
        by_nodes = {row[nodes_index]: row[rate_index] for row in serial}
        assert by_nodes[1] >= by_nodes[2] >= by_nodes[4]
        assert by_nodes[1] > 0.0


class TestClusteredService:
    CONFIG = ServiceConfig(
        tenants=5,
        rounds=2,
        files_per_tenant=5,
        mean_file_chunks=8,
        attack_targets=2,
        nodes=3,
    )

    def test_report_gains_cluster_section(self):
        report = service_report(self.CONFIG)
        cluster = report["cluster"]
        assert cluster["nodes"] == 3
        assert len(cluster["per_node"]) == 3
        assert report["config"]["nodes"] == 3
        partial = cluster["partial_view"]
        assert len(partial["pairs"]) == self.CONFIG.attack_targets
        assert (
            partial["mean_inference_rate"]
            <= report["attack"]["mean_inference_rate"]
        )

    def test_single_node_report_shape_unchanged(self):
        report = service_report(replace(self.CONFIG, nodes=1))
        assert "cluster" not in report
        assert "nodes" not in report["config"]
        assert "routing" not in report["config"]

    def test_serve_sim_cli_clustered_deterministic(self, tmp_path, capsys):
        args = [
            "serve-sim",
            "--tenants",
            "5",
            "--requests",
            "10",
            "--seed",
            "3",
            "--nodes",
            "3",
        ]
        paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
        assert main(args + ["--json", paths[0]]) == 0
        assert main(args + ["--jobs", "2", "--json", paths[1]]) == 0
        first, second = (open(path, "rb").read() for path in paths)
        assert first == second
        payload = json.loads(first)
        assert payload["cluster"]["routing"] == "ring"
        out = capsys.readouterr().out
        assert "partial view" in out

    def test_attack_cli_partial_view(self, capsys):
        assert (
            main(
                [
                    "attack",
                    "synthetic",
                    "--attack",
                    "locality",
                    "--nodes",
                    "4",
                    "--compromised-node",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "partial-view node 1/4" in out

    def test_attack_cli_validates_compromised_node(self):
        with pytest.raises(SystemExit):
            main(["attack", "synthetic", "--nodes", "2", "--compromised-node", "5"])
