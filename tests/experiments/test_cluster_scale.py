"""Cluster extension: rebalance cost and the partial-view leakage sweep.

The pinned grid README's "Cluster & partial-view leakage" table quotes:
the FSL workload, the locality attack, 0.2 % known-plaintext leakage (the
journal setting that keeps the curve informative), node 0 of a
consistent-hash ring compromised.
"""

import os
import random

from repro.analysis.reporting import FigureResult
from repro.analysis.workloads import encrypted_series
from repro.attacks import AttackEvaluator, LocalityAttack
from repro.cluster import DedupCluster
from repro.cluster.cells import CLUSTER_GRID_COLUMNS, cluster_grid_cells
from repro.scenarios.runner import Runner, rows_from

KEYS = 50_000
NODE_SWEEP = (1, 2, 4, 8, 16)
LEAKAGE_RATE = 0.002
SEED = 7


def test_cluster_rebalance():
    """Adding a node to a 4-node cluster: consistent hashing moves about
    K/(N+1) keys, the modulo baseline about N/(N+1) of everything."""
    rng = random.Random(23)
    keys = [rng.randbytes(8) for _ in range(KEYS)]
    sizes = [rng.randrange(2048, 16384) for _ in keys]
    reports = {}
    for routing in ("ring", "modulo"):
        cluster = DedupCluster(nodes=4, routing=routing)
        cluster.store_stream(keys, sizes)
        reports[routing] = cluster.add_node()
        cluster.close()
    ring, modulo = reports["ring"], reports["modulo"]
    assert ring.total_keys == modulo.total_keys == KEYS
    assert ring.within_bound(), ring
    assert ring.moved_fraction < modulo.moved_fraction
    assert abs(modulo.moved_fraction - modulo.theoretical_fraction) < 0.01


def _partial_view_sweep() -> FigureResult:
    cells = cluster_grid_cells(
        dataset="fsl",
        attacks=("locality",),
        nodes=NODE_SWEEP,
        routings=("ring",),
        leakage_rate=LEAKAGE_RATE,
        seed=SEED,
    )
    results = Runner(jobs=os.cpu_count() or 1).run_cells(cells)
    result = FigureResult(
        figure="Cluster partial view",
        title="One compromised ring node's inference rate vs cluster size",
        columns=list(CLUSTER_GRID_COLUMNS),
    )
    result.rows = rows_from(results, CLUSTER_GRID_COLUMNS)
    return result


def test_cluster_partial_view(run_figure):
    """One compromised node of 1→16: ring shards only shrink as the
    cluster grows, so the rate never rises with the node count, and a
    one-node cluster is the paper's whole-store adversary."""
    result = run_figure(_partial_view_sweep)
    assert tuple(result.column("nodes")) == NODE_SWEEP
    rates = result.column("inference_rate")
    assert all(
        later <= earlier for earlier, later in zip(rates, rates[1:])
    ), rates
    fractions = result.column("shard_fraction")
    assert fractions[0] == 1.0 and fractions[-1] < 0.1, fractions

    full_view = AttackEvaluator(encrypted_series("fsl")).run(
        LocalityAttack(u=1, v=15, w=200_000),
        auxiliary=-2,
        target=-1,
        leakage_rate=LEAKAGE_RATE,
        seed=SEED,
    )
    assert rates[0] == round(full_view.inference_rate, 5) > 0.1
