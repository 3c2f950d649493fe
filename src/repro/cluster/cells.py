"""Scenario-engine cell kind for partial-view cluster experiments.

Importing this module registers the ``cluster`` cell kind with
:mod:`repro.scenarios.cells` (the engine lazy-loads it on first use, so
specs and cached cells can name the kind without importing the cluster
subsystem — including inside spawned worker processes).

One ``cluster`` cell is one partial-view attack: a (dataset, scheme)
workload from the memoised canonical registry, a router built from
``(nodes, routing)``, and one paper attack run over the compromised
node's shard of the target backup (:mod:`repro.cluster.partial`).
:func:`cluster_grid_cells` expands the ``nodes × routing × defense``
grid the cluster experiment sweeps; the cells run — parallel, cached,
byte-identical at any job count — through the standard
:class:`~repro.scenarios.runner.Runner` like every other kind.
"""

from __future__ import annotations

from repro.attacks.evaluation import AttackEvaluator, build_attack
from repro.cluster.partial import partial_view_report
from repro.datasets.model import resolve_index
from repro.scenarios.cells import register_cell_kind
from repro.scenarios.spec import Cell, Tags

# Row fields every `cluster` cell computes, in report-table order.
CLUSTER_GRID_COLUMNS = (
    "dataset",
    "scheme",
    "attack",
    "nodes",
    "routing",
    "compromised_node",
    "shard_chunks",
    "shard_fraction",
    "inference_rate",
    "precision",
)


def _run_cluster(params: dict) -> tuple[Tags, ...]:
    """Execute one partial-view cell (runnable in any worker process)."""
    from repro.analysis.workloads import encrypted_series

    # The scheme spec passes through verbatim ("obfuscate:4" included).
    auxiliary, target = AttackEvaluator(
        encrypted_series(params["dataset"], params["scheme"])
    ).pair(params["auxiliary"], params["target"])
    attack = build_attack(
        params["attack"], params["u"], params["v"], params["w"]
    )
    view = partial_view_report(
        attack,
        target,
        auxiliary,
        nodes=params["nodes"],
        routing=params["routing"],
        compromised_node=params["compromised_node"],
        scheme=params["scheme"],
        leakage_rate=params.get("leakage_rate", 0.0),
        seed=params.get("seed", 0),
    )
    return (
        (
            *view.report.row("auxiliary", "target"),
            ("shard_chunks", view.shard_chunks),
            ("shard_unique_chunks", view.shard_unique_chunks),
            ("shard_fraction", round(view.shard_fraction, 5)),
            *view.report.row(
                "inference_rate",
                "precision",
                "correct_pairs",
                "inferred_pairs",
                "unique_ciphertext_chunks",
            ),
        ),
    )


def cluster_grid_cells(
    dataset: str = "fsl",
    schemes: tuple[str, ...] = ("mle",),
    attacks: tuple[str, ...] = ("locality",),
    nodes: tuple[int, ...] = (1, 2, 4, 8),
    routings: tuple[str, ...] = ("ring",),
    compromised_node: int = 0,
    u: int = 1,
    v: int = 15,
    w: int = 200_000,
    auxiliary: int = -2,
    target: int = -1,
    leakage_rate: float = 0.0,
    seed: int = 0,
) -> tuple[Cell, ...]:
    """Expand the ``nodes × routing × defense`` partial-view grid.

    One ``cluster`` cell per (scheme × attack × routing × node count)
    combination, anchored on one (auxiliary, target) backup pair; row
    columns are :data:`CLUSTER_GRID_COLUMNS`.  Negative anchor indices
    count from the end of the series, like
    :class:`~repro.scenarios.spec.Anchor`.

    Args:
        dataset: canonical workload name (``"fsl"``, ``"vm"``, …).
        schemes: defense schemes to sweep (the grid's defense axis).
        attacks: paper attacks to sweep.
        nodes: cluster sizes to sweep.
        routings: routing policies to sweep (``"ring"`` / ``"modulo"``).
        compromised_node: which node's shard the adversary observes.
        u / v / w: locality-attack parameters.
        auxiliary / target: anchor backup indices.
        leakage_rate: known-plaintext leakage over the full target.
        seed: determinises the leakage sample.
    """
    from repro.analysis.workloads import series_length

    length = series_length(dataset)
    auxiliary = resolve_index(auxiliary, length)
    target = resolve_index(target, length)
    cells = []
    for scheme in schemes:
        for attack in attacks:
            for routing in routings:
                for num_nodes in nodes:
                    params = {
                        "dataset": dataset,
                        "scheme": scheme,
                        "attack": attack,
                        "u": u,
                        "v": v,
                        "w": w,
                        "auxiliary": auxiliary,
                        "target": target,
                        "nodes": num_nodes,
                        "routing": routing,
                        "compromised_node": compromised_node,
                        "leakage_rate": leakage_rate,
                        # The seed only feeds the leakage sample; at rate 0
                        # nothing is sampled, so normalize it out of the
                        # cache identity (same rule as attack cells).
                        "seed": seed if leakage_rate else 0,
                    }
                    cells.append(
                        Cell(
                            kind="cluster",
                            params=tuple(sorted(params.items())),
                            tags=(
                                ("dataset", dataset),
                                ("scheme", scheme),
                                ("attack", attack),
                                ("nodes", num_nodes),
                                ("routing", routing),
                                ("compromised_node", compromised_node),
                            ),
                        )
                    )
    return tuple(cells)


register_cell_kind("cluster", _run_cluster)
