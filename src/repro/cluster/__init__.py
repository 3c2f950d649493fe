"""Multi-node dedup cluster: routing, rebalancing, partial-view leakage.

The ROADMAP north-star is a service carrying millions of users, which in
practice is a scale-out cluster of storage nodes — and a realistic
compromise then exposes only *one node's shard* of the fingerprint
space.  This package provides that setting:

* :mod:`repro.cluster.ring` — deterministic fingerprint routing: a
  consistent-hash ring (virtual nodes, ``K/N`` moved keys on resize)
  plus the modulo baseline that remaps nearly everything;
* :mod:`repro.cluster.cluster` — ``DedupCluster``, N independent
  :class:`~repro.storage.ddfs.DDFSEngine` nodes behind a router, with
  per-node load/bandwidth metering, skew reporting, and elastic
  add/remove-node rebalancing with moved-key accounting;
* :mod:`repro.cluster.partial` — the partial-view adversary: any paper
  attack run over one compromised node's shard, scored against the full
  target so inference rates compare across cluster sizes;
* :mod:`repro.cluster.cells` — the ``cluster`` scenario cell kind and
  the ``nodes × routing × defense`` grid the cluster experiment
  (``tests/experiments/test_cluster_scale.py``) sweeps.

``DedupService`` runs on top of this tier when configured with
``nodes > 1`` (see :mod:`repro.service.server`); ``freqdedup serve-sim
--nodes N --routing ring|modulo`` and ``freqdedup attack
--nodes N --compromised-node K`` expose it from the CLI.
"""

from repro.cluster.cluster import ClusterNode, DedupCluster, RebalanceReport
from repro.cluster.partial import (
    PartialViewReport,
    evaluate_partial_view,
    partial_view_report,
    shard_view,
)
from repro.cluster.ring import (
    DEFAULT_VNODES,
    ROUTING_POLICIES,
    HashRing,
    ModuloRouter,
    Router,
    open_router,
)

__all__ = [
    "ClusterNode",
    "DEFAULT_VNODES",
    "DedupCluster",
    "HashRing",
    "ModuloRouter",
    "PartialViewReport",
    "ROUTING_POLICIES",
    "RebalanceReport",
    "Router",
    "evaluate_partial_view",
    "open_router",
    "partial_view_report",
    "shard_view",
]
