"""The partial-view adversary: frequency analysis over one node's shard.

The paper's adversary taps the *whole* shared store; in a scale-out
deployment a realistic compromise exposes one storage node — the slice of
the ciphertext stream whose fingerprints route to it.  The journal
version of the source paper (arXiv:1904.05736) frames leakage as a
function of what slice of the frequency distribution the adversary
observes; a per-shard COUNT is exactly that experiment.

:func:`shard_view` projects a backup onto one node's shard (preserving
arrival order — the compromised node sees its own chunks in the order
they arrived, so *within-shard* adjacency survives and the locality
attacks still have structure to traverse).  :func:`evaluate_partial_view`
then hands the one evaluation driver
(:func:`repro.attacks.evaluation.evaluate`) a source whose observed
ciphertext is the projection, with the adversary's **full** auxiliary
knowledge (the prior backup is the adversary's own plaintext — nothing
shards it), scored against the whole target:

* the inference-rate denominator stays the *full* target's unique
  ciphertext chunk count, so the rate reads as "fraction of the backup
  the shard betrayed" and is comparable across cluster sizes;
* under ring routing a node's shard only shrinks as the cluster grows
  (shard nesting, see :mod:`repro.cluster.ring`), which is why the
  pinned-seed sweep in ``tests/experiments/test_cluster_scale.py`` is
  monotonically non-increasing in node count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.base import Attack
from repro.attacks.evaluation import AttackSource, InferenceReport, evaluate
from repro.cluster.ring import DEFAULT_VNODES, Router, open_router
from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup
from repro.defenses.pipeline import EncryptedBackup


@dataclass(frozen=True)
class PartialViewReport:
    """One partial-view attack outcome: the standard report plus shard
    accounting.

    Attributes:
        report: the :class:`~repro.attacks.evaluation.InferenceReport`
            scored with the full-target denominator (see module docs).
        nodes: cluster size the routing was computed over.
        routing: routing policy name (``"ring"`` / ``"modulo"``).
        compromised_node: the node whose shard the adversary observed.
        shard_chunks: ciphertext chunk *occurrences* routed to the node.
        shard_unique_chunks: unique ciphertext fingerprints in the shard.
        shard_fraction: shard unique chunks over the full target's unique
            chunks — the observed slice of the frequency distribution.
    """

    report: InferenceReport
    nodes: int
    routing: str
    compromised_node: int
    shard_chunks: int
    shard_unique_chunks: int
    shard_fraction: float

    def __str__(self) -> str:
        return (
            f"partial-view node {self.compromised_node}/{self.nodes} "
            f"({self.routing}): shard {self.shard_unique_chunks} unique "
            f"chunks ({self.shard_fraction:.2%} of target) -> {self.report}"
        )


def shard_view(backup: Backup, router: Router, node_id: int) -> Backup:
    """Project ``backup`` onto the shard node ``node_id`` owns.

    Returns the sub-stream of chunk occurrences whose fingerprints route
    to the node, in original arrival order.

    Args:
        backup: the full (ciphertext) chunk stream.
        router: the cluster's placement function.
        node_id: the compromised node.
    """
    fingerprints: list[bytes] = []
    sizes: list[int] = []
    node_of = router.node_of
    for fingerprint, size in zip(backup.fingerprints, backup.sizes):
        if node_of(fingerprint) == node_id:
            fingerprints.append(fingerprint)
            sizes.append(size)
    return Backup(
        label=f"{backup.label}@node{node_id}",
        fingerprints=fingerprints,
        sizes=sizes,
    )


def evaluate_partial_view(
    attack: Attack,
    target: EncryptedBackup,
    auxiliary: Backup,
    router: Router,
    compromised_node: int,
    scheme: str = "mle",
    leakage_rate: float = 0.0,
    seed: int = 0,
) -> PartialViewReport:
    """Run ``attack`` over one compromised node's shard of ``target``.

    The attack sees the shard's ciphertext sub-stream and the full
    auxiliary plaintext; leaked known-plaintext pairs (if any) are
    sampled from the full target and then restricted to pairs whose
    ciphertext chunk actually lives on the compromised node — a node
    compromise cannot leak pairs it does not store.

    Args:
        attack: any paper attack (basic / locality / advanced).
        target: the encrypted target backup (carries ground truth).
        auxiliary: the adversary's plaintext prior (full stream).
        router: the cluster's placement function.
        compromised_node: which node's shard the adversary observed.
        scheme: defense scheme label for the report.
        leakage_rate: known-plaintext leakage over the *full* target.
        seed: determinises the leakage sample.

    Returns:
        A :class:`PartialViewReport`; a shard with zero observed chunks
        scores an all-zero report (an attack over an empty stream infers
        nothing), so sweeps over large clusters stay total.
    """
    if compromised_node not in router.node_ids:
        raise ConfigurationError(
            f"compromised node {compromised_node} is not in the cluster "
            f"(nodes: {list(router.node_ids)})"
        )
    shard = shard_view(target.ciphertext, router, compromised_node)
    # The source of a node compromise: the shard is what was observed and
    # what can leak; the denominator stays the full target's, so the rate
    # reads as "fraction of the whole backup the shard betrayed".
    source = AttackSource.of_backups(scheme, target, auxiliary, observed=shard)
    shard_unique = len(source.visible)
    full_unique = target.unique_ciphertext_chunks
    return PartialViewReport(
        report=evaluate(attack, source, leakage_rate, seed),
        nodes=len(router.node_ids),
        routing=getattr(router, "policy", "ring"),
        compromised_node=compromised_node,
        shard_chunks=len(shard),
        shard_unique_chunks=shard_unique,
        shard_fraction=round(shard_unique / full_unique, 6) if full_unique else 0.0,
    )


def partial_view_report(
    attack: Attack,
    target: EncryptedBackup,
    auxiliary: Backup,
    nodes: int,
    routing: str = "ring",
    compromised_node: int = 0,
    vnodes: int = DEFAULT_VNODES,
    scheme: str = "mle",
    leakage_rate: float = 0.0,
    seed: int = 0,
) -> PartialViewReport:
    """Convenience wrapper building the router from ``(nodes, routing)``."""
    router = open_router(routing, nodes, vnodes=vnodes)
    return evaluate_partial_view(
        attack,
        target,
        auxiliary,
        router,
        compromised_node,
        scheme=scheme,
        leakage_rate=leakage_rate,
        seed=seed,
    )
