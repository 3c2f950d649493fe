"""Multi-node dedup storage tier: N engines behind one router.

:class:`DedupCluster` fronts N independent :class:`~repro.storage.ddfs.DDFSEngine`
nodes — each with its own fingerprint cache, Bloom filter, container
store and on-disk index (any :class:`~repro.index.backends.KVBackend`) —
behind a :class:`~repro.cluster.ring.Router`.  A chunk lives on exactly
the node its ciphertext fingerprint routes to, so the node set *shards
the fingerprint space*: compromising one node exposes one shard of the
frequency distribution, the partial-view adversary of
:mod:`repro.cluster.partial`.

The cluster implements the same storage-tier operations
:class:`~repro.service.server.DedupService` drives against a single
engine (dedup response → batched per-node index probes → per-node
unique-chunk ingest), plus what only a cluster has:

* **per-node metering** — chunks/bytes stored, index probes served and
  ingest bandwidth received per node (:meth:`load_report`), with the
  skew summary (max/mean imbalance, coefficient of variation) that
  shows consistent hashing's placement quality;
* **elastic membership** — :meth:`add_node` / :meth:`remove_node` with
  incremental rebalancing: only keys whose route changed move, and the
  returned :class:`RebalanceReport` accounts every moved key and byte
  against the theoretical bound (``K/N`` of ``K`` keys for a ring of N
  nodes; nearly everything for modulo routing);
* **failure and failover** — :meth:`kill_node` / :meth:`restart_node`
  (driven by the ``node.kill`` / ``node.restart`` fault sites during
  :meth:`ingest`) take a node through ``up → down → degraded → up``.
  The *metadata plane* — index probes, engine ingest, the authoritative
  per-node chunk maps and bandwidth meters — is modeled as replicated
  and stays live while a node is down, so every leakage observable and
  :meth:`load_report` is byte-identical to a fault-free run.  Only the
  *data plane* fails over: chunks owned by a down node are physically
  parked on the next healthy ring successor (shadow
  ``failover_chunks``), accounted in a :class:`DegradedReport`, and
  re-homed on rejoin — with the rejoin move asserted against the same
  ``K/N``-style bound as rebalancing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro import faults, obs
from repro.common.errors import ConfigurationError, StorageError
from repro.common.units import KiB, MiB
from repro.storage.ddfs import DDFSEngine
from repro.cluster.ring import DEFAULT_VNODES, Router, open_router


@dataclass
class ClusterNode:
    """One storage node: an engine plus the shard it owns.

    ``chunks`` is the node's authoritative shard content (fingerprint →
    chunk size): it is what rebalancing enumerates and what the load
    report measures.  ``received_bytes`` counts ingest bandwidth into
    the node (client transfers plus rebalance traffic);
    ``index_probes`` counts dedup-response probes served.

    ``health`` is the failure state (``"up"``, ``"degraded"`` while a
    rejoin re-homes parked data, ``"down"``).  ``failover_chunks`` is
    the *shadow* data plane: chunks this node physically holds on
    behalf of a down owner.  Shadow state never leaks into ``chunks``
    or the meters, which is what keeps :meth:`DedupCluster.load_report`
    byte-identical under injected node kills.
    """

    node_id: int
    engine: DDFSEngine
    chunks: dict[bytes, int] = field(default_factory=dict)
    received_bytes: int = 0
    rebalance_bytes: int = 0
    index_probes: int = 0
    health: str = "up"
    failover_chunks: dict[bytes, int] = field(default_factory=dict)

    @property
    def stored_bytes(self) -> int:
        return sum(self.chunks.values())


@dataclass(frozen=True)
class RebalanceReport:
    """Moved-key accounting for one membership change.

    ``theoretical_fraction`` is the expected moved fraction for the
    routing policy: ``1/N`` (ring, N nodes after an add; the removed
    node's share on a remove) versus ``(N-1)/N`` for modulo resizing.
    """

    action: str
    node_id: int
    routing: str
    nodes_before: int
    nodes_after: int
    total_keys: int
    moved_keys: int
    moved_bytes: int
    per_node_moves: tuple[tuple[int, int], ...]

    @property
    def moved_fraction(self) -> float:
        if self.total_keys == 0:
            return 0.0
        return self.moved_keys / self.total_keys

    @property
    def theoretical_fraction(self) -> float:
        if self.routing == "ring":
            return 1.0 / self.nodes_after if self.action == "add" else (
                1.0 / self.nodes_before
            )
        # Modulo resizing remaps everything that lands on a different
        # residue — all but 1/max(N_before, N_after) in expectation.
        return 1.0 - 1.0 / max(self.nodes_before, self.nodes_after)

    def within_bound(self, slack: float = 1.5, absolute: int = 16) -> bool:
        """Whether the move stayed within ``theoretical × slack + absolute``
        keys — the acceptance check the cluster experiment and tests assert
        for ring routing (vnode placement has variance, hence the slack)."""
        bound = self.theoretical_fraction * self.total_keys * slack + absolute
        return self.moved_keys <= bound


@dataclass(frozen=True)
class DegradedReport:
    """Accounting for one node's down → rejoined excursion.

    ``unreachable_keys`` is the size of the node's shard at kill time
    (the keys a client could not physically reach, even though the
    replicated metadata plane kept answering for them).
    ``failover_keys`` / ``failover_bytes`` is the data-plane traffic
    parked on ring successors while the node was down, and
    ``failover_probes`` the extra placement probes spent skipping
    unhealthy nodes to find each chunk a home.  ``rejoin_moved_keys`` /
    ``rejoin_moved_bytes`` is the re-homing move at restart.
    ``killed_after_ingests`` / ``rejoined_after_ingests`` anchor the
    outage window in ingest-call time (deterministic, not wall-clock).
    """

    node_id: int
    killed_after_ingests: int
    rejoined_after_ingests: int
    unreachable_keys: int
    failover_keys: int
    failover_bytes: int
    failover_probes: int
    rejoin_moved_keys: int
    rejoin_moved_bytes: int

    def within_bound(
        self,
        total_keys: int,
        nodes: int,
        slack: float = 1.5,
        absolute: int = 16,
    ) -> bool:
        """Whether the rejoin move stayed within the ``K/N`` bound.

        ``total_keys`` is the number of keys ingested during the outage
        window; the down node owns an expected ``1/nodes`` of them, so
        the re-homed shadow data must fit ``total_keys / nodes × slack
        + absolute`` — the same shape as
        :meth:`RebalanceReport.within_bound`.
        """
        if nodes < 1:
            raise ConfigurationError("nodes must be >= 1")
        bound = total_keys / nodes * slack + absolute
        return self.rejoin_moved_keys <= bound

    def to_dict(self) -> dict[str, int]:
        return {
            "node": self.node_id,
            "killed_after_ingests": self.killed_after_ingests,
            "rejoined_after_ingests": self.rejoined_after_ingests,
            "unreachable_keys": self.unreachable_keys,
            "failover_keys": self.failover_keys,
            "failover_bytes": self.failover_bytes,
            "failover_probes": self.failover_probes,
            "rejoin_moved_keys": self.rejoin_moved_keys,
            "rejoin_moved_bytes": self.rejoin_moved_bytes,
        }


class DedupCluster:
    """N dedup engines behind a consistent-hash (or modulo) router.

    Args:
        nodes: initial cluster size; node ids are ``range(nodes)``.
        routing: placement policy — ``"ring"`` or ``"modulo"``
            (:func:`~repro.cluster.ring.open_router`).
        vnodes: virtual points per ring node.
        index_backend: per-node index backend spec (``"memory"``,
            ``"sqlite"``, ``"sharded[:N]"``, …) or ``None`` for the
            default in-process store.
        index_path: base path for file-backed node indexes; node *i*
            persists under ``<index_path>/node-<i>``.
        cache_budget_bytes / bloom_capacity / container_size /
        entry_bytes: per-node engine knobs (service-scale defaults).
    """

    def __init__(
        self,
        nodes: int = 2,
        routing: str = "ring",
        vnodes: int = DEFAULT_VNODES,
        index_backend=None,
        index_path=None,
        cache_budget_bytes: int = 256 * KiB,
        bloom_capacity: int = 1_000_000,
        container_size: int = 1 * MiB,
        entry_bytes: int = 32,
    ):
        if nodes < 1:
            raise ConfigurationError("a cluster needs at least one node")
        if index_path is not None and index_backend is None:
            raise ConfigurationError(
                "index_path requires an index_backend spec string"
            )
        self.routing = routing
        self.router: Router = open_router(routing, nodes, vnodes=vnodes)
        self._engine_kwargs = dict(
            cache_budget_bytes=cache_budget_bytes,
            bloom_capacity=bloom_capacity,
            container_size=container_size,
            entry_bytes=entry_bytes,
        )
        self._index_backend = index_backend
        self._index_path = index_path
        self.entry_bytes = entry_bytes
        self.nodes: dict[int, ClusterNode] = {
            node_id: self._new_node(node_id) for node_id in range(nodes)
        }
        self.rebalances: list[RebalanceReport] = []
        self.degraded_reports: list[DegradedReport] = []
        self._degraded: dict[int, dict[str, int]] = {}
        self._ingest_calls = 0

    def _new_node(self, node_id: int) -> ClusterNode:
        path = None
        if self._index_path is not None:
            from pathlib import Path

            path = str(Path(self._index_path) / f"node-{node_id:02d}")
        engine = DDFSEngine(
            index_backend=self._index_backend,
            index_path=path,
            **self._engine_kwargs,
        )
        return ClusterNode(node_id=node_id, engine=engine)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node_of(self, fingerprint: bytes) -> int:
        """The node id owning ``fingerprint`` under the current routing."""
        return self.router.node_of(fingerprint)

    # -- the service storage-tier operations --------------------------------

    def dedup_response(self, unique: dict[bytes, int]) -> list[bytes]:
        """Resolve an upload's unique fingerprints to the needed ones, in
        stream order.

        Each owning node runs the single-engine dedup response
        (:meth:`~repro.storage.ddfs.DDFSEngine.dedup_response`) over its
        share, in ascending node id; node caches are independent, so
        splitting by node first changes no decision.
        """
        per_node: dict[int, list[bytes]] = {}
        for fingerprint in unique:
            per_node.setdefault(self.router.node_of(fingerprint), []).append(fingerprint)
        needed: set[bytes] = set()
        for node_id in sorted(per_node):
            node = self.nodes[node_id]
            node_needed, probed = node.engine.dedup_response(per_node[node_id])
            node.index_probes += probed
            needed.update(node_needed)
        return [fp for fp in unique if fp in needed]

    def ingest(self, fingerprints: list[bytes], sizes: list[int]) -> None:
        """Store a batch of resolved-unique chunks on their owning nodes.

        The batch is split per node preserving stream order, so each
        node's containers fill in the order its chunks arrived — chunk
        locality survives sharding *within* a shard.

        Each call is one tick of the ``node.kill`` / ``node.restart``
        fault sites, so an installed :class:`~repro.faults.FaultPlan`
        can fail a node after exactly N ingests and rejoin it M ingests
        later.  The metadata plane below runs unchanged either way;
        only the shadow data-plane placement differs for down owners.
        """
        self._ingest_calls += 1
        kill = faults.fire("node.kill", ingest=self._ingest_calls)
        if kill is not None:
            self.kill_node(int(kill.get("node", 0)))
        restart = faults.fire("node.restart", ingest=self._ingest_calls)
        if restart is not None:
            self.restart_node(int(restart.get("node", 0)))
        per_node: dict[int, tuple[list[bytes], list[int]]] = {}
        for fingerprint, size in zip(fingerprints, sizes):
            node_id = self.router.node_of(fingerprint)
            batch = per_node.get(node_id)
            if batch is None:
                batch = per_node[node_id] = ([], [])
            batch[0].append(fingerprint)
            batch[1].append(size)
        for node_id in sorted(per_node):
            node = self.nodes[node_id]
            node_fps, node_sizes = per_node[node_id]
            node.engine.ingest_unique_batch(node_fps, node_sizes)
            for fingerprint, size in zip(node_fps, node_sizes):
                node.chunks[fingerprint] = size
            node.received_bytes += sum(node_sizes)
            if node.health == "down":
                self._park_failover(node, node_fps, node_sizes)

    def store_stream(self, fingerprints, sizes) -> int:
        """Deduplicate-and-store a raw chunk stream (bench/test path).

        Runs the full dedup response + ingest for the stream's unique
        fingerprints; returns how many chunks were actually stored.
        """
        unique: dict[bytes, int] = {}
        deque(map(unique.setdefault, fingerprints, sizes), maxlen=0)
        batch_fps = self.dedup_response(unique)
        batch_sizes = [unique[fp] for fp in batch_fps]
        self.ingest(batch_fps, batch_sizes)
        return len(batch_fps)

    @property
    def metadata_bytes(self) -> int:
        """Metadata bytes moved across all node indexes (running total)."""
        return sum(
            node.engine.index.stats.total_bytes for node in self.nodes.values()
        )

    @property
    def stored_bytes(self) -> int:
        """Physical bytes across every node's shard contents.

        Counted from the authoritative per-node chunk maps rather than
        container stores: a rebalance re-homes a chunk logically without
        rewriting the source node's sealed containers (space there is
        reclaimed by GC, out of scope for the simulation's accounting).
        """
        return sum(node.stored_bytes for node in self.nodes.values())

    def unique_chunks_stored(self) -> int:
        """Unique chunks the cluster holds (shard contents summed)."""
        return sum(len(node.chunks) for node in self.nodes.values())

    def finish_backup(self) -> None:
        """Seal every node's open container (backup boundary)."""
        for node_id in sorted(self.nodes):
            self.nodes[node_id].engine.finish_backup()

    def close(self) -> None:
        """Seal open containers and release every node's index backend."""
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            node.engine.finish_backup()
            node.engine.index.close()

    # -- failure and failover ------------------------------------------------

    def kill_node(self, node_id: int) -> None:
        """Mark a node down and open its :class:`DegradedReport` window.

        Idempotent — killing an already-down node is a no-op.  The node
        stays a router member (its metadata is replicated), but until
        :meth:`restart_node` every chunk routed to it is physically
        parked on the next healthy successor.
        """
        if node_id not in self.nodes:
            raise ConfigurationError(f"node {node_id} does not exist")
        node = self.nodes[node_id]
        if node.health == "down":
            return
        node.health = "down"
        self._degraded[node_id] = {
            "killed_after_ingests": self._ingest_calls,
            "unreachable_keys": len(node.chunks),
            "failover_keys": 0,
            "failover_bytes": 0,
            "failover_probes": 0,
        }

    def restart_node(self, node_id: int) -> DegradedReport | None:
        """Rejoin a down node: re-home its parked shadow data.

        The node passes through ``degraded`` while every
        ``failover_chunks`` entry it owns is pulled back from its
        holders (the authoritative ``chunks`` map never left, so the
        move is pure data-plane traffic), then returns to ``up``.
        Returns the completed :class:`DegradedReport`, or ``None`` if
        the node was not down.
        """
        if node_id not in self.nodes:
            raise ConfigurationError(f"node {node_id} does not exist")
        node = self.nodes[node_id]
        if node.health != "down":
            return None
        node.health = "degraded"
        moved_keys = 0
        moved_bytes = 0
        for holder_id in sorted(self.nodes):
            holder = self.nodes[holder_id]
            if holder_id == node_id or not holder.failover_chunks:
                continue
            returning = [
                (fingerprint, size)
                for fingerprint, size in holder.failover_chunks.items()
                if self.router.node_of(fingerprint) == node_id
            ]
            for fingerprint, size in returning:
                del holder.failover_chunks[fingerprint]
                moved_keys += 1
                moved_bytes += size
        node.health = "up"
        record = self._degraded.pop(node_id)
        report = DegradedReport(
            node_id=node_id,
            killed_after_ingests=record["killed_after_ingests"],
            rejoined_after_ingests=self._ingest_calls,
            unreachable_keys=record["unreachable_keys"],
            failover_keys=record["failover_keys"],
            failover_bytes=record["failover_bytes"],
            failover_probes=record["failover_probes"],
            rejoin_moved_keys=moved_keys,
            rejoin_moved_bytes=moved_bytes,
        )
        self.degraded_reports.append(report)
        return report

    def _park_failover(
        self, owner: ClusterNode, fingerprints: list[bytes], sizes: list[int]
    ) -> None:
        """Physically park a down owner's chunks on healthy successors."""
        record = self._degraded[owner.node_id]
        for fingerprint, size in zip(fingerprints, sizes):
            holder, probes = self._pick_failover(fingerprint, owner.node_id)
            holder.failover_chunks[fingerprint] = size
            record["failover_keys"] += 1
            record["failover_bytes"] += size
            record["failover_probes"] += probes
            obs.counter("faults.failovers", node=str(owner.node_id))

    def _pick_failover(
        self, fingerprint: bytes, owner_id: int
    ) -> tuple[ClusterNode, int]:
        """The first healthy node clockwise past the owner, plus how
        many placement probes it took to find (each unhealthy candidate
        examined costs one probe — the bandwidth price of failover)."""
        probes = 0
        for candidate_id in self.router.successors(fingerprint):
            if candidate_id == owner_id:
                continue
            probes += 1
            candidate = self.nodes[candidate_id]
            if candidate.health != "down":
                return candidate, probes
        raise StorageError(
            f"no healthy node to fail over to for owner {owner_id}"
        )

    def health_report(self) -> dict[str, object]:
        """Node health plus degradation accounting (JSON-serializable).

        Separate from :meth:`load_report` by design: the load report's
        shape is pinned by goldens and must stay byte-identical under
        injected faults, while this report only exists to *show* them.
        """
        active = [
            {"node": node_id, **dict(record)}
            for node_id, record in sorted(self._degraded.items())
        ]
        return {
            "health": {
                str(node_id): self.nodes[node_id].health
                for node_id in sorted(self.nodes)
            },
            "parked_chunks": sum(
                len(node.failover_chunks) for node in self.nodes.values()
            ),
            "active": active,
            "degraded": [
                report.to_dict() for report in self.degraded_reports
            ],
        }

    # -- elastic membership --------------------------------------------------

    def add_node(self, node_id: int | None = None) -> RebalanceReport:
        """Join a new node and incrementally rebalance onto it.

        Only keys whose route changed move — for ring routing that is
        exactly the keys the new node's virtual points stole, an
        expected ``K/N`` of ``K`` stored keys (asserted against
        :meth:`RebalanceReport.within_bound` by the cluster experiment).
        """
        if node_id is None:
            node_id = max(self.nodes) + 1
        if node_id in self.nodes:
            raise ConfigurationError(f"node {node_id} already exists")
        before = self.num_nodes
        self.nodes[node_id] = self._new_node(node_id)
        self.router.add_node(node_id)
        report = self._rebalance("add", node_id, before)
        self.rebalances.append(report)
        return report

    def remove_node(self, node_id: int) -> RebalanceReport:
        """Drain a node and retire it.

        The drained shard re-homes onto the survivors, and — like
        :meth:`add_node` — *every* surviving key whose route changed
        moves too: under ring routing that is nobody (the removed
        node's ranges fall to its successors), but modulo routing
        remaps residues across all nodes on resize, and placement must
        stay consistent with the router either way.
        """
        if node_id not in self.nodes:
            raise ConfigurationError(f"node {node_id} does not exist")
        if self.num_nodes == 1:
            raise ConfigurationError("cannot remove the last node")
        before = self.num_nodes
        self.router.remove_node(node_id)
        drained = self.nodes.pop(node_id)
        drained.engine.finish_backup()
        drained.engine.index.close()
        report = self._rebalance(
            "remove", node_id, before, homeless=drained.chunks
        )
        self.rebalances.append(report)
        return report

    def _rebalance(
        self,
        action: str,
        node_id: int,
        nodes_before: int,
        homeless: dict[bytes, int] | None = None,
    ) -> RebalanceReport:
        """Move every stored key whose route changed to its new owner.

        ``homeless`` chunks (a just-drained node's shard) no longer have
        an owner at all; each one moves by definition.
        """
        total_keys = self.unique_chunks_stored() + len(homeless or ())
        moved: dict[int, tuple[list[bytes], list[int]]] = {}
        moved_keys = 0
        moved_bytes = 0
        for fingerprint, size in (homeless or {}).items():
            target = self.router.node_of(fingerprint)
            batch = moved.setdefault(target, ([], []))
            batch[0].append(fingerprint)
            batch[1].append(size)
            moved_keys += 1
            moved_bytes += size
        for source_id in sorted(self.nodes):
            source = self.nodes[source_id]
            relocating = [
                (fingerprint, size)
                for fingerprint, size in source.chunks.items()
                if self.router.node_of(fingerprint) != source_id
            ]
            for fingerprint, size in relocating:
                del source.chunks[fingerprint]
                source.engine.index.remove(fingerprint)
                target = self.router.node_of(fingerprint)
                batch = moved.setdefault(target, ([], []))
                batch[0].append(fingerprint)
                batch[1].append(size)
                moved_keys += 1
                moved_bytes += size
        per_node = self._apply_moves(moved)
        return RebalanceReport(
            action=action,
            node_id=node_id,
            routing=self.routing,
            nodes_before=nodes_before,
            nodes_after=self.num_nodes,
            total_keys=total_keys,
            moved_keys=moved_keys,
            moved_bytes=moved_bytes,
            per_node_moves=per_node,
        )

    def _apply_moves(
        self, moved: dict[int, tuple[list[bytes], list[int]]]
    ) -> tuple[tuple[int, int], ...]:
        """Ingest relocated chunks on their new owners; returns
        ``(node_id, keys_received)`` pairs in node order."""
        per_node: list[tuple[int, int]] = []
        for target_id in sorted(moved):
            target = self.nodes[target_id]
            batch_fps, batch_sizes = moved[target_id]
            target.engine.ingest_unique_batch(batch_fps, batch_sizes)
            for fingerprint, size in zip(batch_fps, batch_sizes):
                target.chunks[fingerprint] = size
            transferred = sum(batch_sizes)
            target.received_bytes += transferred
            target.rebalance_bytes += transferred
            per_node.append((target_id, len(batch_fps)))
        return tuple(per_node)

    # -- metering ------------------------------------------------------------

    def load_report(self) -> dict[str, object]:
        """Per-node load plus the skew summary (JSON-serializable).

        ``imbalance`` is max/mean chunks per node (1.0 = perfectly even);
        ``cv`` is the coefficient of variation of per-node chunk counts.
        """
        per_node = [
            {
                "node": node_id,
                "chunks": len(self.nodes[node_id].chunks),
                "stored_bytes": self.nodes[node_id].stored_bytes,
                "received_bytes": self.nodes[node_id].received_bytes,
                "rebalance_bytes": self.nodes[node_id].rebalance_bytes,
                "index_probes": self.nodes[node_id].index_probes,
                "metadata_bytes": self.nodes[
                    node_id
                ].engine.index.stats.total_bytes,
            }
            for node_id in sorted(self.nodes)
        ]
        counts = [entry["chunks"] for entry in per_node]
        mean = sum(counts) / len(counts) if counts else 0.0
        if mean > 0:
            variance = sum((count - mean) ** 2 for count in counts) / len(counts)
            cv = (variance**0.5) / mean
            imbalance = max(counts) / mean
        else:
            cv = 0.0
            imbalance = 1.0
        return {
            "nodes": self.num_nodes,
            "routing": self.routing,
            "total_chunks": sum(counts),
            "skew": {
                "mean_chunks": round(mean, 2),
                "max_chunks": max(counts) if counts else 0,
                "min_chunks": min(counts) if counts else 0,
                "imbalance": round(imbalance, 4),
                "cv": round(cv, 4),
            },
            "per_node": per_node,
            "rebalances": [
                {
                    "action": report.action,
                    "node": report.node_id,
                    "moved_keys": report.moved_keys,
                    "moved_bytes": report.moved_bytes,
                    "total_keys": report.total_keys,
                    "moved_fraction": round(report.moved_fraction, 4),
                    "theoretical_fraction": round(
                        report.theoretical_fraction, 4
                    ),
                }
                for report in self.rebalances
            ],
        }
