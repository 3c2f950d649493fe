"""Fingerprint routing policies for the multi-node storage tier.

A scale-out dedup store places each chunk on exactly one node, decided by
its (ciphertext) fingerprint alone — routing must be a pure function of
the key so every front-end resolves the same owner without coordination.
Two policies are provided:

* :class:`HashRing` — consistent hashing.  Every node projects ``vnodes``
  virtual points onto a 64-bit ring (BLAKE2b of ``node:<id>:<replica>``);
  a fingerprint is owned by the first node point clockwise from its own
  hash.  Adding a node steals only the ranges its new points land in, so
  an expected ``K/N`` of ``K`` stored keys move — the bound
  :meth:`repro.cluster.cluster.DedupCluster.add_node` asserts — and every
  *surviving* node's shard only shrinks (shard nesting), which is what
  makes the partial-view leakage sweep monotone in cluster size.
* :class:`ModuloRouter` — the naive baseline: ``crc32(fp) % N``.  Uniform
  placement, but resizing from N to N+1 remaps an expected ``N/(N+1)`` of
  all keys; the cluster experiment quantifies the gap against the ring.

Both are deterministic across processes and reruns (no dependence on
``PYTHONHASHSEED``), which the routing-determinism tests pin down.

Use :func:`open_router` to build one from a CLI-friendly policy name
(``"ring"`` or ``"modulo"``).
"""

from __future__ import annotations

import hashlib
import zlib
from bisect import bisect_right
from typing import Iterable, Protocol, runtime_checkable

from repro.common.errors import ConfigurationError

ROUTING_POLICIES = ("ring", "modulo")
DEFAULT_VNODES = 64


@runtime_checkable
class Router(Protocol):
    """Pure fingerprint → node-id placement function.

    Contract (what the conformance tests in ``tests/unit/test_cluster.py``
    assert): :meth:`node_of` depends only on the key and the current node
    set; :meth:`add_node` / :meth:`remove_node` keep all other node ids
    valid; :attr:`node_ids` lists members in ascending order.
    """

    policy: str

    @property
    def node_ids(self) -> tuple[int, ...]: ...

    def node_of(self, key: bytes) -> int: ...

    def successors(self, key: bytes): ...

    def add_node(self, node_id: int) -> None: ...

    def remove_node(self, node_id: int) -> None: ...


def _check_new_node(node_ids: Iterable[int], node_id: int) -> None:
    if node_id in node_ids:
        raise ConfigurationError(f"node {node_id} is already in the router")


def _check_member(node_ids: Iterable[int], node_id: int) -> None:
    if node_id not in node_ids:
        raise ConfigurationError(f"node {node_id} is not in the router")


def _hash64(data: bytes) -> int:
    """64-bit position on the ring (BLAKE2b — stable across processes)."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent-hash ring over chunk fingerprints.

    Args:
        node_ids: initial members (any iterable of ints).
        vnodes: virtual points per node.  More points flatten per-node
            load skew (the placement variance shrinks like ``1/vnodes``)
            at the cost of a larger token table; 64 keeps the max/mean
            load imbalance within ~1.3× at realistic shard counts.
    """

    policy = "ring"

    def __init__(self, node_ids: Iterable[int] = (), vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ConfigurationError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._members: set[int] = set()
        self._tokens: list[int] = []
        self._owners: list[int] = []
        for node_id in node_ids:
            self.add_node(node_id)
        # Token collisions across nodes are possible in principle (64-bit
        # hashes), but would silently merge ranges; refuse loudly instead.
        if len(set(self._tokens)) != len(self._tokens):
            raise ConfigurationError(
                "hash-ring token collision; change vnodes or node ids"
            )

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._members))

    def _points(self, node_id: int) -> list[int]:
        return [
            _hash64(b"node:%d:%d" % (node_id, replica))
            for replica in range(self.vnodes)
        ]

    def add_node(self, node_id: int) -> None:
        """Project the node's virtual points onto the ring."""
        _check_new_node(self._members, node_id)
        self._members.add(node_id)
        for token in self._points(node_id):
            index = bisect_right(self._tokens, token)
            self._tokens.insert(index, token)
            self._owners.insert(index, node_id)

    def remove_node(self, node_id: int) -> None:
        """Drop the node's virtual points; its ranges fall to successors."""
        _check_member(self._members, node_id)
        if len(self._members) == 1:
            raise ConfigurationError("cannot remove the last node")
        self._members.remove(node_id)
        kept = [
            (token, owner)
            for token, owner in zip(self._tokens, self._owners)
            if owner != node_id
        ]
        self._tokens = [token for token, _ in kept]
        self._owners = [owner for _, owner in kept]

    def node_of(self, key: bytes) -> int:
        """Owner of ``key``: first node point clockwise from its hash."""
        if not self._tokens:
            raise ConfigurationError("the ring has no nodes")
        index = bisect_right(self._tokens, _hash64(key))
        if index == len(self._tokens):
            index = 0  # wrap: past the last token the ring restarts
        return self._owners[index]

    def successors(self, key: bytes):
        """Distinct owners clockwise from ``key``'s position.

        The first yielded node is :meth:`node_of`; the rest are the
        ring-order failover sequence — the nodes whose ranges would
        absorb the key if the ones before them were down.  Every member
        appears exactly once.
        """
        if not self._tokens:
            raise ConfigurationError("the ring has no nodes")
        start = bisect_right(self._tokens, _hash64(key))
        count = len(self._tokens)
        seen: set[int] = set()
        for step in range(count):
            owner = self._owners[(start + step) % count]
            if owner not in seen:
                seen.add(owner)
                yield owner


class ModuloRouter:
    """The modulo-routing baseline: ``crc32(fp) % N``.

    Placement is uniform, but the mapping depends on the *count and order*
    of members: resizing remaps almost every key, which is exactly the
    behaviour the rebalance accounting contrasts with the ring.
    """

    policy = "modulo"

    def __init__(self, node_ids: Iterable[int] = ()):
        self._node_ids: list[int] = []
        for node_id in node_ids:
            self.add_node(node_id)

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(self._node_ids)

    def add_node(self, node_id: int) -> None:
        _check_new_node(self._node_ids, node_id)
        self._node_ids.append(node_id)
        self._node_ids.sort()

    def remove_node(self, node_id: int) -> None:
        _check_member(self._node_ids, node_id)
        if len(self._node_ids) == 1:
            raise ConfigurationError("cannot remove the last node")
        self._node_ids.remove(node_id)

    def node_of(self, key: bytes) -> int:
        if not self._node_ids:
            raise ConfigurationError("the router has no nodes")
        return self._node_ids[zlib.crc32(key) % len(self._node_ids)]

    def successors(self, key: bytes):
        """Members starting at the owner, cycling in ascending-id order.

        Modulo routing has no ring geometry, so the failover sequence is
        simply the sorted member list rotated to start at the owner.
        """
        if not self._node_ids:
            raise ConfigurationError("the router has no nodes")
        start = zlib.crc32(key) % len(self._node_ids)
        for step in range(len(self._node_ids)):
            yield self._node_ids[(start + step) % len(self._node_ids)]


def open_router(
    policy: str, num_nodes: int, vnodes: int = DEFAULT_VNODES
) -> Router:
    """Build a router over nodes ``0 .. num_nodes-1`` by policy name.

    Args:
        policy: ``"ring"`` (consistent hashing) or ``"modulo"``.
        num_nodes: cluster size; node ids are ``range(num_nodes)``.
        vnodes: virtual points per node (ring only).
    """
    if num_nodes < 1:
        raise ConfigurationError("num_nodes must be >= 1")
    if policy == "ring":
        return HashRing(range(num_nodes), vnodes=vnodes)
    if policy == "modulo":
        return ModuloRouter(range(num_nodes))
    raise ConfigurationError(
        f"unknown routing policy {policy!r}; choose from {ROUTING_POLICIES}"
    )
