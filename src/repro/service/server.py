"""Multi-tenant front-end over the shared deduplication engine.

:class:`DedupService` serves per-tenant upload/restore sessions against
one shared :class:`~repro.storage.ddfs.DDFSEngine` — the setting where
cross-user deduplication (and its side channels) exists at all.

The upload session runs the client-assisted dedup protocol of
source-based deduplication systems:

1. the client chunks and encrypts locally (the configured
   :class:`~repro.defenses.pipeline.DefenseScheme`) and sends the upload's
   ciphertext *fingerprint list*;
2. the server resolves duplicates — first against its in-memory state
   (fingerprint cache, open container buffer), then one **batched**
   lookup against the on-disk fingerprint index
   (:meth:`~repro.storage.fingerprint_index.OnDiskFingerprintIndex.lookup_batch`,
   i.e. through whatever :class:`~repro.index.backends.KVBackend` the
   index runs on);
3. the server responds with the needed-set; the client transfers only
   those chunk payloads, which flow through the engine's S1–S4 path and
   into shared containers.

Step 3 is the side channel the meter taps: an upload's *transferred
bytes* reveal how much of the tenant's data the store already held —
including other tenants' data (Zuo et al., arXiv:1703.05126).  Every
request yields a :class:`RequestObservables` record with the bandwidth
signal and a latency proxy in metadata bytes
(:class:`~repro.storage.metrics.MetadataAccessStats` deltas).

Namespaces are enforced at the recipe layer: tenants share physical
chunks but can only restore uploads recorded under their own namespace,
and per-tenant quotas bound *logical* (pre-dedup) bytes — the quantity a
provider bills.

The storage tier behind the dedup response is pluggable: a single shared
:class:`~repro.storage.ddfs.DDFSEngine` (the default, and the paper's
setting) or a :class:`~repro.cluster.cluster.DedupCluster` of N engines
behind a consistent-hash router (``nodes > 1``).  Both implement the same
three tier operations (:meth:`_SingleNodeTier.dedup_response`,
``ingest``, metadata accounting), so the upload protocol — and the
single-node byte stream — is identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import (
    ConfigurationError,
    QuotaExceededError,
    StorageError,
)
from repro.common.units import KiB, MiB
from repro.datasets.model import Backup
from repro.defenses.pipeline import (
    DefensePipeline,
    DefenseScheme,
    EncryptedBackup,
    padded_size,
)
from repro.defenses.segmentation import SegmentationSpec
from repro.storage.ddfs import DDFSEngine
from repro.storage.metrics import publish_engine_metrics
from repro.service.shaping import ShapingPolicy, parse_policy, shape_response
from repro.service.traffic import RESTORE, UPLOAD


@dataclass(frozen=True)
class RequestObservables:
    """What the wire adversary sees of one request.

    For uploads, ``transferred_bytes`` counts only the chunk payloads the
    server actually requested (the dedup response's needed-set) — the
    bandwidth side channel.  Restores always transfer the full logical
    stream, so they carry no dedup signal.  ``metadata_bytes`` is the
    response-latency proxy: index/update/loading bytes the request moved.
    ``request_index`` is the service-order sequence number (the traffic
    round is a client-side notion; the meter tracks it per request).

    Under a response-shaping policy (:mod:`repro.service.shaping`),
    ``transferred_bytes`` is the *shaped* wire observable and
    ``shaped_extra_bytes`` counts the duplicate payload the policy
    requested anyway (0 under the honest policy — the field is inert on
    unshaped services).
    """

    kind: str
    tenant: int
    request_index: int
    label: str
    logical_bytes: int
    transferred_bytes: int
    metadata_bytes: int
    total_chunks: int
    unique_chunks: int
    unique_bytes: int
    stored_chunks: int
    shaped_extra_bytes: int = 0

    @property
    def deduped_bytes(self) -> int:
        """Bytes the dedup response saved (0 for restores)."""
        return self.logical_bytes - self.transferred_bytes

    @property
    def dedup_fraction(self) -> float:
        """Fraction of the logical bytes not transferred."""
        if self.logical_bytes == 0:
            return 0.0
        return self.deduped_bytes / self.logical_bytes


@dataclass(frozen=True)
class UploadResult:
    """Outcome of one upload session."""

    observables: RequestObservables
    encrypted: EncryptedBackup


@dataclass
class _Tenant:
    """Server-side tenant namespace state."""

    quota_bytes: int | None
    logical_bytes: int = 0
    transferred_bytes: int = 0
    uploads: int = 0
    restores: int = 0
    recipes: dict[str, Backup] = field(default_factory=dict)
    # Per label: the upload's distinct chunks and their bytes, which its
    # restores report again.
    unique: dict[str, tuple[int, int]] = field(default_factory=dict)


class _SingleNodeTier:
    """Storage-tier operations over one shared engine.

    This is the pre-cluster upload path verbatim — the dedup response,
    ingest and metering below are byte-identical to the service's
    original inline implementation, which is what keeps single-node
    ``serve-sim`` reports byte-stable across the cluster refactor.
    """

    def __init__(self, engine: DDFSEngine):
        self.engine = engine

    @property
    def entry_bytes(self) -> int:
        return self.engine.index.entry_bytes

    @property
    def metadata_bytes(self) -> int:
        """Metadata bytes the index has moved so far (running total)."""
        return self.engine.index.stats.total_bytes

    def dedup_response(self, unique: dict[bytes, int]) -> list[bytes]:
        """Resolve an upload's unique fingerprints to the needed ones, in
        stream order (:meth:`~repro.storage.ddfs.DDFSEngine.dedup_response`)."""
        return self.engine.dedup_response(unique)[0]

    def ingest(self, fingerprints: list[bytes], sizes: list[int]) -> None:
        self.engine.ingest_unique_batch(fingerprints, sizes)

    @property
    def stored_bytes(self) -> int:
        return self.engine.containers.stored_bytes()

    def unique_chunks_stored(self) -> int:
        return len(self.engine.index) + self.engine.containers.open_chunks

    def close(self) -> None:
        self.engine.finish_backup()
        self.engine.index.close()


class DedupService:
    """A multi-tenant encrypted-dedup service over a shared storage tier.

    Args:
        scheme: encryption scheme tenants upload under.  Cross-user
            deduplication requires content-derived (deterministic)
            encryption, which every :class:`DefenseScheme` satisfies.
        index_backend: fingerprint-index backend — a
            :class:`~repro.index.backends.KVBackend` instance or a spec
            string (``"memory"``, ``"sqlite"``, ``"sharded[:N]"``, …).
            With ``nodes > 1`` only spec strings are accepted (each node
            opens its own backend).
        index_path: where a spec-string backend persists (per-node
            subpaths when clustered).
        default_quota_bytes: logical-byte quota applied to tenants that
            are auto-registered on first upload (``None`` = unlimited).
        segmentation: defense segmentation (scaled default).
        seed: determinises the scrambling defenses.
        nodes: storage-tier size — 1 (default) serves from one shared
            engine, exactly the pre-cluster service; N > 1 serves from a
            :class:`~repro.cluster.cluster.DedupCluster` of N engines.
        routing: cluster placement policy, ``"ring"`` (consistent hash)
            or ``"modulo"`` (ignored when ``nodes == 1``).
        shaping: dedup-response shaping policy — a
            :class:`~repro.service.shaping.ShapingPolicy` or a spec
            string (``"honest"``, ``"rr:0.25"``, ``"quantize:4096"``).
            The policy's decision hash is keyed with ``seed``.
        cache_budget_bytes / bloom_capacity / container_size /
        entry_bytes: engine knobs, per node (service-scale defaults).
    """

    def __init__(
        self,
        scheme: DefenseScheme | str = DefenseScheme.MLE,
        index_backend=None,
        index_path=None,
        default_quota_bytes: int | None = None,
        segmentation: SegmentationSpec | None = None,
        seed: int = 0,
        nodes: int = 1,
        routing: str = "ring",
        shaping: ShapingPolicy | str = "honest",
        cache_budget_bytes: int = 256 * KiB,
        bloom_capacity: int = 1_000_000,
        container_size: int = 1 * MiB,
        entry_bytes: int = 32,
    ):
        if nodes < 1:
            raise ConfigurationError("nodes must be >= 1")
        self.pipeline = DefensePipeline(
            scheme,
            segmentation=segmentation or SegmentationSpec.scaled(),
            seed=seed,
        )
        self.scheme = self.pipeline.scheme
        self.shaping = parse_policy(shaping, seed=seed)
        if nodes == 1:
            self.engine = DDFSEngine(
                cache_budget_bytes=cache_budget_bytes,
                bloom_capacity=bloom_capacity,
                container_size=container_size,
                entry_bytes=entry_bytes,
                index_backend=index_backend,
                index_path=index_path,
            )
            self.cluster = None
            self._tier = _SingleNodeTier(self.engine)
        else:
            from repro.cluster.cluster import DedupCluster

            if index_backend is not None and not isinstance(
                index_backend, str
            ):
                raise ConfigurationError(
                    "a clustered service needs a backend spec string "
                    "(each node opens its own backend)"
                )
            self.engine = None
            self.cluster = DedupCluster(
                nodes=nodes,
                routing=routing,
                index_backend=index_backend,
                index_path=index_path,
                cache_budget_bytes=cache_budget_bytes,
                bloom_capacity=bloom_capacity,
                container_size=container_size,
                entry_bytes=entry_bytes,
            )
            self._tier = self.cluster
        self.default_quota_bytes = default_quota_bytes
        self._tenants: dict[int, _Tenant] = {}
        self._request_counter = 0

    # -- tenant management --------------------------------------------------

    def register_tenant(
        self, tenant: int, quota_bytes: int | None = None
    ) -> None:
        """Create a tenant namespace with an explicit quota."""
        if tenant in self._tenants:
            raise ConfigurationError(f"tenant {tenant} already registered")
        self._tenants[tenant] = _Tenant(quota_bytes=quota_bytes)

    def _tenant(self, tenant: int) -> _Tenant:
        state = self._tenants.get(tenant)
        if state is None:
            state = _Tenant(quota_bytes=self.default_quota_bytes)
            self._tenants[tenant] = state
        return state

    def tenants(self) -> list[int]:
        return sorted(self._tenants)

    def tenant_usage(self, tenant: int) -> dict[str, object]:
        """Billing-grade usage for one tenant namespace."""
        state = self._tenants[tenant]
        return {
            "tenant": tenant,
            "uploads": state.uploads,
            "restores": state.restores,
            "logical_bytes": state.logical_bytes,
            "transferred_bytes": state.transferred_bytes,
            "quota_bytes": state.quota_bytes,
        }

    def has_upload(self, tenant: int, label: str) -> bool:
        state = self._tenants.get(tenant)
        return state is not None and label in state.recipes

    # -- upload session -----------------------------------------------------

    def upload(
        self, tenant: int, backup: Backup, label: str | None = None
    ) -> UploadResult:
        """Serve one upload session; returns observables + the ciphertext.

        Raises:
            QuotaExceededError: the upload would push the tenant's
                logical bytes past its quota (nothing is stored).
            ConfigurationError: the label is already taken in this
                tenant's namespace.
        """
        state = self._tenant(tenant)
        label = label if label is not None else backup.label
        if label in state.recipes:
            raise ConfigurationError(
                f"tenant {tenant} already stored an upload labelled {label!r}"
            )
        if state.quota_bytes is not None:
            # Checked before any work is spent on the upload: the
            # ciphertext's logical bytes are the padded plaintext sizes.
            logical_bytes = sum(map(padded_size, backup.sizes))
            if state.logical_bytes + logical_bytes > state.quota_bytes:
                raise QuotaExceededError(
                    f"tenant {tenant} quota {state.quota_bytes} B exceeded "
                    f"by upload {label!r} ({logical_bytes} B logical)"
                )
        encrypted = self.pipeline.encrypt_backup(backup, self._request_counter)
        stream = encrypted.ciphertext
        logical_bytes = stream.logical_bytes

        metadata_before = self._tier.metadata_bytes

        # Dedup response: resolve the upload's unique fingerprints against
        # in-memory state first, then one batched probe of the on-disk
        # index for the rest (amortized through the KV backend; per owning
        # node when the tier is a cluster).
        unique = stream.first_sizes()
        needed_fingerprints = self._tier.dedup_response(unique)

        # Transfer: only the needed chunks cross the wire, as one batch
        # (first occurrence of each, stream order). The dedup response
        # already proved them unique — not cached, not buffered, not in
        # the index — so they skip the per-chunk S1–S4 chain and take the
        # tier's batched unique-ingest path, with identical dedup
        # decisions and metered bytes.
        needed_sizes = list(map(unique.__getitem__, needed_fingerprints))
        transferred_bytes = sum(needed_sizes)
        self._tier.ingest(needed_fingerprints, needed_sizes)
        stored_chunks = len(needed_fingerprints)

        # Response shaping: the policy may request duplicate chunks on
        # top of the needed-set.  The extra payload crosses the wire
        # (perturbing the bandwidth observable) but is discarded — never
        # ingested — so storage state stays byte-identical to an honest
        # run.  Inactive policies skip the seam entirely.
        shaped_extra_bytes = 0
        if self.shaping.is_active():
            extra = shape_response(
                self.shaping, tenant, label, unique, set(needed_fingerprints)
            )
            for fingerprint, size in unique.items():
                if fingerprint in extra:
                    shaped_extra_bytes += size
            transferred_bytes += shaped_extra_bytes

        metadata_bytes = self._tier.metadata_bytes - metadata_before
        state.recipes[label] = stream
        unique_chunks, unique_bytes = len(unique), sum(unique.values())
        state.unique[label] = unique_chunks, unique_bytes
        state.logical_bytes += logical_bytes
        state.transferred_bytes += transferred_bytes
        state.uploads += 1
        request_index = self._request_counter
        self._request_counter += 1
        observables = RequestObservables(
            kind=UPLOAD,
            tenant=tenant,
            request_index=request_index,
            label=label,
            logical_bytes=logical_bytes,
            transferred_bytes=transferred_bytes,
            metadata_bytes=metadata_bytes,
            total_chunks=len(stream),
            unique_chunks=unique_chunks,
            unique_bytes=unique_bytes,
            stored_chunks=stored_chunks,
            shaped_extra_bytes=shaped_extra_bytes,
        )
        return UploadResult(observables=observables, encrypted=encrypted)

    # -- restore session ----------------------------------------------------

    def restore(
        self, tenant: int, label: str
    ) -> tuple[RequestObservables, Backup]:
        """Serve one restore session from a tenant's own namespace.

        Raises:
            StorageError: the label is not in this tenant's namespace
                (including labels stored by *other* tenants — namespaces
                share chunks, never recipes).
        """
        state = self._tenants.get(tenant)
        recipe = state.recipes.get(label) if state is not None else None
        if recipe is None:
            raise StorageError(
                f"tenant {tenant} has no upload labelled {label!r}"
            )
        state.restores += 1
        logical_bytes = recipe.logical_bytes
        unique_chunks, unique_bytes = state.unique[label]
        observables = RequestObservables(
            kind=RESTORE,
            tenant=tenant,
            request_index=self._request_counter,
            label=label,
            logical_bytes=logical_bytes,
            # Restores serve the full stream regardless of deduplication —
            # restore bandwidth leaks nothing about cross-user overlap.
            transferred_bytes=logical_bytes,
            metadata_bytes=self._tier.entry_bytes * len(recipe),
            total_chunks=len(recipe),
            unique_chunks=unique_chunks,
            unique_bytes=unique_bytes,
            stored_chunks=0,
        )
        self._request_counter += 1
        return observables, recipe

    # -- bookkeeping --------------------------------------------------------

    @property
    def stored_bytes(self) -> int:
        """Physical bytes the storage tier holds (sealed + open)."""
        return self._tier.stored_bytes

    def unique_chunks_stored(self) -> int:
        """Unique chunks the shared store holds (all nodes)."""
        return self._tier.unique_chunks_stored()

    def publish_metrics(self) -> None:
        """Surface storage-tier running totals in the metrics registry
        (per node when clustered); no-op while metrics are off."""
        if self.engine is not None:
            publish_engine_metrics(self.engine)
        elif self.cluster is not None:
            for node_id in sorted(self.cluster.nodes):
                publish_engine_metrics(
                    self.cluster.nodes[node_id].engine, node=node_id
                )

    def close(self) -> None:
        """Seal open containers and release index-backend resources."""
        self._tier.close()
