"""Cross-user side-channel metering: the adversary's view of the service.

The multi-tenant threat model gives the adversary two vantage points the
single-client trace path cannot express:

* **the wire** — per-upload transferred bytes.  With client-assisted
  deduplication an upload's bandwidth reveals how much of the tenant's
  data the shared store already held, including *other tenants'* data;
  :meth:`SideChannelMeter.bandwidth_signal` is that series.
* **the store** — cross-tenant chunk overlap.  A curious provider (or an
  attacker with store access) sees which ciphertext chunks tenants
  share; :meth:`SideChannelMeter.overlap_matrix` quantifies it, and
  :meth:`SideChannelMeter.evaluate` replays the paper's frequency/
  locality attacks with one tenant's *plaintext* as auxiliary knowledge
  against another tenant's *ciphertext* upload, through the one
  evaluation driver (:func:`repro.attacks.evaluation.evaluate`).

The meter is evaluation harness, not server code: it also retains the
plaintext streams (ground truth) so inference rates can be scored, which
a real adversary of course lacks.
"""

from __future__ import annotations

from repro.attacks.base import Attack
from repro.attacks.evaluation import AttackSource, InferenceReport, evaluate
from repro.datasets.model import Backup
from repro.common.errors import ConfigurationError
from repro.defenses.pipeline import DefenseScheme, EncryptedBackup
from repro.service.server import RequestObservables, UploadResult
from repro.service.traffic import RESTORE, UPLOAD, Request


class SideChannelMeter:
    """Accumulates request observables into the adversary's view.

    The meter records what each vantage point can see — per-request wire
    observables for the network adversary, per-tenant ciphertext chunk
    sets for the store adversary — plus the plaintext ground truth the
    *evaluation* needs (which a real adversary lacks; see module docs).

    Args:
        scheme: the defense scheme the observed service encrypts under
            (stamped into attack reports).
    """

    def __init__(self, scheme: DefenseScheme = DefenseScheme.MLE):
        self.scheme = DefenseScheme(scheme)
        self.observables: list[RequestObservables] = []
        self._upload_rounds: list[int] = []
        self._plaintexts: list[Backup] = []
        self._ciphertexts: list[EncryptedBackup] = []
        self._upload_positions: dict[int, list[int]] = {}
        self._tenant_fingerprints: dict[int, set[bytes]] = {}

    # -- recording ----------------------------------------------------------

    def observe_upload(self, request: Request, result: UploadResult) -> None:
        """Record one served upload.

        Args:
            request: the traffic request (carries the plaintext stream —
                the ground truth side — and the client's round number).
            result: what the service returned: wire observables plus the
                ciphertext the adversary taps.

        Raises:
            ConfigurationError: ``request`` is not an upload (or carries
                no plaintext backup).
        """
        if request.kind != UPLOAD or request.backup is None:
            raise ConfigurationError("observe_upload needs an upload request")
        position = len(self._plaintexts)
        self.observables.append(result.observables)
        self._upload_rounds.append(request.round)
        self._plaintexts.append(request.backup)
        self._ciphertexts.append(result.encrypted)
        self._upload_positions.setdefault(request.tenant, []).append(position)
        self._tenant_fingerprints.setdefault(request.tenant, set()).update(
            result.encrypted.ciphertext.fingerprints
        )

    def observe_restore(self, observables: RequestObservables) -> None:
        """Record one served restore (bandwidth only; no dedup signal).

        Args:
            observables: the restore's wire record.

        Raises:
            ConfigurationError: the record is not a restore.
        """
        if observables.kind != RESTORE:
            raise ConfigurationError("observe_restore needs a restore record")
        self.observables.append(observables)

    # -- the bandwidth side channel -----------------------------------------

    def upload_records(self) -> list[tuple[int, RequestObservables]]:
        """Served uploads as ``(traffic round, observables)``, in service
        order (the round is client-side context the meter captured from
        each request; observables only carry the service sequence)."""
        uploads = [
            record for record in self.observables if record.kind == UPLOAD
        ]
        return list(zip(self._upload_rounds, uploads))

    def bandwidth_signal(self) -> list[dict[str, object]]:
        """Per-upload wire observables, in service order.

        Returns:
            One JSON-serializable row per served upload — tenant, round,
            label, logical/transferred bytes and the dedup fraction (the
            bandwidth side channel's time series).  When the observed
            service shaped any response (:mod:`repro.service.shaping`),
            every row additionally carries ``shaped_extra_bytes``;
            honest traces keep the pre-shaping row shape byte-for-byte.
        """
        records = self.upload_records()
        shaped = any(
            record.shaped_extra_bytes for _, record in records
        )
        rows = []
        for round_index, record in records:
            row = {
                "tenant": record.tenant,
                "round": round_index,
                "label": record.label,
                "logical_bytes": record.logical_bytes,
                "transferred_bytes": record.transferred_bytes,
                "dedup_fraction": round(record.dedup_fraction, 4),
            }
            if shaped:
                row["shaped_extra_bytes"] = record.shaped_extra_bytes
            rows.append(row)
        return rows

    # -- the store-view side channel ------------------------------------------

    def tenants(self) -> list[int]:
        return sorted(self._upload_positions)

    def overlap(
        self, auxiliary_tenant: int | None, target_tenant: int
    ) -> float:
        """Fraction of the target tenant's unique ciphertext chunks also
        uploaded by the auxiliary tenant (directional, like
        :func:`repro.datasets.stats.content_overlap`).

        Args:
            auxiliary_tenant: the observing tenant, or ``None`` to
                measure against the rest of the population — the upper
                bound on any population-auxiliary attack's inference
                rate.
            target_tenant: the observed tenant.

        Returns:
            Overlap in ``[0, 1]``; 0.0 for a tenant with no uploads.
        """
        target = self._tenant_fingerprints.get(target_tenant, set())
        if not target:
            return 0.0
        if auxiliary_tenant is None:
            auxiliary = set()
            for tenant, fingerprints in self._tenant_fingerprints.items():
                if tenant != target_tenant:
                    auxiliary |= fingerprints
        else:
            auxiliary = self._tenant_fingerprints.get(auxiliary_tenant, set())
        return len(target & auxiliary) / len(target)

    def overlap_matrix(self) -> dict[int, dict[int, float]]:
        """Full cross-tenant overlap: ``matrix[a][b]`` = fraction of b's
        chunks that a also holds."""
        tenants = self.tenants()
        return {
            a: {b: round(self.overlap(a, b), 4) for b in tenants}
            for a in tenants
        }

    def overlap_summary(self) -> dict[str, float]:
        """Mean/min/max of the off-diagonal overlap entries."""
        tenants = self.tenants()
        values = [
            self.overlap(a, b) for a in tenants for b in tenants if a != b
        ]
        if not values:
            return {"mean": 0.0, "min": 0.0, "max": 0.0}
        return {
            "mean": round(sum(values) / len(values), 4),
            "min": round(min(values), 4),
            "max": round(max(values), 4),
        }

    # -- feeding the attack harness -------------------------------------------

    def upload_position(self, tenant: int, occurrence: int = -1) -> int:
        """Global trace position of a tenant's n-th upload.

        Args:
            tenant: the tenant whose upload to locate.
            occurrence: which of the tenant's uploads, in service order;
                negative indices count from the end (default: last).

        Returns:
            The upload's index in the meter's service-order trace.

        Raises:
            ConfigurationError: the tenant completed no uploads.
        """
        positions = self._upload_positions.get(tenant)
        if not positions:
            raise ConfigurationError(f"tenant {tenant} has no uploads")
        return positions[occurrence]

    def population_auxiliary(self, excluding_tenant: int) -> Backup:
        """The population's plaintext stream, minus one tenant.

        This is the journal extension's strongest multi-tenant adversary:
        a provider-side observer (or colluding tenant coalition) who knows
        what everyone *except* the target uploaded.  Uploads concatenate
        in service order, so within-upload chunk adjacency — what the
        locality-based attack traverses — is preserved.
        """
        population = Backup(label=f"population-minus-t{excluding_tenant:04d}")
        excluded = set(
            self._upload_positions.get(excluding_tenant, ())
        )
        for position, backup in enumerate(self._plaintexts):
            if position in excluded:
                continue
            population.fingerprints.extend(backup.fingerprints)
            population.sizes.extend(backup.sizes)
        return population

    def attack_pair(
        self,
        auxiliary_tenant: int | None,
        target_tenant: int,
        auxiliary_occurrence: int = -1,
        target_occurrence: int = -1,
    ) -> tuple[Backup, EncryptedBackup]:
        """The adversary's plaintext knowledge and the victim's encrypted
        upload, as :meth:`evaluate` pairs them. Auxiliary-information
        streams such as the population auxiliary are never uploads
        themselves.

        Raises:
            ConfigurationError: either tenant completed no uploads.
        """
        if auxiliary_tenant is None:
            auxiliary = self.population_auxiliary(target_tenant)
        else:
            auxiliary = self._plaintexts[
                self.upload_position(auxiliary_tenant, auxiliary_occurrence)
            ]
        return auxiliary, self._ciphertexts[
            self.upload_position(target_tenant, target_occurrence)
        ]

    def evaluate(
        self,
        attack: Attack,
        auxiliary_tenant: int | None,
        target_tenant: int,
        auxiliary_occurrence: int = -1,
        target_occurrence: int = -1,
        leakage_rate: float = 0.0,
        seed: int = 0,
    ) -> InferenceReport:
        """Run a cross-tenant attack against ``target_tenant``'s
        ciphertext upload.

        Args:
            attack: any paper attack (basic / locality / advanced).
            auxiliary_tenant: the adversary's prior knowledge — a
                specific tenant's plaintext upload (the curious-tenant
                model), or ``None`` for the population auxiliary:
                everything every *other* tenant uploaded (the
                curious-provider model, see :meth:`population_auxiliary`).
            target_tenant: the victim tenant.
            auxiliary_occurrence / target_occurrence: which of the
                tenants' uploads anchor the pair (default: last).
            leakage_rate: known-plaintext leakage over the target's
                unique ciphertext chunks (0 = ciphertext-only mode).
            seed: determinises the leakage sample.

        Returns:
            The scored :class:`~repro.attacks.evaluation.InferenceReport`.

        Raises:
            ConfigurationError: either tenant completed no uploads.
        """
        auxiliary, target = self.attack_pair(
            auxiliary_tenant, target_tenant, auxiliary_occurrence, target_occurrence
        )
        source = AttackSource.of_backups(self.scheme.value, target, auxiliary)
        return evaluate(attack, source, leakage_rate, seed)

    def evaluate_partial(
        self,
        attack: Attack,
        auxiliary_tenant: int | None,
        target_tenant: int,
        router,
        compromised_node: int,
        auxiliary_occurrence: int = -1,
        target_occurrence: int = -1,
        leakage_rate: float = 0.0,
        seed: int = 0,
    ):
        """Run a *partial-view* cross-tenant attack: the adversary holds
        one compromised storage node's shard of the target upload.

        Same adversary-knowledge model as :meth:`evaluate`
        (``auxiliary_tenant`` = a tenant id or ``None`` for the
        population auxiliary), but the observed ciphertext is projected
        onto the shard ``compromised_node`` owns under ``router``
        (:func:`repro.cluster.partial.shard_view`) before the attack
        runs, and the inference rate keeps the full target's unique
        chunks as denominator — so rates compare across cluster sizes.

        Args:
            attack: any paper attack.
            auxiliary_tenant: the adversary's prior knowledge (see
                :meth:`evaluate`).
            target_tenant: the victim tenant.
            router: the cluster's placement function
                (:class:`~repro.cluster.ring.Router`).
            compromised_node: which node's shard the adversary observed.
            auxiliary_occurrence / target_occurrence: which of the
                tenants' uploads anchor the pair (default: last).
            leakage_rate / seed: known-plaintext mode, as in
                :meth:`evaluate`.

        Returns:
            A :class:`~repro.cluster.partial.PartialViewReport`.
        """
        from repro.cluster.partial import evaluate_partial_view

        auxiliary, target = self.attack_pair(
            auxiliary_tenant, target_tenant, auxiliary_occurrence, target_occurrence
        )
        return evaluate_partial_view(
            attack,
            target,
            auxiliary,
            router,
            compromised_node,
            scheme=self.scheme.value,
            leakage_rate=leakage_rate,
            seed=seed,
        )
