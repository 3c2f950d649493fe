"""The per-occurrence defense pipeline as the differential oracle.

``repro.defenses.pipeline`` encrypts each *distinct* chunk once, through
ciphertext maps that live as long as the pipeline, and does everything
per occurrence with C-level ``map`` / ``zip`` / ``dict`` calls. What it
replaced — one Python iteration per chunk occurrence, in three loops —
lives here verbatim (``OraclePipeline``, and ``LoopService`` for the
service's upload/restore bookkeeping) and must agree with it byte for
byte: ciphertext stream, sizes, the order of ``truth``, segment count and
restore order, for every scheme and knob, on seeded edit-derived series
and on the degenerate streams.
"""

import hashlib
import random

import pytest

from repro.common.errors import (
    ConfigurationError,
    QuotaExceededError,
    StorageError,
)
from repro.common.rng import rng_from
from repro.datasets.model import Backup, BackupSeries
from repro.defenses.obfuscate import (
    DEFAULT_VARIANTS,
    FrequencyObfuscator,
    parse_scheme,
)
from repro.defenses.pipeline import (
    MLE_PREFIX,
    DefensePipeline,
    DefenseScheme,
    EncryptedBackup,
    EncryptedSeries,
    cipher_fingerprint,
    padded_size,
)
from repro.defenses.scramble import DEQUE, FISHER_YATES, scramble_indices
from repro.defenses.segmentation import SegmentationSpec, segment_stream
from repro.service.server import DedupService, RequestObservables, UploadResult
from repro.service.shaping import shape_response
from repro.service.traffic import RESTORE, UPLOAD

# ---------------------------------------------------------------------------
# The oracles (code as of the commit before the ciphertext maps)


class OracleObfuscator(FrequencyObfuscator):
    """The unmemoised phase and the variant hash spelt out."""

    def offset(self, plaintext_fp: bytes) -> int:
        """The keyed starting phase of one chunk's round-robin."""
        if self.variants == 1:
            return 0
        digest = hashlib.sha256(self._phase_key + plaintext_fp).digest()
        return int.from_bytes(digest[:4], "big") % self.variants

    @staticmethod
    def variant_fingerprint(
        plaintext_fp: bytes, variant: int, length: int
    ) -> bytes:
        """Ciphertext fingerprint of one (chunk, variant) pair."""
        prefix = b"obf|" + variant.to_bytes(4, "big") + b"|"
        return hashlib.sha256(prefix + plaintext_fp).digest()[:length]


class OraclePipeline:
    """``DefensePipeline`` as it stood before the ciphertext maps: every
    occurrence hashed (or looked up in a per-call cache), recorded and
    appended in Python. Verbatim, except that the obfuscator is the
    oracle copy above."""

    def __init__(
        self,
        scheme: DefenseScheme | str = DefenseScheme.MLE,
        segmentation: SegmentationSpec | None = None,
        seed: int = 0,
        scramble_mode: str = DEQUE,
        fingerprint_bytes: int | None = None,
        obfuscate_variants: int = DEFAULT_VARIANTS,
    ):
        self.scheme, spec_variants = parse_scheme(scheme)
        self.segmentation = segmentation or SegmentationSpec()
        self.seed = seed
        self.scramble_mode = scramble_mode
        self.fingerprint_bytes = fingerprint_bytes
        if self.scheme is DefenseScheme.OBFUSCATE:
            if isinstance(scheme, str) and ":" in scheme:
                obfuscate_variants = spec_variants
            self.obfuscate_variants = obfuscate_variants
        else:
            self.obfuscate_variants = 1
        self._obfuscator = OracleObfuscator(
            variants=self.obfuscate_variants, seed=seed
        )

    # -- fingerprint-level encryption ---------------------------------------

    def _output_length(self, plaintext_fp: bytes) -> int:
        if self.fingerprint_bytes is not None:
            return self.fingerprint_bytes
        return len(plaintext_fp)

    @staticmethod
    def _mle_fingerprint(plaintext_fp: bytes, length: int) -> bytes:
        return hashlib.sha256(b"mle|" + plaintext_fp).digest()[:length]

    @staticmethod
    def _minhash_fingerprint(
        minimum_fp: bytes, plaintext_fp: bytes, length: int
    ) -> bytes:
        # §7.1: concatenate the segment minimum with the chunk fingerprint,
        # hash with SHA-256, truncate to the dataset's fingerprint width.
        return hashlib.sha256(minimum_fp + plaintext_fp).digest()[:length]

    @staticmethod
    def _record_truth(
        truth: dict[bytes, bytes], cipher_fp: bytes, plaintext_fp: bytes
    ) -> None:
        """Record one ground-truth pair, rejecting ciphertext collisions.

        Every encryption path funnels through this one check, so a
        truncated fingerprint width that maps two distinct plaintext
        chunks to the same ciphertext fingerprint fails identically
        whatever the scheme (or scheme order) — the restore round-trip
        guarantee requires ``truth`` to stay a function.
        """
        existing = truth.get(cipher_fp)
        if existing is not None and existing != plaintext_fp:
            raise ConfigurationError(
                "ciphertext fingerprint collision; increase "
                "fingerprint_bytes"
            )
        truth[cipher_fp] = plaintext_fp

    def encrypt_backup(self, backup: Backup, backup_index: int = 0) -> EncryptedBackup:
        """Encrypt one plaintext backup stream."""
        if self.scheme is DefenseScheme.MLE:
            return self._encrypt_plain_mle(backup)
        if self.scheme is DefenseScheme.OBFUSCATE:
            return self._encrypt_obfuscated(backup)
        return self._encrypt_segmented(backup, backup_index)

    def encrypt_series(self, series: BackupSeries) -> EncryptedSeries:
        """Encrypt every backup of a series."""
        encrypted = EncryptedSeries(
            name=series.name, scheme=self.scheme, plaintext=series
        )
        for index, backup in enumerate(series.backups):
            encrypted.backups.append(self.encrypt_backup(backup, index))
        return encrypted

    # -- internals ----------------------------------------------------------

    def _encrypt_plain_mle(self, backup: Backup) -> EncryptedBackup:
        ciphertext = Backup(label=backup.label)
        truth: dict[bytes, bytes] = {}
        cache: dict[bytes, bytes] = {}
        for plaintext_fp, size in zip(backup.fingerprints, backup.sizes):
            cipher_fp = cache.get(plaintext_fp)
            if cipher_fp is None:
                cipher_fp = self._mle_fingerprint(
                    plaintext_fp, self._output_length(plaintext_fp)
                )
                self._record_truth(truth, cipher_fp, plaintext_fp)
                cache[plaintext_fp] = cipher_fp
            ciphertext.append(cipher_fp, padded_size(size))
        return EncryptedBackup(
            label=backup.label, ciphertext=ciphertext, truth=truth
        )

    def _encrypt_obfuscated(self, backup: Backup) -> EncryptedBackup:
        """Relaxed MLE: round-robin each chunk's occurrences over its
        ``t`` keyed variants (see :mod:`repro.defenses.obfuscate`).  The
        occurrence counter resets per backup, so encryption stays a pure
        function of the plaintext stream — identical uploads produce
        identical ciphertexts and cross-user dedup survives per variant.
        """
        ciphertext = Backup(label=backup.label)
        truth: dict[bytes, bytes] = {}
        obfuscator = self._obfuscator
        variants = obfuscator.variants
        # The variant each chunk's next occurrence takes: the keyed
        # phase is hashed once per distinct chunk, then stepped — the
        # k-th occurrence lands on ``assign(fp, k)`` all the same.
        upcoming: dict[bytes, int] = {}
        variant_cache: dict[tuple[bytes, int], bytes] = {}
        for plaintext_fp, size in zip(backup.fingerprints, backup.sizes):
            variant = upcoming.get(plaintext_fp)
            if variant is None:
                variant = obfuscator.offset(plaintext_fp)
            upcoming[plaintext_fp] = (variant + 1) % variants
            cipher_fp = variant_cache.get((plaintext_fp, variant))
            if cipher_fp is None:
                cipher_fp = obfuscator.variant_fingerprint(
                    plaintext_fp, variant, self._output_length(plaintext_fp)
                )
                self._record_truth(truth, cipher_fp, plaintext_fp)
                variant_cache[(plaintext_fp, variant)] = cipher_fp
            ciphertext.append(cipher_fp, padded_size(size))
        return EncryptedBackup(
            label=backup.label, ciphertext=ciphertext, truth=truth
        )

    def _encrypt_segmented(
        self, backup: Backup, backup_index: int
    ) -> EncryptedBackup:
        segments = segment_stream(
            backup.fingerprints, backup.sizes, self.segmentation
        )
        scramble = self.scheme in (DefenseScheme.SCRAMBLE, DefenseScheme.COMBINED)
        minhash = self.scheme in (DefenseScheme.MINHASH, DefenseScheme.COMBINED)
        rng = rng_from(self.seed, "scramble", backup.label, backup_index)

        ciphertext = Backup(label=backup.label)
        logical = Backup(label=backup.label) if scramble else None
        truth: dict[bytes, bytes] = {}
        for segment in segments:
            indices = list(range(segment.start, segment.end))
            cipher_fps: dict[int, bytes] = {}
            if minhash:
                minimum_fp = min(
                    backup.fingerprints[segment.start : segment.end]
                )
            for index in indices:
                plaintext_fp = backup.fingerprints[index]
                length = self._output_length(plaintext_fp)
                if minhash:
                    cipher_fp = self._minhash_fingerprint(
                        minimum_fp, plaintext_fp, length
                    )
                else:
                    cipher_fp = self._mle_fingerprint(plaintext_fp, length)
                self._record_truth(truth, cipher_fp, plaintext_fp)
                cipher_fps[index] = cipher_fp
                if logical is not None:
                    logical.append(cipher_fp, padded_size(backup.sizes[index]))
            if scramble:
                order = scramble_indices(len(indices), rng, self.scramble_mode)
                indices = [segment.start + offset for offset in order]
            for index in indices:
                ciphertext.append(
                    cipher_fps[index], padded_size(backup.sizes[index])
                )
        return EncryptedBackup(
            label=backup.label,
            ciphertext=ciphertext,
            truth=truth,
            num_segments=len(segments),
            restore_order=logical,
        )


class LoopService(DedupService):
    """``DedupService`` with the upload/restore bodies it had before the
    first-occurrence dicts became C-level calls (verbatim; the quota is
    still checked after encryption here)."""

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
        encrypted = self.pipeline.encrypt_backup(backup, self._request_counter)
        stream = encrypted.ciphertext
        logical_bytes = stream.logical_bytes
        if (
            state.quota_bytes is not None
            and state.logical_bytes + logical_bytes > state.quota_bytes
        ):
            raise QuotaExceededError(
                f"tenant {tenant} quota {state.quota_bytes} B exceeded by "
                f"upload {label!r} ({logical_bytes} B logical)"
            )

        metadata_before = self._tier.metadata_bytes

        # Dedup response: resolve the upload's unique fingerprints against
        # in-memory state first, then one batched probe of the on-disk
        # index for the rest (amortized through the KV backend; per owning
        # node when the tier is a cluster).
        unique: dict[bytes, int] = {}
        for fingerprint, size in zip(stream.fingerprints, stream.sizes):
            if fingerprint not in unique:
                unique[fingerprint] = size
        needed = self._tier.dedup_response(unique)

        # Transfer: only the needed chunks cross the wire, as one batch
        # (first occurrence of each, stream order). The dedup response
        # already proved them unique — not cached, not buffered, not in
        # the index — so they skip the per-chunk S1–S4 chain and take the
        # tier's batched unique-ingest path, with identical dedup
        # decisions and metered bytes.
        needed_fingerprints: list[bytes] = []
        needed_sizes: list[int] = []
        transferred_bytes = 0
        for fingerprint, size in unique.items():
            if fingerprint in needed:
                needed_fingerprints.append(fingerprint)
                needed_sizes.append(size)
                transferred_bytes += size
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
                self.shaping, tenant, label, unique, needed
            )
            for fingerprint, size in unique.items():
                if fingerprint in extra:
                    shaped_extra_bytes += size
            transferred_bytes += shaped_extra_bytes

        metadata_bytes = self._tier.metadata_bytes - metadata_before
        state.recipes[label] = stream
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
            unique_chunks=len(unique),
            unique_bytes=sum(unique.values()),
            stored_chunks=stored_chunks,
            shaped_extra_bytes=shaped_extra_bytes,
        )
        return UploadResult(observables=observables, encrypted=encrypted)

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
        unique_sizes: dict[bytes, int] = {}
        for fingerprint, size in zip(recipe.fingerprints, recipe.sizes):
            unique_sizes.setdefault(fingerprint, size)
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
            unique_chunks=len(unique_sizes),
            unique_bytes=sum(unique_sizes.values()),
            stored_chunks=0,
        )
        self._request_counter += 1
        return observables, recipe


# ---------------------------------------------------------------------------
# Inputs

SPEC = SegmentationSpec(
    min_bytes=16 * 1024, avg_bytes=32 * 1024, max_bytes=64 * 1024
)
SCHEMES = (
    "mle",
    "minhash",
    "scramble",
    "combined",
    "obfuscate:1",
    "obfuscate:3",
    "obfuscate:8",
)
SEEDS = range(20)


def edit_series(seed: int, backups: int = 3, chunks: int = 90) -> BackupSeries:
    """A backup and its successors, each derived from the last by edits
    (runs deleted, inserted, rewritten and copied), so chunks repeat
    within a backup and across the series the way a file tree's do."""
    rng = random.Random(seed)

    def fresh():
        size = rng.choice((0, 100, 4096, 4096, rng.randrange(1, 20_000)))
        return rng.getrandbits(64).to_bytes(8, "big"), size

    popular = [fresh() for _ in range(8)]

    def run(length):
        return [
            rng.choice(popular) if rng.random() < 0.3 else fresh()
            for _ in range(length)
        ]

    stream = run(chunks)
    series = BackupSeries(name=f"edits-{seed}")
    for index in range(backups):
        if index:
            for _ in range(rng.randrange(2, 6)):
                at = rng.randrange(len(stream) + 1)
                span = rng.randrange(1, 12)
                edit = rng.randrange(4)
                if edit == 0:
                    del stream[at : at + span]
                elif edit == 1:
                    stream[at:at] = run(span)
                elif edit == 2:
                    stream[at : at + span] = run(span)
                else:
                    source = rng.randrange(len(stream) + 1)
                    stream[at:at] = stream[source : source + span]
        series.backups.append(
            Backup(
                label=f"b{index}",
                fingerprints=[fp for fp, _ in stream],
                sizes=[size for _, size in stream],
            )
        )
    return series


def outcome(pipeline, series):
    """What a pipeline made of a series, or the error it refused with."""
    try:
        return pipeline.encrypt_series(series).backups
    except ConfigurationError as error:
        return str(error)


def assert_same_backup(new: EncryptedBackup, old: EncryptedBackup) -> None:
    assert new.ciphertext.fingerprints == old.ciphertext.fingerprints
    assert new.ciphertext.sizes == old.ciphertext.sizes
    assert list(new.truth.items()) == list(old.truth.items())
    assert new.num_segments == old.num_segments
    assert new.restore_order == old.restore_order
    assert new == old


# ---------------------------------------------------------------------------
# The differential


class TestPipelineMatchesPerOccurrenceOracle:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_seeded_edit_series(self, scheme):
        scrambles = scheme in ("scramble", "combined")
        compared = most_segments = 0
        for seed in SEEDS:
            series = edit_series(seed)
            for mode in (DEQUE, FISHER_YATES) if scrambles else (DEQUE,):
                for width in (None, 4, 16):
                    knobs = dict(
                        segmentation=SPEC,
                        seed=seed,
                        scramble_mode=mode,
                        fingerprint_bytes=width,
                    )
                    new = outcome(DefensePipeline(scheme, **knobs), series)
                    old = outcome(OraclePipeline(scheme, **knobs), series)
                    if isinstance(old, str):
                        assert new == old
                        continue
                    for new_backup, old_backup in zip(new, old, strict=True):
                        assert_same_backup(new_backup, old_backup)
                        compared += len(new_backup.ciphertext)
                        most_segments = max(most_segments, old_backup.num_segments)
        assert compared > 10_000
        # The segmented schemes really were cut into several segments.
        assert (most_segments > 3) == (scheme in SCHEMES[1:4])

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize(
        "backup",
        [
            Backup(label="empty"),
            Backup(label="one", fingerprints=[b"\x07" * 8], sizes=[4096]),
            Backup(
                label="zeros",
                fingerprints=[b"a" * 8, b"b" * 8, b"a" * 8],
                sizes=[0, 0, 0],
            ),
            Backup(
                label="tuples",
                fingerprints=(b"a" * 8, b"b" * 8, b"a" * 8),
                sizes=(4096, 100, 4096),
            ),
        ],
        ids=lambda backup: backup.label,
    )
    def test_degenerate_streams(self, scheme, backup):
        new = DefensePipeline(scheme, segmentation=SPEC, seed=3)
        old = OraclePipeline(scheme, segmentation=SPEC, seed=3)
        assert_same_backup(
            new.encrypt_backup(backup, 2), old.encrypt_backup(backup, 2)
        )

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_warm_and_cold_maps_agree(self, scheme):
        """The maps are a cache of a pure function: a pipeline that has
        seen the whole series and a fresh one per backup hand back equal
        backups, and a backup's ``truth`` holds only its own pairs."""
        series = edit_series(99)
        warm = DefensePipeline(scheme, segmentation=SPEC, seed=9)
        for index, backup in enumerate(series.backups):
            cold = DefensePipeline(scheme, segmentation=SPEC, seed=9)
            first = warm.encrypt_backup(backup, index)
            again = warm.encrypt_backup(backup, index)
            assert_same_backup(first, cold.encrypt_backup(backup, index))
            assert_same_backup(first, again)
            logical = first.logical_ciphertext().fingerprints
            assert list(first.truth) == list(dict.fromkeys(logical))
            assert [first.truth[fp] for fp in logical] == backup.fingerprints
            # Warm means shared: a chunk's ciphertext fingerprint is one
            # object however often it is uploaded.
            assert all(
                a is b
                for a, b in zip(logical, again.logical_ciphertext().fingerprints)
            )


# ---------------------------------------------------------------------------
# The collision rule, on the paths the older collision tests leave out


def _colliding_pair(prefix: bytes, floor: bytes) -> list[bytes]:
    """Two fingerprints above ``floor`` that collide in one byte under
    ``prefix``."""
    seen: dict[bytes, bytes] = {}
    for index in range(10_000):
        fingerprint = floor + b"%d" % index
        cipher_fp = cipher_fingerprint(prefix, fingerprint, 1)
        if cipher_fp in seen:
            return [seen[cipher_fp], fingerprint]
        seen[cipher_fp] = fingerprint
    raise AssertionError("no 1-byte collision in 10k fingerprints")


class TestCollisionRule:
    @pytest.mark.parametrize("scheme", ["minhash", "combined"])
    def test_segment_keyed_paths_raise_on_collision(self, scheme):
        # Three small chunks make one segment, so ``minimum`` keys it.
        minimum = b"\x00minimum"
        stream = [minimum] + _colliding_pair(minimum, b"\x01")
        backup = Backup(label="b", fingerprints=stream, sizes=[4096] * 3)
        for pipeline in (DefensePipeline, OraclePipeline):
            with pytest.raises(ConfigurationError, match="collision"):
                pipeline(
                    scheme, segmentation=SPEC, fingerprint_bytes=1
                ).encrypt_backup(backup)
        # The same chunks under another minimum are no collision.
        DefensePipeline(
            scheme, segmentation=SPEC, fingerprint_bytes=8
        ).encrypt_backup(backup)

    @pytest.mark.parametrize("scheme", ["mle", "scramble", "obfuscate:1"])
    def test_a_collision_across_backups_is_not_an_error(self, scheme):
        """``truth`` is per backup, so the rule is too — two chunks that
        collide but never share a backup are each scored correctly."""
        prefix = (
            MLE_PREFIX
            if scheme != "obfuscate:1"
            else FrequencyObfuscator.variant_prefix(0)
        )
        first, second = _colliding_pair(prefix, b"t")
        for kind in (DefensePipeline, OraclePipeline):
            pipeline = kind(scheme, segmentation=SPEC, fingerprint_bytes=1)
            truths = [
                pipeline.encrypt_backup(
                    Backup(label="b", fingerprints=[fp], sizes=[4096]), index
                ).truth
                for index, fp in enumerate((first, second))
            ]
            assert list(truths[0].values()) == [first]
            assert list(truths[1].values()) == [second]
            assert list(truths[0]) == list(truths[1])
            with pytest.raises(ConfigurationError, match="collision"):
                pipeline.encrypt_backup(
                    Backup(
                        label="b", fingerprints=[first, second], sizes=[1, 1]
                    )
                )


# ---------------------------------------------------------------------------
# The service's first-occurrence bookkeeping


class TestServiceMatchesLoopForm:
    @pytest.mark.parametrize("scheme", ["mle", "combined", "obfuscate:2"])
    @pytest.mark.parametrize("shaping", ["honest", "rr:0.5"])
    def test_observables_when_one_fingerprint_has_several_sizes(
        self, scheme, shaping
    ):
        """The first occurrence's size is the chunk's size: it is what is
        transferred, stored and billed as unique."""
        rng = random.Random(5)
        knobs = dict(scheme=scheme, shaping=shaping, seed=4, segmentation=SPEC)
        services = [DedupService(**knobs), LoopService(**knobs)]
        observed = [[], []]
        for request in range(12):
            tokens = [b"fp-%d" % rng.randrange(30) for _ in range(60)]
            backup = Backup(
                label=f"up{request}",
                fingerprints=tokens,
                # Sizes drawn per occurrence, not per fingerprint.
                sizes=[rng.choice((100, 4096, 9000)) for _ in tokens],
            )
            tenant = request % 3
            for service, seen in zip(services, observed):
                seen.append(service.upload(tenant, backup).observables)
                seen.append(service.restore(tenant, backup.label)[0])
        assert observed[0] == observed[1]
        assert services[0].stored_bytes == services[1].stored_bytes
        uploads = observed[0][::2]
        assert any(
            upload.unique_chunks < upload.total_chunks for upload in uploads
        )
        for tenant in range(3):
            assert services[0].tenant_usage(tenant) == (
                services[1].tenant_usage(tenant)
            )
