"""Tests for the fingerprint-level defense pipelines (§7.1)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup
from repro.defenses.pipeline import (
    MLE_PREFIX,
    DefensePipeline,
    DefenseScheme,
    cipher_fingerprint,
    padded_size,
)
from repro.defenses.segmentation import SegmentationSpec

SPEC = SegmentationSpec(min_bytes=16 * 1024, avg_bytes=32 * 1024, max_bytes=64 * 1024)


def backup(tokens, sizes=None, label="b"):
    tokens = [t.encode() for t in tokens]
    if sizes is None:
        sizes = [4096] * len(tokens)
    return Backup(label=label, fingerprints=tokens, sizes=sizes)


class TestPaddedSize:
    @pytest.mark.parametrize(
        "plain,expected", [(0, 16), (1, 16), (15, 16), (16, 32), (4096, 4112)]
    )
    def test_values(self, plain, expected):
        assert padded_size(plain) == expected


class TestMLEPipeline:
    def test_deterministic_bijection(self):
        pipeline = DefensePipeline(DefenseScheme.MLE)
        encrypted = pipeline.encrypt_backup(backup(["a", "b", "a"]))
        fps = encrypted.ciphertext.fingerprints
        assert fps[0] == fps[2] != fps[1]

    def test_truth_maps_back(self):
        pipeline = DefensePipeline(DefenseScheme.MLE)
        source = backup(["a", "b", "a", "c"])
        encrypted = pipeline.encrypt_backup(source)
        for cipher_fp, plain_fp in zip(
            encrypted.ciphertext.fingerprints, source.fingerprints
        ):
            assert encrypted.truth[cipher_fp] == plain_fp

    def test_sizes_are_padded(self):
        pipeline = DefensePipeline(DefenseScheme.MLE)
        source = backup(["a", "b"], sizes=[100, 4096])
        encrypted = pipeline.encrypt_backup(source)
        assert encrypted.ciphertext.sizes == [112, 4112]

    def test_preserves_order_and_length(self):
        pipeline = DefensePipeline(DefenseScheme.MLE)
        source = backup(["a", "b", "c", "b"])
        encrypted = pipeline.encrypt_backup(source)
        assert len(encrypted.ciphertext) == 4
        # order preserved: positions of the duplicate agree
        fps = encrypted.ciphertext.fingerprints
        assert fps[1] == fps[3]

    def test_output_fingerprint_length_matches_input(self):
        pipeline = DefensePipeline(DefenseScheme.MLE)
        source = Backup(label="b", fingerprints=[b"\x01" * 6], sizes=[4096])
        encrypted = pipeline.encrypt_backup(source)
        assert len(encrypted.ciphertext.fingerprints[0]) == 6


class TestMinHashPipeline:
    def test_same_context_dedups(self, tiny_fsl_series):
        pipeline = DefensePipeline(DefenseScheme.MINHASH, segmentation=SPEC)
        first = pipeline.encrypt_backup(tiny_fsl_series.backups[0], 0)
        again = pipeline.encrypt_backup(tiny_fsl_series.backups[0], 0)
        assert first.ciphertext.fingerprints == again.ciphertext.fingerprints

    def test_creates_ciphertext_variants(self, tiny_fsl_series):
        """MinHash encryption must map some plaintext chunks to multiple
        ciphertext chunks (the frequency-perturbing effect)."""
        pipeline = DefensePipeline(DefenseScheme.MINHASH, segmentation=SPEC)
        encrypted = pipeline.encrypt_series(tiny_fsl_series)
        plaintext_unique = set()
        for b in tiny_fsl_series.backups:
            plaintext_unique |= b.unique_fingerprints()
        ciphertext_unique = set()
        for eb in encrypted.backups:
            ciphertext_unique |= set(eb.ciphertext.fingerprints)
        assert len(ciphertext_unique) > len(plaintext_unique)

    def test_truth_consistent(self, tiny_fsl_series):
        pipeline = DefensePipeline(DefenseScheme.MINHASH, segmentation=SPEC)
        source = tiny_fsl_series.backups[0]
        encrypted = pipeline.encrypt_backup(source, 0)
        # every ciphertext fp maps to a plaintext fp that exists
        plain_unique = source.unique_fingerprints()
        for plain_fp in encrypted.truth.values():
            assert plain_fp in plain_unique

    def test_num_segments_recorded(self, tiny_fsl_series):
        pipeline = DefensePipeline(DefenseScheme.MINHASH, segmentation=SPEC)
        encrypted = pipeline.encrypt_backup(tiny_fsl_series.backups[0], 0)
        assert encrypted.num_segments > 1


class TestScramblePipeline:
    def test_multiset_preserved(self, tiny_fsl_series):
        source = tiny_fsl_series.backups[0]
        mle = DefensePipeline(DefenseScheme.MLE).encrypt_backup(source, 0)
        scrambled = DefensePipeline(
            DefenseScheme.SCRAMBLE, segmentation=SPEC, seed=3
        ).encrypt_backup(source, 0)
        assert sorted(mle.ciphertext.fingerprints) == sorted(
            scrambled.ciphertext.fingerprints
        )

    def test_order_changed(self, tiny_fsl_series):
        source = tiny_fsl_series.backups[0]
        mle = DefensePipeline(DefenseScheme.MLE).encrypt_backup(source, 0)
        scrambled = DefensePipeline(
            DefenseScheme.SCRAMBLE, segmentation=SPEC, seed=3
        ).encrypt_backup(source, 0)
        assert mle.ciphertext.fingerprints != scrambled.ciphertext.fingerprints

    def test_scramble_deterministic_per_seed(self, tiny_fsl_series):
        source = tiny_fsl_series.backups[0]
        a = DefensePipeline(
            DefenseScheme.SCRAMBLE, segmentation=SPEC, seed=3
        ).encrypt_backup(source, 0)
        b = DefensePipeline(
            DefenseScheme.SCRAMBLE, segmentation=SPEC, seed=3
        ).encrypt_backup(source, 0)
        c = DefensePipeline(
            DefenseScheme.SCRAMBLE, segmentation=SPEC, seed=4
        ).encrypt_backup(source, 0)
        assert a.ciphertext.fingerprints == b.ciphertext.fingerprints
        assert a.ciphertext.fingerprints != c.ciphertext.fingerprints


class TestCombinedPipeline:
    def test_combined_differs_from_both_parts(self, tiny_fsl_series):
        source = tiny_fsl_series.backups[0]
        minhash = DefensePipeline(
            DefenseScheme.MINHASH, segmentation=SPEC, seed=3
        ).encrypt_backup(source, 0)
        combined = DefensePipeline(
            DefenseScheme.COMBINED, segmentation=SPEC, seed=3
        ).encrypt_backup(source, 0)
        # same multiset of ciphertext fps as minhash-only (scrambling does
        # not change what is encrypted, only the order) ...
        assert sorted(minhash.ciphertext.fingerprints) == sorted(
            combined.ciphertext.fingerprints
        )
        # ... but a different upload order.
        assert minhash.ciphertext.fingerprints != combined.ciphertext.fingerprints

    def test_series_encryption(self, tiny_fsl_series):
        pipeline = DefensePipeline(DefenseScheme.COMBINED, segmentation=SPEC)
        encrypted = pipeline.encrypt_series(tiny_fsl_series)
        assert len(encrypted) == len(tiny_fsl_series)
        assert encrypted.scheme is DefenseScheme.COMBINED
        ct_series = encrypted.ciphertext_series()
        assert len(ct_series.backups) == len(tiny_fsl_series)


def _colliding_tokens(pipeline: DefensePipeline) -> list[str]:
    """Two tokens whose truncated MLE fingerprints collide."""
    seen: dict[bytes, str] = {}
    for index in range(10_000):
        token = f"t{index}"
        cipher_fp = cipher_fingerprint(MLE_PREFIX, token.encode(), 1)
        if cipher_fp in seen:
            return [seen[cipher_fp], token]
        seen[cipher_fp] = token
    raise AssertionError("no 1-byte collision in 10k tokens")


class TestCollisionDetection:
    """Both encryption paths must reject truth-map collisions, not
    silently mis-score attacks against a corrupted ground truth."""

    def test_mle_path_raises_on_collision(self):
        pipeline = DefensePipeline(DefenseScheme.MLE, fingerprint_bytes=1)
        tokens = _colliding_tokens(pipeline)
        with pytest.raises(ConfigurationError, match="collision"):
            pipeline.encrypt_backup(backup(tokens))

    def test_segmented_path_raises_on_collision(self):
        pipeline = DefensePipeline(
            DefenseScheme.SCRAMBLE, segmentation=SPEC, fingerprint_bytes=1
        )
        tokens = _colliding_tokens(pipeline)
        with pytest.raises(ConfigurationError, match="collision"):
            pipeline.encrypt_backup(backup(tokens))

    def test_mle_path_accepts_repeats(self):
        # Repeated chunks are not collisions: same plaintext, same cipher.
        pipeline = DefensePipeline(DefenseScheme.MLE, fingerprint_bytes=8)
        encrypted = pipeline.encrypt_backup(backup(["a", "b", "a", "a"]))
        assert len(encrypted.truth) == 2


class TestConfigurationValidatedUpFront:
    """Bad knobs fail where the pipeline is built, and nothing is ever
    silently truncated to SHA-256's 32 bytes."""

    @pytest.mark.parametrize("width", [-1, 0, 33, 40])
    def test_fingerprint_bytes_outside_the_digest_rejected(self, width):
        with pytest.raises(ConfigurationError, match="fingerprint_bytes"):
            DefensePipeline(DefenseScheme.MLE, fingerprint_bytes=width)

    @pytest.mark.parametrize("width", [1, 32])
    def test_fingerprint_bytes_bounds_accepted(self, width):
        pipeline = DefensePipeline(DefenseScheme.MLE, fingerprint_bytes=width)
        encrypted = pipeline.encrypt_backup(backup(["a"]))
        assert len(encrypted.ciphertext.fingerprints[0]) == width

    @pytest.mark.parametrize(
        "scheme", ["mle", "minhash", "scramble", "combined", "obfuscate:2"]
    )
    def test_plaintext_fingerprint_wider_than_the_digest_rejected(self, scheme):
        source = Backup(label="b", fingerprints=[b"\x01" * 64], sizes=[4096])
        pipeline = DefensePipeline(scheme, segmentation=SPEC)
        with pytest.raises(ConfigurationError, match="64 bytes"):
            pipeline.encrypt_backup(source)
        # An explicit width makes the same stream encryptable.
        pipeline = DefensePipeline(scheme, segmentation=SPEC, fingerprint_bytes=32)
        encrypted = pipeline.encrypt_backup(source)
        assert len(encrypted.ciphertext.fingerprints[0]) == 32

    @pytest.mark.parametrize("scheme", ["mle", "combined"])
    def test_unknown_scramble_mode_rejected_at_construction(self, scheme):
        with pytest.raises(ConfigurationError, match="scramble mode"):
            DefensePipeline(scheme, scramble_mode="bogus")
