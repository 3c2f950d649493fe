"""Property tests for the tunable defense families (frequency-obfuscated
encryption and its scheme-spec plumbing).

Three families of guarantees, each checked across the knob sweep rather
than at a single point:

* **restore** — every scheme's ciphertext stream maps back to the exact
  plaintext fingerprint stream through the truth map;
* **cost monotonicity** — stored unique bytes are non-decreasing in the
  obfuscation knob ``t`` (dedup degrades gracefully, never abruptly);
* **leakage monotonicity** — the frequency-KLD flatness metric is
  non-increasing in ``t``.
"""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup
from repro.defenses.obfuscate import (
    DEFAULT_VARIANTS,
    FrequencyObfuscator,
    frequency_kld,
    parse_scheme,
    scheme_spec,
)
from repro.defenses.pipeline import (
    MLE_PREFIX,
    DefensePipeline,
    DefenseScheme,
    cipher_fingerprint,
)

KNOBS = (1, 2, 4, 8)
SCHEMES = ("mle", "minhash", "scramble", "combined", "obfuscate:2")


def backup(tokens, sizes=None, label="b"):
    tokens = [token.encode() for token in tokens]
    if sizes is None:
        sizes = [4096] * len(tokens)
    return Backup(label=label, fingerprints=tokens, sizes=sizes)


def _unique_stored_bytes(encrypted) -> int:
    seen = {}
    for item in encrypted.backups:
        for fp, size in zip(
            item.ciphertext.fingerprints, item.ciphertext.sizes
        ):
            seen.setdefault(fp, size)
    return sum(seen.values())


class TestParseScheme:
    def test_plain_names_round_trip(self):
        for scheme in DefenseScheme:
            parsed, variants = parse_scheme(scheme.value)
            assert parsed is scheme
            expected = (
                DEFAULT_VARIANTS if scheme is DefenseScheme.OBFUSCATE else 1
            )
            assert variants == expected

    def test_parameterized_spec(self):
        assert parse_scheme("obfuscate:8") == (DefenseScheme.OBFUSCATE, 8)

    def test_enum_passthrough(self):
        assert parse_scheme(DefenseScheme.MLE) == (DefenseScheme.MLE, 1)

    @pytest.mark.parametrize(
        "spec",
        ["nope", "obfuscate:x", "obfuscate:0", "obfuscate:-1", "mle:2"],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_scheme(spec)

    def test_canonical_spelling(self):
        assert scheme_spec(DefenseScheme.OBFUSCATE, 4) == "obfuscate:4"
        assert scheme_spec(DefenseScheme.MLE) == "mle"

    def test_spec_parameter_wins_over_keyword(self):
        pipeline = DefensePipeline("obfuscate:8", obfuscate_variants=2)
        assert pipeline.obfuscate_variants == 8

    def test_keyword_applies_to_bare_name(self):
        pipeline = DefensePipeline("obfuscate", obfuscate_variants=5)
        assert pipeline.obfuscate_variants == 5


class TestObfuscatorBalance:
    def test_round_robin_covers_all_variants(self):
        obfuscator = FrequencyObfuscator(variants=4, seed=3)
        fp = b"chunk"
        assigned = {obfuscator.assign(fp, k) for k in range(4)}
        assert assigned == set(range(4))

    def test_split_is_flattest_possible(self):
        # f occurrences over t variants land as ceil(f/t) / floor(f/t).
        obfuscator = FrequencyObfuscator(variants=3, seed=0)
        fp = b"chunk"
        counts = {}
        for k in range(10):
            variant = obfuscator.assign(fp, k)
            counts[variant] = counts.get(variant, 0) + 1
        assert sorted(counts.values()) == [3, 3, 4]

    def test_variant_fingerprints_are_seed_independent(self):
        a = FrequencyObfuscator(variants=4, seed=1)
        b = FrequencyObfuscator(variants=4, seed=2)
        assert a.variant_fingerprint(b"x", 2, 16) == b.variant_fingerprint(
            b"x", 2, 16
        )
        # ... while the balance phase is keyed.
        phases_differ = any(
            a.offset(f"fp{i}".encode()) != b.offset(f"fp{i}".encode())
            for i in range(32)
        )
        assert phases_differ

    def test_variant_count_validated(self):
        with pytest.raises(ConfigurationError):
            FrequencyObfuscator(variants=0)

    @pytest.mark.parametrize("variants", KNOBS)
    def test_pipeline_matches_per_occurrence_assignment(self, variants):
        """The pipeline hashes a chunk's phase once and steps it; the
        oracle asks ``assign`` afresh for every occurrence."""
        rng = random.Random(variants)
        tokens = [f"c{rng.randrange(40)}".encode() for _ in range(600)]
        sizes = [rng.choice((512, 4096, 9000)) for _ in tokens]
        pipeline = DefensePipeline(f"obfuscate:{variants}", seed=11)
        encrypted = pipeline.encrypt_backup(
            Backup(label="b", fingerprints=tokens, sizes=sizes)
        )
        obfuscator = FrequencyObfuscator(variants=variants, seed=11)
        occurrences: dict[bytes, int] = {}
        expected, truth = [], {}
        for token in tokens:
            occurrence = occurrences.get(token, 0)
            occurrences[token] = occurrence + 1
            cipher = obfuscator.variant_fingerprint(
                token, obfuscator.assign(token, occurrence), len(token)
            )
            expected.append(cipher)
            truth[cipher] = token
        assert encrypted.ciphertext.fingerprints == expected
        assert encrypted.truth == truth
        assert max(occurrences.values()) > variants  # every phase wrapped


class TestRestoreRoundTrip:
    """The exact-map restore guarantee: ciphertext -> truth -> plaintext
    reproduces the logical stream byte-for-byte, for every scheme."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_truth_restores_logical_stream(
        self, scheme, tiny_fsl_series, tiny_segmentation
    ):
        pipeline = DefensePipeline(
            scheme, segmentation=tiny_segmentation, seed=5
        )
        encrypted = pipeline.encrypt_series(tiny_fsl_series)
        for plain, cipher in zip(tiny_fsl_series.backups, encrypted.backups):
            logical = cipher.logical_ciphertext()
            restored = [cipher.truth[fp] for fp in logical.fingerprints]
            assert restored == plain.fingerprints

    @pytest.mark.parametrize("knob", KNOBS)
    def test_obfuscated_restore_at_every_knob(
        self, knob, tiny_fsl_series, tiny_segmentation
    ):
        pipeline = DefensePipeline(
            f"obfuscate:{knob}", segmentation=tiny_segmentation, seed=5
        )
        encrypted = pipeline.encrypt_series(tiny_fsl_series)
        for plain, cipher in zip(tiny_fsl_series.backups, encrypted.backups):
            restored = [
                cipher.truth[fp] for fp in cipher.ciphertext.fingerprints
            ]
            assert restored == plain.fingerprints

    def test_identical_uploads_produce_identical_ciphertext(self):
        # Encryption is a pure function of the stream (occurrences reset
        # per backup), so cross-user dedup survives at the variant level.
        pipeline = DefensePipeline("obfuscate:4", seed=9)
        stream = ["a", "b", "a", "a", "c", "b"]
        first = pipeline.encrypt_backup(backup(stream, label="u1"))
        second = pipeline.encrypt_backup(backup(stream, label="u2"))
        assert (
            first.ciphertext.fingerprints == second.ciphertext.fingerprints
        )


class TestKnobMonotonicity:
    @pytest.fixture(scope="class")
    def sweep(self, tiny_fsl_series, tiny_segmentation):
        encrypted = {}
        for knob in KNOBS:
            pipeline = DefensePipeline(
                f"obfuscate:{knob}",
                segmentation=tiny_segmentation,
                seed=5,
            )
            encrypted[knob] = pipeline.encrypt_series(tiny_fsl_series)
        return encrypted

    def test_stored_bytes_non_decreasing(self, sweep):
        stored = [_unique_stored_bytes(sweep[knob]) for knob in KNOBS]
        assert stored == sorted(stored)
        # And the sweep actually moves: more variants, more residue.
        assert stored[-1] > stored[0]

    def test_kld_non_increasing(self, sweep):
        klds = []
        for knob in KNOBS:
            fingerprints = []
            for item in sweep[knob].backups:
                fingerprints.extend(item.ciphertext.fingerprints)
            klds.append(frequency_kld(fingerprints))
        assert klds == sorted(klds, reverse=True)
        assert klds[-1] < klds[0]

    def test_knob_one_is_deterministic_one_to_one(self, sweep):
        for item in sweep[1].backups:
            # t=1: one ciphertext per plaintext chunk, like MLE.
            assert len(set(item.truth.values())) == len(item.truth)


class TestFrequencyKLD:
    def test_empty_and_singleton_are_flat(self):
        assert frequency_kld([]) == 0.0
        assert frequency_kld([b"a", b"a"]) == 0.0

    def test_uniform_is_zero(self):
        assert frequency_kld([b"a", b"b", b"c", b"a", b"b", b"c"]) == (
            pytest.approx(0.0)
        )

    def test_skew_increases_divergence(self):
        flat = frequency_kld([b"a", b"b", b"c", b"d"])
        skewed = frequency_kld([b"a"] * 97 + [b"b", b"c", b"d"])
        assert skewed > flat


def _colliding_tokens(pipeline: DefensePipeline) -> list[str]:
    """Two tokens whose truncated ciphertext fingerprints collide."""
    seen: dict[bytes, str] = {}
    for index in range(10_000):
        token = f"t{index}"
        if pipeline.scheme is DefenseScheme.OBFUSCATE:
            cipher_fp = FrequencyObfuscator.variant_fingerprint(
                token.encode(), 0, 1
            )
        else:
            cipher_fp = cipher_fingerprint(MLE_PREFIX, token.encode(), 1)
        if cipher_fp in seen:
            return [seen[cipher_fp], token]
        seen[cipher_fp] = token
    raise AssertionError("no 1-byte collision in 10k tokens")


class TestUnifiedCollisionCheck:
    """Every scheme ends in one truth-map collision check
    (``repro.defenses.pipeline._ground_truth``); a regression on any path
    must fail the same way. The segment-keyed paths (``minhash``,
    ``combined``) need a collision under a fixed segment minimum and are
    in ``test_pipeline_oracle.py::TestCollisionRule``."""

    @pytest.mark.parametrize(
        "scheme", ["mle", "scramble", "obfuscate:1"]
    )
    def test_every_path_raises_on_collision(self, scheme, tiny_segmentation):
        pipeline = DefensePipeline(
            scheme, segmentation=tiny_segmentation, fingerprint_bytes=1
        )
        tokens = _colliding_tokens(pipeline)
        with pytest.raises(ConfigurationError, match="collision"):
            pipeline.encrypt_backup(backup(tokens))

    def test_obfuscated_repeats_are_not_collisions(self):
        pipeline = DefensePipeline("obfuscate:2", fingerprint_bytes=8)
        encrypted = pipeline.encrypt_backup(backup(["a", "a", "a", "b"]))
        # Three occurrences over two variants: two ciphertexts for "a".
        assert len(encrypted.truth) == 3
