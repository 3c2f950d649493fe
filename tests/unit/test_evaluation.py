"""Tests for the attack evaluator: inference rate, leakage sampling."""

import pytest

from repro.attacks.basic import BasicAttack
from repro.attacks.evaluation import (
    AttackEvaluator,
    InferenceReport,
    sample_leakage,
)
from repro.attacks.locality import LocalityAttack
from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup, BackupSeries
from repro.defenses.pipeline import DefensePipeline, DefenseScheme


def encrypted_pair(plain_tokens, label="b"):
    series = BackupSeries(
        name="t",
        backups=[
            Backup(
                label=f"{label}{i}",
                fingerprints=[t.encode() for t in tokens],
                sizes=[4096] * len(tokens),
            )
            for i, tokens in enumerate(plain_tokens)
        ],
    )
    return DefensePipeline(DefenseScheme.MLE).encrypt_series(series)


class TestInferenceReport:
    def test_rate_and_precision(self):
        report = InferenceReport(
            attack="locality",
            scheme="mle",
            auxiliary_label="a",
            target_label="t",
            unique_ciphertext_chunks=100,
            inferred_pairs=50,
            correct_pairs=25,
            leakage_rate=0.0,
            leaked_pairs=0,
            iterations=10,
        )
        assert report.inference_rate == 0.25
        assert report.precision == 0.5

    def test_zero_divisions(self):
        report = InferenceReport(
            attack="basic",
            scheme="mle",
            auxiliary_label="a",
            target_label="t",
            unique_ciphertext_chunks=0,
            inferred_pairs=0,
            correct_pairs=0,
            leakage_rate=0.0,
            leaked_pairs=0,
            iterations=0,
        )
        assert report.inference_rate == 0.0
        assert report.precision == 0.0

    def test_str_contains_key_fields(self):
        report = InferenceReport(
            attack="locality",
            scheme="mle",
            auxiliary_label="aux",
            target_label="tgt",
            unique_ciphertext_chunks=10,
            inferred_pairs=5,
            correct_pairs=5,
            leakage_rate=0.01,
            leaked_pairs=1,
            iterations=3,
        )
        text = str(report)
        assert "locality" in text and "aux" in text and "tgt" in text

    def test_row_selects_fields_by_name(self):
        report = InferenceReport(
            attack="locality",
            scheme="mle",
            auxiliary_label="aux",
            target_label="tgt",
            unique_ciphertext_chunks=3,
            inferred_pairs=2,
            correct_pairs=1,
            leakage_rate=0.0,
            leaked_pairs=0,
            iterations=7,
        )
        assert report.row() == (
            ("auxiliary", "aux"),
            ("target", "tgt"),
            ("inference_rate", 0.33333),
            ("precision", 0.5),
            ("correct_pairs", 1),
            ("inferred_pairs", 2),
            ("unique_ciphertext_chunks", 3),
            ("leaked_pairs", 0),
            ("iterations", 7),
        )
        # Consumers name what they take, in their own order, so a field
        # added to the full row cannot shift into their rows.
        assert report.row("precision", "target") == (
            ("precision", 0.5),
            ("target", "tgt"),
        )
        with pytest.raises(KeyError):
            report.row("rate")


class TestSampleLeakage:
    def test_zero_rate_empty(self):
        encrypted = encrypted_pair([["a", "b"], ["a", "b"]])
        assert sample_leakage(encrypted[1], 0.0) == {}

    def test_sample_size(self):
        tokens = [f"t{i}" for i in range(100)]
        encrypted = encrypted_pair([tokens, tokens])
        leaked = sample_leakage(encrypted[1], 0.1, seed=1)
        assert len(leaked) == 10

    def test_sampled_pairs_are_true_pairs(self):
        tokens = [f"t{i}" for i in range(50)]
        encrypted = encrypted_pair([tokens, tokens])
        leaked = sample_leakage(encrypted[1], 0.2, seed=2)
        for cipher_fp, plain_fp in leaked.items():
            assert encrypted[1].truth[cipher_fp] == plain_fp

    def test_deterministic_per_seed(self):
        tokens = [f"t{i}" for i in range(50)]
        encrypted = encrypted_pair([tokens, tokens])
        assert sample_leakage(encrypted[1], 0.2, seed=3) == sample_leakage(
            encrypted[1], 0.2, seed=3
        )
        assert sample_leakage(encrypted[1], 0.2, seed=3) != sample_leakage(
            encrypted[1], 0.2, seed=4
        )

    def test_invalid_rate(self):
        encrypted = encrypted_pair([["a"], ["a"]])
        with pytest.raises(ConfigurationError):
            sample_leakage(encrypted[1], 1.5)

    def test_negative_rate_rejected(self):
        encrypted = encrypted_pair([["a"], ["a"]])
        with pytest.raises(ConfigurationError):
            sample_leakage(encrypted[1], -0.1)

    def test_full_rate_leaks_every_unique_pair(self):
        tokens = [f"t{i}" for i in range(40)] + ["t0", "t1"]  # with repeats
        encrypted = encrypted_pair([tokens, tokens])
        leaked = sample_leakage(encrypted[1], 1.0, seed=9)
        assert len(leaked) == encrypted[1].unique_ciphertext_chunks
        assert leaked == encrypted[1].truth

    def test_rate_rounding_to_zero_pairs_is_empty(self):
        # 20 unique chunks at 0.1% rounds to zero sampled pairs.
        tokens = [f"t{i}" for i in range(20)]
        encrypted = encrypted_pair([tokens, tokens])
        assert sample_leakage(encrypted[1], 0.001, seed=3) == {}


class TestAttackEvaluator:
    def test_perfect_inference_on_identical_unambiguous_streams(self):
        # Distinct frequencies everywhere -> basic attack is exact.
        tokens = ["a"] * 3 + ["b"] * 2 + ["c"]
        encrypted = encrypted_pair([tokens, tokens])
        evaluator = AttackEvaluator(encrypted)
        report = evaluator.run(BasicAttack(), auxiliary=0, target=1)
        assert report.inference_rate == 1.0

    def test_disjoint_streams_rate_zero(self):
        encrypted = encrypted_pair([["a", "b", "c"], ["x", "y", "z"]])
        evaluator = AttackEvaluator(encrypted)
        report = evaluator.run(
            LocalityAttack(u=1, v=2, w=10), auxiliary=0, target=1
        )
        assert report.correct_pairs == 0

    def test_rate_counts_unique_ciphertext_chunks(self):
        # 6 logical chunks but 3 unique.
        tokens = ["a", "b", "c", "a", "b", "c"]
        encrypted = encrypted_pair([tokens, tokens])
        evaluator = AttackEvaluator(encrypted)
        report = evaluator.run(BasicAttack(), auxiliary=0, target=1)
        assert report.unique_ciphertext_chunks == 3

    def test_leakage_included_in_rate(self):
        # Disjoint content: nothing inferable, so the rate equals the
        # leakage contribution exactly.
        target = [f"t{i}" for i in range(20)]
        encrypted = encrypted_pair([["x", "y"], target])
        evaluator = AttackEvaluator(encrypted)
        report = evaluator.run(
            LocalityAttack(u=1, v=2, w=10),
            auxiliary=0,
            target=1,
            leakage_rate=0.25,
        )
        assert report.leaked_pairs == 5
        assert report.correct_pairs == 5
        assert report.inference_rate == 0.25

    def test_negative_indices(self, tiny_encrypted_mle):
        evaluator = AttackEvaluator(tiny_encrypted_mle)
        by_negative = evaluator.run(BasicAttack(), auxiliary=-2, target=-1)
        by_positive = evaluator.run(
            BasicAttack(),
            auxiliary=len(tiny_encrypted_mle) - 2,
            target=len(tiny_encrypted_mle) - 1,
        )
        assert by_negative.inference_rate == by_positive.inference_rate


class TestCrossTenantEvaluation:
    """Auxiliary and target populations from *different tenants* of the
    multi-tenant service (cross-user leakage edge cases)."""

    @staticmethod
    def trace(**overrides):
        from repro.service import ServiceConfig, simulate

        defaults = dict(
            tenants=3,
            rounds=1,
            files_per_tenant=5,
            mean_file_chunks=8,
            restore_probability=0.0,
        )
        defaults.update(overrides)
        return simulate(ServiceConfig(**defaults))

    def disjoint_trace(self):
        # No shared templates, no shared popular pool: tenants are fully
        # private, so any cross-tenant pair has empty overlap.
        return self.trace(duplication_factor=0.0, popular_rate=0.0)

    def identical_trace(self):
        # One template, always drawn: every tenant's filesystem is the
        # same file repeated, so cross-tenant overlap is total.
        return self.trace(
            duplication_factor=1.0, num_templates=1, popular_rate=0.0
        )

    def test_empty_overlap_infers_nothing(self):
        trace = self.disjoint_trace()
        meter = trace.meter
        assert meter.overlap(0, 1) == 0.0
        report = meter.evaluate(LocalityAttack(u=1, v=15, w=1000), 0, 1)
        assert report.correct_pairs == 0
        assert report.inference_rate == 0.0

    def test_full_overlap_infers_nearly_everything(self):
        from repro.attacks.frequency import INSERTION

        trace = self.identical_trace()
        meter = trace.meter
        assert meter.overlap(0, 1) == 1.0
        # Identical streams align rank-for-rank under insertion-order
        # ties, so the locality attack recovers the whole stream.
        attack = LocalityAttack(
            u=1, v=15, w=1000, seed_tie_break=INSERTION
        )
        report = meter.evaluate(attack, 0, 1)
        assert report.inference_rate > 0.9

    def test_cross_tenant_leakage_sample_is_target_truth(self):
        trace = self.disjoint_trace()
        _, target = trace.meter.attack_pair(0, 1)
        leaked = sample_leakage(target, 0.5, seed=3)
        assert leaked  # half the unique chunks
        for cipher_fp, plain_fp in leaked.items():
            assert target.truth[cipher_fp] == plain_fp
        assert sample_leakage(target, 0.5, seed=3) == leaked
        assert sample_leakage(target, 0.5, seed=4) != leaked

    def test_full_leakage_dominates_even_with_empty_overlap(self):
        # Known-plaintext mode: with the whole target leaked the rate is
        # 1.0 even though the cross-tenant auxiliary shares nothing.
        trace = self.disjoint_trace()
        report = trace.meter.evaluate(
            LocalityAttack(u=1, v=15, w=1000),
            auxiliary_tenant=0,
            target_tenant=1,
            leakage_rate=1.0,
        )
        assert report.leaked_pairs == report.unique_ciphertext_chunks
        assert report.inference_rate == 1.0

    def test_population_auxiliary_contains_all_other_tenants(self):
        trace = self.identical_trace()
        meter = trace.meter
        population = meter.population_auxiliary(excluding_tenant=0)
        own = set(meter.attack_pair(1, 0)[0].fingerprints)
        assert own <= set(population.fingerprints)
