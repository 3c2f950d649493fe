"""Integration: dataset → defense pipeline → attack → evaluation.

These run the paper's core claims end-to-end on the tiny test workloads:
the locality-based attack beats the basic attack by orders of magnitude
under deterministic MLE, and the combined defense suppresses it.
"""

import pytest

from repro.attacks import (
    AdvancedLocalityAttack,
    AttackEvaluator,
    BasicAttack,
    LocalityAttack,
)
from repro.defenses.pipeline import DefensePipeline, DefenseScheme

pytestmark = pytest.mark.integration


class TestAttackHierarchy:
    def test_locality_beats_basic_on_fsl(self, tiny_encrypted_mle):
        evaluator = AttackEvaluator(tiny_encrypted_mle)
        basic = evaluator.run(BasicAttack(), auxiliary=-2, target=-1)
        locality = evaluator.run(
            LocalityAttack(u=1, v=15, w=50_000), auxiliary=-2, target=-1
        )
        assert locality.inference_rate > 10 * max(basic.inference_rate, 1e-6)
        assert locality.inference_rate > 0.02

    def test_advanced_at_least_matches_locality(self, tiny_encrypted_mle):
        evaluator = AttackEvaluator(tiny_encrypted_mle)
        locality = evaluator.run(
            LocalityAttack(u=1, v=15, w=50_000), auxiliary=-2, target=-1
        )
        advanced = evaluator.run(
            AdvancedLocalityAttack(u=1, v=15, w=50_000), auxiliary=-2, target=-1
        )
        assert advanced.inference_rate >= locality.inference_rate

    def test_recent_auxiliary_beats_stale(self, tiny_encrypted_mle):
        evaluator = AttackEvaluator(tiny_encrypted_mle)
        attack = AdvancedLocalityAttack(u=1, v=15, w=50_000)
        recent = evaluator.run(attack, auxiliary=-2, target=-1)
        stale = evaluator.run(attack, auxiliary=0, target=-1)
        assert recent.inference_rate > stale.inference_rate

    def test_leakage_strictly_helps(self, tiny_encrypted_mle):
        evaluator = AttackEvaluator(tiny_encrypted_mle)
        attack = LocalityAttack(u=1, v=15, w=50_000)
        without = evaluator.run(attack, auxiliary=1, target=-1)
        with_leak = evaluator.run(
            attack, auxiliary=1, target=-1, leakage_rate=0.01
        )
        assert with_leak.inference_rate > without.inference_rate


class TestDefenseSuppression:
    def test_combined_suppresses_advanced_attack(
        self, tiny_encrypted_mle, tiny_encrypted_combined
    ):
        attack = AdvancedLocalityAttack(u=1, v=15, w=50_000)
        undefended = AttackEvaluator(tiny_encrypted_mle).run(
            attack, auxiliary=-2, target=-1, leakage_rate=0.002
        )
        defended = AttackEvaluator(tiny_encrypted_combined).run(
            attack, auxiliary=-2, target=-1, leakage_rate=0.002
        )
        assert defended.inference_rate < undefended.inference_rate / 5
        assert defended.inference_rate < 0.02

    def test_minhash_alone_weaker_than_combined(
        self, tiny_fsl_series, tiny_segmentation, tiny_encrypted_combined
    ):
        minhash = DefensePipeline(
            DefenseScheme.MINHASH, segmentation=tiny_segmentation, seed=5
        ).encrypt_series(tiny_fsl_series)
        attack = AdvancedLocalityAttack(u=1, v=15, w=50_000)
        minhash_report = AttackEvaluator(minhash).run(
            attack, auxiliary=-2, target=-1, leakage_rate=0.002
        )
        combined_report = AttackEvaluator(tiny_encrypted_combined).run(
            attack, auxiliary=-2, target=-1, leakage_rate=0.002
        )
        assert combined_report.inference_rate <= minhash_report.inference_rate

    def test_storage_saving_loss_is_bounded(
        self, tiny_fsl_series, tiny_segmentation
    ):
        from repro.datasets.stats import storage_savings

        mle = DefensePipeline(
            DefenseScheme.MLE, segmentation=tiny_segmentation
        ).encrypt_series(tiny_fsl_series)
        combined = DefensePipeline(
            DefenseScheme.COMBINED, segmentation=tiny_segmentation
        ).encrypt_series(tiny_fsl_series)
        saving_mle = storage_savings(
            [b.ciphertext for b in mle.backups]
        )[-1]
        saving_combined = storage_savings(
            [b.ciphertext for b in combined.backups]
        )[-1]
        assert saving_combined <= saving_mle
        assert saving_mle - saving_combined < 0.25


class TestVMDataset:
    def test_advanced_equals_locality_on_fixed_chunks(self, tiny_vm_series):
        encrypted = DefensePipeline(DefenseScheme.MLE).encrypt_series(
            tiny_vm_series
        )
        evaluator = AttackEvaluator(encrypted)
        locality = evaluator.run(
            LocalityAttack(u=1, v=15, w=50_000), auxiliary=-2, target=-1
        )
        advanced = evaluator.run(
            AdvancedLocalityAttack(u=1, v=15, w=50_000), auxiliary=-2, target=-1
        )
        assert locality.inference_rate == advanced.inference_rate


# ---------------------------------------------------------------------------
# Paper fidelity as a seed sweep (ROADMAP 6(e))

SWEEP_SEEDS = range(6)
# An ordering below must hold on every seed but at most this many: with a
# few thousand chunks per backup a frequency seed pair mis-lands on about
# one seed in six and the walk it starts infers nothing, which ties the
# locality attack with everything weaker. Orderings that do not depend on
# where the seed lands (advanced >= locality, advanced = locality on
# fixed-size chunks, the combined defense) get no allowance.
ALLOWED_MISSES = 1
# Five seed pairs, as in bench/workloads/trace_attack.py: with one, whether
# the walk starts at all is a coin flip per seed.
ATTACK_PARAMS = {"u": 5, "v": 15, "w": 50_000}


def holds_on(sweep, ordering) -> int:
    return sum(1 for reports in sweep if ordering(reports))


@pytest.fixture(scope="module")
def fsl_sweep(tiny_segmentation):
    """Per seed: an FSL-like series (the tiny fixture's shape, one backup
    fewer) under MLE and under the combined defense, and the inference
    rate of every attack the orderings compare."""
    from repro.datasets.fsl import FSLConfig, FSLDatasetGenerator

    config = FSLConfig(
        num_users=4,
        num_backups=3,
        files_per_user=60,
        mean_file_chunks=24,
        num_templates=40,
        popular_pool_size=80,
    )
    sweep = []
    for seed in SWEEP_SEEDS:
        series = FSLDatasetGenerator(seed=seed, config=config).generate()
        mle, combined = (
            AttackEvaluator(
                DefensePipeline(
                    scheme, segmentation=tiny_segmentation, seed=seed
                ).encrypt_series(series)
            )
            for scheme in (DefenseScheme.MLE, DefenseScheme.COMBINED)
        )

        def rate(evaluator, attack, **kwargs):
            return evaluator.run(attack, -2, -1, **kwargs).inference_rate

        locality = LocalityAttack(**ATTACK_PARAMS)
        advanced = AdvancedLocalityAttack(**ATTACK_PARAMS)
        sweep.append(
            {
                "basic": rate(mle, BasicAttack()),
                "locality": rate(mle, locality),
                "locality_fingerprint_ties": rate(
                    mle, LocalityAttack(tie_break="fingerprint", **ATTACK_PARAMS)
                ),
                "locality_leak": rate(mle, locality, leakage_rate=0.01),
                "advanced": rate(mle, advanced),
                "advanced_combined": rate(combined, advanced),
            }
        )
    return sweep


@pytest.fixture(scope="module")
def vm_sweep():
    """Per seed: a fixed-size-chunk VM series under MLE, attacked both ways."""
    from repro.datasets.vm import VMConfig, VMDatasetGenerator

    config = VMConfig(
        num_vms=4,
        num_backups=4,
        base_image_chunks=400,
        user_region_chunks=150,
        heavy_weeks=(2,),
        quiet_weeks=(0,),
        popular_pool_size=20,
    )
    sweep = []
    for seed in SWEEP_SEEDS:
        series = VMDatasetGenerator(seed=seed, config=config).generate()
        evaluator = AttackEvaluator(
            DefensePipeline(DefenseScheme.MLE).encrypt_series(series)
        )
        sweep.append(
            {
                "basic": evaluator.run(BasicAttack(), -2, -1),
                "locality": evaluator.run(LocalityAttack(**ATTACK_PARAMS), -2, -1),
                "advanced": evaluator.run(
                    AdvancedLocalityAttack(**ATTACK_PARAMS), -2, -1
                ),
            }
        )
    return sweep


class TestPaperFidelitySeedSweep:
    """The paper's orderings as invariants over seeds, not one fixture: a
    refactor that shifts a tie-break fails here, not only in a golden."""

    def test_locality_far_above_basic(self, fsl_sweep, vm_sweep):
        def far_above(reports):
            return reports["locality"] > 10 * max(reports["basic"], 1e-6)

        assert holds_on(fsl_sweep, far_above) >= len(fsl_sweep) - ALLOWED_MISSES
        assert (
            holds_on(
                vm_sweep,
                lambda reports: reports["locality"].inference_rate
                > 10 * max(reports["basic"].inference_rate, 1e-6),
            )
            >= len(vm_sweep) - ALLOWED_MISSES
        )

    def test_advanced_at_least_locality_under_cdc(self, fsl_sweep):
        assert all(
            reports["advanced"] >= reports["locality"] for reports in fsl_sweep
        )
        # The size channel is worth something on most seeds, not a tie.
        assert (
            holds_on(fsl_sweep, lambda r: r["advanced"] > 1.2 * r["locality"])
            >= len(fsl_sweep) - ALLOWED_MISSES
        )

    def test_advanced_equals_locality_on_fixed_size_chunks(self, vm_sweep):
        for reports in vm_sweep:
            locality, advanced = reports["locality"], reports["advanced"]
            assert advanced.correct_pairs == locality.correct_pairs
            assert advanced.inferred_pairs == locality.inferred_pairs
            assert advanced.iterations == locality.iterations

    def test_combined_defense_suppresses_the_advanced_attack(self, fsl_sweep):
        assert all(
            reports["advanced_combined"] < reports["advanced"] / 5
            for reports in fsl_sweep
        )

    def test_leakage_strictly_helps(self, fsl_sweep):
        assert all(
            reports["locality_leak"] > reports["locality"] for reports in fsl_sweep
        )

    def test_insertion_ties_carry_the_locality_attack(self, fsl_sweep):
        # §4.1: sequential neighbor lists break ties in stream order, which
        # is correlated across backups; fingerprint order is not. The floor
        # sits between what the sweep measures (0.14-0.33 where the seed
        # lands) and what fingerprint ties leave of it (0.02-0.10).
        assert (
            holds_on(
                fsl_sweep,
                lambda r: r["locality"] > 1.5 * r["locality_fingerprint_ties"]
                and r["locality"] > 0.12,
            )
            >= len(fsl_sweep) - ALLOWED_MISSES
        )
        assert all(reports["advanced"] > 0.4 for reports in fsl_sweep)
