"""Four ablations the paper argues in prose but does not plot."""

from repro.analysis.reporting import FigureResult
from repro.analysis.workloads import (
    encrypted_series,
    scaled_segmentation,
    series_by_name,
)
from repro.attacks import AdvancedLocalityAttack, AttackEvaluator
from repro.attacks.frequency import FINGERPRINT, INSERTION
from repro.attacks.locality import LocalityAttack
from repro.common.units import MiB
from repro.datasets.stats import storage_savings
from repro.defenses.pipeline import DefensePipeline, DefenseScheme
from repro.defenses.scramble import DEQUE, FISHER_YATES
from repro.defenses.segmentation import SegmentationSpec
from repro.storage.ddfs import DDFSEngine
from repro.storage.restore_sim import simulate_restore

_LEAKAGE = 0.002
_CHUNKS_PER_SEGMENT = (8, 16, 64)
_AVG_CHUNK = 8192


def _restore_locality() -> FigureResult:
    result = FigureResult(
        figure="Ablation restore locality",
        title="Sequential restore of the latest backup: container reads",
        columns=[
            "scheme",
            "chunks",
            "container_reads",
            "container_switches",
            "reads_per_chunk",
        ],
    )
    series = series_by_name("storage-fsl")
    spec = scaled_segmentation(series)
    for scheme in (DefenseScheme.MLE, DefenseScheme.COMBINED):
        pipeline = DefensePipeline(scheme, segmentation=spec, seed=7)
        encrypted = pipeline.encrypt_series(series)
        engine = DDFSEngine(
            cache_budget_bytes=4 * MiB,
            bloom_capacity=200_000,
            container_size=4 * MiB,
        )
        engine.process_series([b.ciphertext for b in encrypted.backups])
        report = simulate_restore(
            engine, encrypted.backups[-1].logical_ciphertext()
        )
        result.add_row(
            scheme.value,
            report.chunks_read,
            report.container_reads,
            report.container_switches,
            round(report.reads_per_mib_factor, 6),
        )
    return result


def test_ablation_restore_locality(run_figure):
    """Restore-path read amplification under scrambling (§6.2).

    Paper claim: because scrambling reorders chunks only within segments
    and segments are smaller than containers (2 MB vs 4 MB), the chunk
    layout across containers barely changes, so sequential restores read
    roughly the same number of containers with or without the defense.
    This experiment ingests MLE-encrypted and combined-encrypted streams
    into DDFS engines and replays a file-recipe-order restore of the latest
    backup, counting container reads with a small open-container cache.
    """
    result = run_figure(_restore_locality)
    reads = dict(zip(result.column("scheme"), result.column("container_reads")))
    # The combined scheme's restore reads at most ~2x the containers MLE
    # does (the paper argues the impact is limited; perfectly zero impact
    # is not expected because MinHash variants add containers).
    assert reads["combined"] <= 2.5 * reads["mle"], reads
    # And restores are far from pathological: orders of magnitude fewer
    # container reads than chunks.
    chunks = result.column("chunks")[0]
    assert reads["combined"] < chunks / 20, reads


def _scramble_mode() -> FigureResult:
    result = FigureResult(
        figure="Ablation scramble mode",
        title="Combined defense: deque vs Fisher-Yates scrambling "
        "(advanced attack, 0.2% leakage)",
        columns=["dataset", "mode", "inference_rate"],
    )
    for dataset in ("fsl", "synthetic"):
        series = series_by_name(dataset)
        for mode in (DEQUE, FISHER_YATES):
            pipeline = DefensePipeline(
                DefenseScheme.COMBINED,
                segmentation=scaled_segmentation(series),
                seed=7,
                scramble_mode=mode,
            )
            evaluator = AttackEvaluator(pipeline.encrypt_series(series))
            report = evaluator.run(
                AdvancedLocalityAttack(u=1, v=15, w=500_000),
                auxiliary=-2,
                target=-1,
                leakage_rate=_LEAKAGE,
            )
            result.add_row(dataset, mode, round(report.inference_rate, 5))
    return result


def test_ablation_scramble_mode(run_figure):
    """Algorithm 5's deque scramble vs a uniform Fisher–Yates shuffle.

    The paper's scrambling appends each chunk to the front or back of a
    deque by one random bit — cheaper than a full shuffle and, notably, it
    preserves *some* relative order (two chunks sent to the back keep their
    order). This ablation checks whether the cheaper permutation is already
    sufficient: both modes must suppress the advanced attack to near the
    leakage floor, and their residual rates should be of the same order.
    """
    result = run_figure(_scramble_mode)
    rates = {(row[0], row[1]): row[2] for row in result.rows}
    for dataset in ("fsl", "synthetic"):
        for mode in (DEQUE, FISHER_YATES):
            # Both permutations suppress the attack to near the 0.2%
            # leakage floor.
            assert rates[(dataset, mode)] < 0.02, (dataset, mode)
        # And the paper's cheap deque scramble is not materially weaker.
        assert rates[(dataset, DEQUE)] < 5 * max(
            rates[(dataset, FISHER_YATES)], _LEAKAGE
        )


def _segment_size() -> FigureResult:
    result = FigureResult(
        figure="Ablation segment size",
        title="Combined defense vs segment size (storage-fsl workload)",
        columns=[
            "chunks_per_segment",
            "inference_rate",
            "saving_mle",
            "saving_combined",
            "saving_loss",
        ],
    )
    series = series_by_name("storage-fsl")
    mle = DefensePipeline(DefenseScheme.MLE).encrypt_series(series)
    saving_mle = storage_savings([b.ciphertext for b in mle.backups])[-1]
    for chunks in _CHUNKS_PER_SEGMENT:
        spec = SegmentationSpec(
            min_bytes=chunks * _AVG_CHUNK // 2,
            avg_bytes=chunks * _AVG_CHUNK,
            max_bytes=chunks * _AVG_CHUNK * 2,
        )
        pipeline = DefensePipeline(
            DefenseScheme.COMBINED, segmentation=spec, seed=7
        )
        encrypted = pipeline.encrypt_series(series)
        report = AttackEvaluator(encrypted).run(
            AdvancedLocalityAttack(u=1, v=15, w=500_000),
            auxiliary=2,
            target=-1,
            leakage_rate=_LEAKAGE,
        )
        saving_combined = storage_savings(
            [b.ciphertext for b in encrypted.backups]
        )[-1]
        result.add_row(
            chunks,
            round(report.inference_rate, 5),
            round(saving_mle, 4),
            round(saving_combined, 4),
            round(saving_mle - saving_combined, 4),
        )
    return result


def test_ablation_segment_size(run_figure):
    """Segment size vs defense effectiveness and storage loss.

    Smaller segments mean more MinHash keys (stronger frequency
    perturbation, less collateral when a segment's minimum fingerprint
    changes) but also more divergence opportunities. This sweep maps the
    trade-off the paper fixes at 512 KB/1 MB/2 MB, across segment scales
    expressed in expected chunks per segment.
    """
    result = run_figure(_segment_size)
    rates = result.column("inference_rate")
    losses = result.column("saving_loss")
    # Every segment size suppresses the attack to near the leakage floor.
    assert all(rate < 0.03 for rate in rates), rates
    # Storage loss stays bounded at every size...
    assert all(0.0 <= loss < 0.20 for loss in losses), losses
    # ...and the 16-chunks-per-segment point (what SegmentationSpec.scaled
    # uses) sits at the bottom of the U-shaped trade-off: tiny segments
    # fragment dedup, huge segments amplify min-change collateral.
    assert losses[1] == min(losses), losses


def _tie_break() -> FigureResult:
    result = FigureResult(
        figure="Ablation tie-break",
        title="Locality attack: neighbor tie-break order (aux=-2, target=-1)",
        columns=["dataset", "tie_break", "inference_rate"],
    )
    for dataset in ("fsl", "vm"):
        evaluator = AttackEvaluator(encrypted_series(dataset))
        for tie_break in (INSERTION, FINGERPRINT):
            report = evaluator.run(
                LocalityAttack(u=1, v=15, w=200_000, tie_break=tie_break),
                auxiliary=-2,
                target=-1,
            )
            result.add_row(dataset, tie_break, round(report.inference_rate, 5))
    return result


def test_ablation_tie_break(run_figure):
    """Tie-breaking order in the neighbor frequency analyses.

    The paper's implementation stores each chunk's neighbor lists
    *sequentially* in LevelDB, so a stable frequency sort leaves tied
    co-occurrence counts in first-occurrence order — which is temporally
    correlated between the auxiliary and target streams wherever content is
    unmodified. Re-ranking ties by fingerprint bytes (uncorrelated between
    ciphertext and plaintext) destroys that alignment. This ablation
    quantifies how much of the locality-based attack's power comes from it.
    """
    result = run_figure(_tie_break)
    rates = {
        (row[0], row[1]): row[2] for row in result.rows
    }
    for dataset in ("fsl", "vm"):
        insertion = rates[(dataset, INSERTION)]
        fingerprint = rates[(dataset, FINGERPRINT)]
        # Insertion-order ties are a large part of the attack's power.
        assert insertion > fingerprint, dataset
        assert insertion > 2 * fingerprint, (dataset, insertion, fingerprint)
