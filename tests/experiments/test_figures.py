"""Figures 1–14: one test per evaluation figure of the paper.

The drivers run through the scenario engine (``repro.scenarios``), whose
output is byte-identical at any worker count, so the cells fan out over
every CPU the host has.
"""

import os
from statistics import mean

from repro.analysis.figures import (
    FIG8_ANCHORS,
    KPM_W,
    fig1_frequency_skew,
    fig4_parameter_impact,
    fig5_vary_auxiliary,
    fig6_vary_target,
    fig7_sliding_window,
    fig8_known_plaintext,
    fig9_kpm_vary_auxiliary,
    fig10_defense_effectiveness,
    fig11_storage_saving,
    fig13_metadata_small_cache,
    fig14_metadata_large_cache,
)
from repro.analysis.reporting import FigureResult
from repro.analysis.workloads import encrypted_series
from repro.attacks import AdvancedLocalityAttack, AttackEvaluator

JOBS = os.cpu_count() or 1


def series_of(result: FigureResult, **filters) -> list:
    """Extract one plotted series: filter rows by column values, return the
    last column's values in row order."""
    indices = {name: result.columns.index(name) for name in filters}
    value_index = len(result.columns) - 1
    return [
        row[value_index]
        for row in result.rows
        if all(row[indices[name]] == value for name, value in filters.items())
    ]


def test_fig01_frequency_skew(run_figure):
    """Figure 1: skewed chunk-frequency distributions (FSL and VM).

    Paper claim: both datasets are heavily skewed — in FSL 99.8 % of chunks
    occur fewer than 100 times while a tiny tail exceeds 10 000 occurrences;
    VM is similar (97 % below 100). At our reduced scale the shape criterion
    is a strong head (≥ 95 % of unique chunks below 100 occurrences)
    together with a heavy tail (maximum frequency ≥ 100× the median).
    """
    result = run_figure(fig1_frequency_skew, jobs=JOBS)
    for row in result.rows:
        dataset, unique, below10, below100, median, p99, peak = row
        assert unique > 10_000, f"{dataset}: workload too small"
        assert below100 > 0.95, f"{dataset}: head not skewed enough"
        assert peak >= 100 * max(median, 1), f"{dataset}: tail too light"
        assert p99 < peak, f"{dataset}: no extreme tail beyond p99"


def test_fig04_parameters(run_figure):
    """Figure 4: impact of the locality-attack parameters u, v, w.

    Paper claims (§5.3.1):
    (a) the inference rate *decreases* as u grows — extra seeds are less
        reliable and poison the inferred set;
    (b) the rate first rises with v (more pairs inferred per neighbor
        analysis), peaks around v ≈ 15–20, then declines slightly;
    (c) the rate is non-decreasing in w and saturates once the FIFO queue
        stops overflowing.
    """
    result = run_figure(fig4_parameter_impact, jobs=JOBS)
    for dataset in ("fsl", "vm"):
        u_series = series_of(result, dataset=dataset, parameter="u")
        v_series = series_of(result, dataset=dataset, parameter="v")
        w_series = series_of(result, dataset=dataset, parameter="w")

        # (a) u=1 beats large u.
        assert u_series[0] >= u_series[-1], (dataset, "u", u_series)

        # (b) the v-curve is unimodal-ish: its peak is not at the smallest
        # v, and the tail does not exceed the peak.
        peak = max(v_series)
        assert peak > v_series[0] * 0.99, (dataset, "v", v_series)
        assert v_series[-1] <= peak, (dataset, "v", v_series)

        # (c) w is monotone non-decreasing up to noise and saturates.
        assert w_series[-1] >= w_series[0] * 0.99, (dataset, "w", w_series)


def test_fig05_vary_auxiliary(run_figure):
    """Figure 5: ciphertext-only inference rate vs auxiliary backup recency.

    Paper claims (§5.3.2):
    * the basic attack is ineffective on every dataset (≤ 0.03 %-ish rates);
    * the locality-based and advanced attacks are orders of magnitude
      stronger;
    * more recent auxiliary backups give higher rates (FSL: up to 23.2 % /
      33.6 % with the most recent auxiliary);
    * the advanced attack dominates the locality-based attack on
      variable-size datasets; on VM they coincide (fixed-size chunks) and
      the early-term backups (before the churn window) are nearly useless
      as auxiliaries.
    """
    result = run_figure(fig5_vary_auxiliary, jobs=JOBS)

    for dataset in ("fsl", "synthetic", "vm"):
        basic = series_of(result, dataset=dataset, attack="basic")
        locality = series_of(result, dataset=dataset, attack="locality")
        assert max(basic) < 0.01, (dataset, basic)
        assert max(locality) > 10 * max(basic), (dataset, locality)

    # Recency: most recent auxiliary beats the oldest for the strongest
    # attack on each dataset.
    fsl_advanced = series_of(result, dataset="fsl", attack="advanced")
    assert fsl_advanced[-1] > fsl_advanced[0]
    assert fsl_advanced[-1] > 0.15

    fsl_locality = series_of(result, dataset="fsl", attack="locality")
    assert fsl_locality[-1] > 0.10  # paper: 23.2%

    # Advanced >= locality with the most recent auxiliary (variable-size).
    for dataset in ("fsl", "synthetic"):
        locality = series_of(result, dataset=dataset, attack="locality")
        advanced = series_of(result, dataset=dataset, attack="advanced")
        assert advanced[-1] >= locality[-1], dataset

    # VM: pre-churn-window auxiliaries are near-useless, recent ones work
    # (paper: <0.005% for weeks 1-8, rising to 14.5% at week 12).
    vm_locality = series_of(result, dataset="vm", attack="locality")
    assert vm_locality[-1] > 0.08
    assert min(vm_locality[:4]) < 0.25 * vm_locality[-1]


def test_fig06_vary_target(run_figure):
    """Figure 6: ciphertext-only inference rate vs target backup distance.

    Paper claims (§5.3.2): with the earliest backup as auxiliary
    information, nearby targets are inferred at high rates (FSL Feb:
    26.4 % / 30.0 %) and the rate decays as the target drifts away (FSL
    May: 7.7 % / 22.1 %); the basic attack stays ineffective throughout;
    on VM the rate collapses for targets past the churn window.
    """
    result = run_figure(fig6_vary_target, jobs=JOBS)

    for dataset in ("fsl", "synthetic", "vm"):
        basic = series_of(result, dataset=dataset, attack="basic")
        assert max(basic) < 0.01, (dataset, basic)

    # Decay with target distance for the strongest attacks on FSL.
    for attack, floor in (("locality", 0.04), ("advanced", 0.15)):
        series = series_of(result, dataset="fsl", attack=attack)
        assert series[0] > series[-1], (attack, series)
        assert series[0] > floor, (attack, series)

    # VM: targets beyond the churn window are nearly out of reach of the
    # week-1 auxiliary (paper: ~0.1% after week 8), while early targets
    # are inferable.
    vm = series_of(result, dataset="vm", attack="locality")
    assert vm[0] > 0.05
    assert vm[-1] < 0.25 * vm[0]


def test_fig07_sliding_window(run_figure):
    """Figure 7: sliding-window attacks (auxiliary backup t, target t+s).

    Paper claims (§5.3.2):
    * the advanced attack beats the locality-based attack at every window
      on the variable-size datasets (FSL s=1 averages: 24.3 % vs 30.4 %);
    * smaller shifts are easier (s=1 ≥ s=2 on average);
    * the VM series fluctuates: windows inside the heavy-churn weeks
      collapse (paper: < 0.6 %) while quiet windows reach > 20 %.
    """
    result = run_figure(fig7_sliding_window, jobs=JOBS)

    for dataset in ("fsl", "synthetic"):
        loc_s1 = series_of(result, dataset=dataset, attack="locality", s=1)
        adv_s1 = series_of(result, dataset=dataset, attack="advanced", s=1)
        adv_s2 = series_of(result, dataset=dataset, attack="advanced", s=2)
        assert mean(adv_s1) >= mean(loc_s1), dataset
        assert mean(adv_s1) >= mean(adv_s2) * 0.9, dataset
        assert mean(adv_s1) > 0.1, dataset

    vm_s1 = series_of(result, dataset="vm", attack="locality", s=1)
    # Fluctuation: the best quiet window is much stronger than the worst
    # churn-week window.
    assert max(vm_s1) > 0.15
    assert min(vm_s1) < 0.3 * max(vm_s1)
    # Wider windows are weaker on average.
    vm_s3 = series_of(result, dataset="vm", attack="locality", s=3)
    assert mean(vm_s3) <= mean(vm_s1)


def test_fig08_known_plaintext(run_figure):
    """Figure 8: known-plaintext mode — inference rate vs leakage rate.

    Paper claims (§5.3.3): a tiny leakage (0.2 % of the target's chunks)
    boosts the inference rate dramatically (FSL: 27.5 % locality / 38.2 %
    advanced); rates grow monotonically-ish with the leakage rate; on VM
    both attacks coincide.
    """
    result = run_figure(fig8_known_plaintext, jobs=JOBS)

    for dataset in ("fsl", "synthetic", "vm"):
        locality = series_of(result, dataset=dataset, attack="locality")
        # growing leakage never hurts much and the largest leakage attains
        # a strong rate
        assert locality[-1] >= locality[0] * 0.9, (dataset, locality)
        assert locality[-1] > 0.05, (dataset, locality)

    for dataset in ("fsl", "synthetic"):
        locality = series_of(result, dataset=dataset, attack="locality")
        advanced = series_of(result, dataset=dataset, attack="advanced")
        assert advanced[-1] >= locality[-1] * 0.9, dataset

    # The leakage itself is only 0.2% — the attack must amplify it by
    # orders of magnitude (paper: 0.2% leaked -> 27.5% inferred on FSL).
    fsl_locality = series_of(result, dataset="fsl", attack="locality")
    assert fsl_locality[-1] > 25 * 0.002


def test_fig09_kpm_vary_auxiliary(run_figure):
    """Figure 9: known-plaintext mode (0.05 % leakage), varying auxiliary.

    Paper claims (§5.3.3): the recency trend of Figure 5 persists under
    leakage, at uniformly higher levels (FSL most-recent auxiliary: 29.1 %
    locality / 37.9 % advanced); the advanced attack dominates on
    variable-size datasets.
    """
    result = run_figure(fig9_kpm_vary_auxiliary, jobs=JOBS)

    for dataset in ("fsl", "synthetic"):
        locality = series_of(result, dataset=dataset, attack="locality")
        advanced = series_of(result, dataset=dataset, attack="advanced")
        assert advanced[-1] >= locality[-1] * 0.9, dataset
        assert locality[-1] >= locality[0], dataset

    fsl_locality = series_of(result, dataset="fsl", attack="locality")
    assert fsl_locality[-1] > 0.10  # paper: 29.1%

    vm_locality = series_of(result, dataset="vm", attack="locality")
    assert vm_locality[-1] > vm_locality[0]
    assert vm_locality[-1] > 0.08  # paper: 17.6%


def test_fig10_defense_effectiveness(run_figure):
    """Figure 10: defense effectiveness against the advanced attack (KPM).

    Paper claims (§7.2): at 0.2 % leakage MinHash encryption alone
    suppresses the advanced attack to 7.3 % / 3.8 % / 3.4 % (FSL /
    synthetic / VM), and the combined MinHash + scrambling scheme pushes it
    down to 0.20–0.24 % — barely above the leaked chunks themselves.
    """
    result = run_figure(fig10_defense_effectiveness, jobs=JOBS)

    for dataset in ("fsl", "synthetic", "vm"):
        minhash = series_of(result, dataset=dataset, scheme="minhash")
        combined = series_of(result, dataset=dataset, scheme="combined")

        # The combined scheme's rate stays within a whisker of the leakage
        # itself (leaked chunks count toward the rate).
        assert combined[-1] < 0.01, (dataset, combined)
        # MinHash alone helps but is weaker than the combined scheme.
        assert combined[-1] <= minhash[-1], dataset

        # Compare against the undefended baseline at the same anchor.
        aux, target = FIG8_ANCHORS[dataset]
        undefended = AttackEvaluator(encrypted_series(dataset)).run(
            AdvancedLocalityAttack(w=KPM_W),
            aux,
            target,
            leakage_rate=0.002,
        )
        assert minhash[-1] < undefended.inference_rate, dataset
        assert combined[-1] < undefended.inference_rate / 10, dataset


def test_fig11_storage_saving(run_figure):
    """Figure 11: storage efficiency of the combined scheme vs exact MLE dedup.

    Paper claims (§7.3): the combined scheme maintains the high storage
    saving of deduplication — the final cumulative saving is within a few
    percentage points of MLE's (FSL 3.6 pp, synthetic ~3 pp, VM 0.7 pp) and
    savings grow as more backups are stored.

    At bench scale the attack-calibrated fsl/synthetic workloads
    over-weight small cross-context duplicates, so the paper-matching
    bound is asserted on the storage-fsl workload, and a looser bound on
    the others.
    """
    result = run_figure(fig11_storage_saving, jobs=JOBS)

    for dataset, max_loss in (
        ("storage-fsl", 0.06),
        ("fsl", 0.25),
        ("synthetic", 0.25),
        ("vm", 0.15),
    ):
        mle = series_of(result, dataset=dataset, scheme="mle")
        combined = series_of(result, dataset=dataset, scheme="combined")
        # Savings grow with the series for both schemes.
        assert mle[-1] > mle[0]
        assert combined[-1] > combined[0]
        # Combined never saves more than exact dedup, and the loss is
        # bounded.
        final_loss = mle[-1] - combined[-1]
        assert 0.0 <= final_loss <= max_loss, (dataset, final_loss)

    # The headline number: on the temporal-redundancy workload the loss is
    # a few percentage points, like the paper's 3.6 pp.
    mle = series_of(result, dataset="storage-fsl", scheme="mle")
    combined = series_of(result, dataset="storage-fsl", scheme="combined")
    assert mle[-1] > 0.6  # deduplication still saves most of the data
    assert (mle[-1] - combined[-1]) < 0.06


def test_fig13_metadata_small_cache(run_figure):
    """Figure 13: metadata access with the *insufficient* fingerprint cache.

    Paper claims (§7.4.2):
    * loading access (whole-container fingerprint prefetches) dominates the
      total metadata access (> 74 % for both schemes);
    * the combined scheme is *cheaper* than MLE on the first backup (it
      stores more unique chunks, which skip the loading path);
    * on subsequent backups the combined scheme's overhead over MLE stays
      small (paper: ≤ 1.2 %; the bound here is looser because the workload
      is ~10³× smaller).
    """
    result = run_figure(fig13_metadata_small_cache, jobs=JOBS)

    mle_total = series_of(result, scheme="mle")
    combined_total = series_of(result, scheme="combined")

    # First backup: combined cheaper (more uniques -> fewer loads).
    assert combined_total[0] < mle_total[0]

    # Steady state: bounded overhead.
    for mle, combined in zip(mle_total[1:], combined_total[1:]):
        assert combined < mle * 1.5, (mle, combined)

    # Loading dominates for both schemes on the last backup.
    for scheme in ("mle", "combined"):
        rows = [row for row in result.rows if row[0] == scheme]
        _, _, update, index, loading, total = rows[-1]
        assert loading / total > 0.5, (scheme, rows[-1])
        assert index < update + loading


def test_fig14_metadata_large_cache(run_figure):
    """Figure 14: metadata access with the *sufficient* fingerprint cache.

    Paper claims (§7.4.2): enlarging the cache sharply reduces loading
    access for both schemes (22 % / 29 % at paper scale; much more at bench
    scale where the large cache retains every fingerprint). The paper
    additionally observes the combined scheme becoming 6.4–20 % *cheaper*
    than MLE; our reproduction does not recover that inversion beyond the
    first backup — the combined scheme's extra unique chunks cost update
    accesses that are not offset at steady state — a known divergence.
    """
    result = run_figure(fig14_metadata_large_cache, jobs=JOBS)
    small = fig13_metadata_small_cache()

    # The large cache cuts total metadata access for both schemes.
    for scheme in ("mle", "combined"):
        large_total = sum(series_of(result, scheme=scheme)[1:])
        small_total = sum(series_of(small, scheme=scheme)[1:])
        assert large_total < small_total, scheme

    # First backup: combined cheaper than MLE, as with the small cache.
    mle_total = series_of(result, scheme="mle")
    combined_total = series_of(result, scheme="combined")
    assert combined_total[0] < mle_total[0]

    # Loading access specifically collapses once the cache retains the
    # whole fingerprint population.
    for scheme in ("mle", "combined"):
        rows = [row for row in result.rows if row[0] == scheme]
        loading_last = rows[-1][4]
        small_rows = [row for row in small.rows if row[0] == scheme]
        assert loading_last < small_rows[-1][4], scheme
