"""Experiment drivers: one function per evaluation figure in the paper.

Each driver declares its experiment grid as a
:class:`~repro.scenarios.spec.Scenario` (see ``FIGURE_SCENARIOS``) and runs
it through the scenario engine (:mod:`repro.scenarios`), returning a
:class:`~repro.analysis.reporting.FigureResult` holding the same series the
paper plots.  ``freqdedup figure --save DIR`` renders and persists these,
and ``tests/experiments/test_figures.py`` asserts the paper's qualitative
claims about each (the shape criteria are in its docstrings).

Every driver accepts ``jobs`` (worker processes; results are merged in
spec order, so the output is byte-identical at any job count) and
``cache`` (a directory for the on-disk cell cache; reruns skip completed
cells).  The defaults — serial, uncached — reproduce the pre-engine
behaviour exactly.

Paper parameter choices are preserved: u=1, v=15, w=200 000 for the
ciphertext-only experiments (§5.3.2), w=500 000 in known-plaintext mode
(§5.3.3), leakage rates 0–0.2 %, and the same auxiliary/target backup
selections per dataset.
"""

from __future__ import annotations

import os

from repro.analysis.reporting import FigureResult
from repro.analysis.workloads import (
    LARGE_CACHE_BYTES,
    SMALL_CACHE_BYTES,
    series_chunking,
)
from repro.common.units import MiB
from repro.scenarios.cache import ResultCache
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import (
    FREQUENCY,
    METADATA,
    PAIR,
    SLIDING,
    STORAGE_SAVING,
    VARY_AUXILIARY,
    VARY_TARGET,
    Anchor,
    AttackParams,
    Scenario,
    ScenarioSpec,
)

# Paper §5.3 default attack parameters.
DEFAULT_U = 1
DEFAULT_V = 15
DEFAULT_W = 200_000
KPM_W = 500_000

# Paper §5.3 experiment anchors: (auxiliary index, target index) per figure.
FIG4_ANCHORS = {"fsl": (2, 4), "vm": (11, 12)}
FIG8_ANCHORS = {"fsl": (2, 4), "synthetic": (0, 5), "vm": (8, 12)}
LEAKAGE_RATES = (0.0005, 0.001, 0.0015, 0.002)
FIG9_LEAKAGE = 0.0005

# DDFS engine knobs shared by the metadata experiments (Figs. 13/14).
_DDFS_EXTRA = (("bloom_capacity", 200_000), ("container_size", 4 * MiB))


def _attacks_for(name: str) -> tuple[str, ...]:
    """The paper omits the advanced attack for fixed-size datasets (it
    coincides with the locality-based attack there)."""
    if series_chunking(name) == "fixed":
        return ("basic", "locality")
    return ("basic", "locality", "advanced")


def _run_figure(
    scenario: Scenario, jobs: int, cache: str | os.PathLike | ResultCache | None
) -> FigureResult:
    run = run_scenario(scenario, jobs=jobs, cache=cache)
    result = FigureResult(
        figure=scenario.name,
        title=scenario.title,
        columns=list(scenario.columns),
        notes=list(scenario.notes),
    )
    result.rows = run.rows
    return result


# -- Figure 1 -----------------------------------------------------------------

def fig1_scenario(datasets: tuple[str, ...] = ("fsl", "vm")) -> Scenario:
    return Scenario(
        name="Figure 1",
        title="Frequency distributions of chunks with duplicate content",
        columns=(
            "dataset",
            "unique_chunks",
            "frac_below_10",
            "frac_below_100",
            "p50_freq",
            "p99_freq",
            "max_freq",
        ),
        specs=(ScenarioSpec(name="fig1", kind=FREQUENCY, datasets=datasets),),
        notes=(
            "paper: FSL 99.8% of chunks occur <100 times while a tiny tail "
            "exceeds 10^4; shapes (strong skew) are compared, not absolute "
            "counts (datasets are ~10^3x smaller).",
        ),
    )


def fig1_frequency_skew(
    datasets: tuple[str, ...] = ("fsl", "vm"),
    jobs: int = 1,
    cache: str | None = None,
) -> FigureResult:
    """Figure 1: chunk frequency distributions (frequency vs CDF)."""
    return _run_figure(fig1_scenario(datasets), jobs, cache)


# -- Figure 4 -----------------------------------------------------------------

def fig4_scenario(
    us: tuple[int, ...] = (1, 3, 5, 10, 15, 20),
    vs: tuple[int, ...] = (5, 10, 15, 20, 30, 40),
    ws: tuple[int, ...] = (50_000, 100_000, 150_000, 200_000),
) -> Scenario:
    sweeps = (
        ("u", us, lambda u: AttackParams(u=u, v=20, w=100_000)),
        ("v", vs, lambda v: AttackParams(u=10, v=v, w=100_000)),
        ("w", ws, lambda w: AttackParams(u=10, v=20, w=w)),
    )
    specs = []
    for name, (auxiliary, target) in FIG4_ANCHORS.items():
        for parameter, values, make_params in sweeps:
            specs.append(
                ScenarioSpec(
                    name=f"fig4-{name}-{parameter}",
                    datasets=(name,),
                    attacks=("locality",),
                    params=tuple(make_params(value) for value in values),
                    param_tags=tuple(
                        (("parameter", parameter), ("value", value))
                        for value in values
                    ),
                    anchor=Anchor(mode=PAIR, auxiliary=auxiliary, target=target),
                )
            )
    return Scenario(
        name="Figure 4",
        title="Impact of parameters on locality-based attack",
        columns=("dataset", "parameter", "value", "inference_rate"),
        specs=tuple(specs),
    )


def fig4_parameter_impact(
    us: tuple[int, ...] = (1, 3, 5, 10, 15, 20),
    vs: tuple[int, ...] = (5, 10, 15, 20, 30, 40),
    ws: tuple[int, ...] = (50_000, 100_000, 150_000, 200_000),
    jobs: int = 1,
    cache: str | None = None,
) -> FigureResult:
    """Figure 4: impact of u, v, w on the locality-based attack."""
    return _run_figure(fig4_scenario(us, vs, ws), jobs, cache)


# -- Figures 5 and 6 ----------------------------------------------------------

def fig5_scenario(
    datasets: tuple[str, ...] = ("fsl", "synthetic", "vm"),
) -> Scenario:
    spec = ScenarioSpec(
        name="fig5",
        datasets=datasets,
        attacks=("basic", "locality", "advanced"),
        attacks_by_dataset=tuple(
            (name, _attacks_for(name)) for name in datasets
        ),
        anchor=Anchor(mode=VARY_AUXILIARY, target=-1),
    )
    return Scenario(
        name="Figure 5",
        title="Inference rate in ciphertext-only mode (varying auxiliary)",
        columns=("dataset", "attack", "auxiliary", "target", "inference_rate"),
        specs=(spec,),
    )


def fig5_vary_auxiliary(
    datasets: tuple[str, ...] = ("fsl", "synthetic", "vm"),
    jobs: int = 1,
    cache: str | None = None,
) -> FigureResult:
    """Figure 5: ciphertext-only inference rate, varying auxiliary backup,
    fixed (latest) target backup."""
    return _run_figure(fig5_scenario(datasets), jobs, cache)


def fig6_scenario(
    datasets: tuple[str, ...] = ("fsl", "synthetic", "vm"),
) -> Scenario:
    spec = ScenarioSpec(
        name="fig6",
        datasets=datasets,
        attacks=("basic", "locality", "advanced"),
        attacks_by_dataset=tuple(
            (name, _attacks_for(name)) for name in datasets
        ),
        anchor=Anchor(mode=VARY_TARGET, auxiliary=0),
    )
    return Scenario(
        name="Figure 6",
        title="Inference rate in ciphertext-only mode (varying target)",
        columns=("dataset", "attack", "auxiliary", "target", "inference_rate"),
        specs=(spec,),
    )


def fig6_vary_target(
    datasets: tuple[str, ...] = ("fsl", "synthetic", "vm"),
    jobs: int = 1,
    cache: str | None = None,
) -> FigureResult:
    """Figure 6: ciphertext-only inference rate, fixed (earliest) auxiliary
    backup, varying target backups."""
    return _run_figure(fig6_scenario(datasets), jobs, cache)


# -- Figure 7 -----------------------------------------------------------------

def fig7_scenario() -> Scenario:
    plan = {
        "fsl": ((1, 2), ("locality", "advanced")),
        "synthetic": ((1, 2), ("locality", "advanced")),
        "vm": ((1, 2, 3), ("locality",)),
    }
    specs = tuple(
        ScenarioSpec(
            name=f"fig7-{name}",
            datasets=(name,),
            attacks=attacks,
            anchor=Anchor(mode=SLIDING, shifts=shifts),
        )
        for name, (shifts, attacks) in plan.items()
    )
    return Scenario(
        name="Figure 7",
        title="Inference rate in ciphertext-only mode (sliding window)",
        columns=("dataset", "attack", "s", "auxiliary", "inference_rate"),
        specs=specs,
    )


def fig7_sliding_window(jobs: int = 1, cache: str | None = None) -> FigureResult:
    """Figure 7: sliding-window attacks (auxiliary t, target t+s)."""
    return _run_figure(fig7_scenario(), jobs, cache)


# -- Figures 8 and 9 ----------------------------------------------------------

def fig8_scenario(
    leakage_rates: tuple[float, ...] = LEAKAGE_RATES,
) -> Scenario:
    spec = ScenarioSpec(
        name="fig8",
        datasets=tuple(FIG8_ANCHORS),
        attacks=("locality", "advanced"),
        attacks_by_dataset=tuple(
            (name, tuple(a for a in _attacks_for(name) if a != "basic"))
            for name in FIG8_ANCHORS
        ),
        params=(AttackParams(w=KPM_W),),
        anchors_by_dataset=tuple(
            (name, Anchor(mode=PAIR, auxiliary=auxiliary, target=target))
            for name, (auxiliary, target) in FIG8_ANCHORS.items()
        ),
        leakage_rates=leakage_rates,
    )
    return Scenario(
        name="Figure 8",
        title="Inference rate in known-plaintext mode (varying leakage)",
        columns=("dataset", "attack", "leakage_rate", "inference_rate"),
        specs=(spec,),
    )


def fig8_known_plaintext(
    leakage_rates: tuple[float, ...] = LEAKAGE_RATES,
    jobs: int = 1,
    cache: str | None = None,
) -> FigureResult:
    """Figure 8: known-plaintext mode, inference rate vs leakage rate."""
    return _run_figure(fig8_scenario(leakage_rates), jobs, cache)


def fig9_scenario(leakage_rate: float = FIG9_LEAKAGE) -> Scenario:
    spec = ScenarioSpec(
        name="fig9",
        datasets=tuple(FIG8_ANCHORS),
        attacks=("locality", "advanced"),
        attacks_by_dataset=tuple(
            (name, tuple(a for a in _attacks_for(name) if a != "basic"))
            for name in FIG8_ANCHORS
        ),
        params=(AttackParams(w=KPM_W),),
        anchors_by_dataset=tuple(
            # The paper sweeps synthetic auxiliaries 0-4 regardless of
            # the target index; elsewhere the sweep runs up to the target.
            (
                name,
                Anchor(
                    mode=VARY_AUXILIARY,
                    target=target,
                    max_auxiliary=5 if name == "synthetic" else None,
                ),
            )
            for name, (_, target) in FIG8_ANCHORS.items()
        ),
        leakage_rates=(leakage_rate,),
    )
    return Scenario(
        name="Figure 9",
        title="Inference rate in known-plaintext mode (varying auxiliary)",
        columns=("dataset", "attack", "auxiliary", "inference_rate"),
        specs=(spec,),
    )


def fig9_kpm_vary_auxiliary(
    leakage_rate: float = FIG9_LEAKAGE,
    jobs: int = 1,
    cache: str | None = None,
) -> FigureResult:
    """Figure 9: known-plaintext mode (fixed 0.05% leakage), varying
    auxiliary backups."""
    return _run_figure(fig9_scenario(leakage_rate), jobs, cache)


# -- Figure 10 ----------------------------------------------------------------

def fig10_scenario(
    leakage_rates: tuple[float, ...] = LEAKAGE_RATES,
) -> Scenario:
    spec = ScenarioSpec(
        name="fig10",
        datasets=tuple(FIG8_ANCHORS),
        schemes=("minhash", "combined"),
        attacks=("advanced",),
        params=(AttackParams(w=KPM_W),),
        anchors_by_dataset=tuple(
            (name, Anchor(mode=PAIR, auxiliary=auxiliary, target=target))
            for name, (auxiliary, target) in FIG8_ANCHORS.items()
        ),
        leakage_rates=leakage_rates,
    )
    return Scenario(
        name="Figure 10",
        title="Defense effectiveness (advanced attack, known-plaintext)",
        columns=("dataset", "scheme", "leakage_rate", "inference_rate"),
        specs=(spec,),
    )


def fig10_defense_effectiveness(
    leakage_rates: tuple[float, ...] = LEAKAGE_RATES,
    jobs: int = 1,
    cache: str | None = None,
) -> FigureResult:
    """Figure 10: inference rate of the advanced locality-based attack in
    known-plaintext mode under MinHash-only and Combined defenses."""
    return _run_figure(fig10_scenario(leakage_rates), jobs, cache)


# -- Figure 11 ----------------------------------------------------------------

def fig11_scenario(
    datasets: tuple[str, ...] = ("fsl", "synthetic", "vm", "storage-fsl"),
) -> Scenario:
    return Scenario(
        name="Figure 11",
        title="Storage efficiency of the combined scheme vs MLE",
        columns=("dataset", "scheme", "backup", "storage_saving"),
        specs=(
            ScenarioSpec(
                name="fig11",
                kind=STORAGE_SAVING,
                datasets=datasets,
                schemes=("mle", "combined"),
            ),
        ),
        notes=(
            "storage-fsl is the temporal-redundancy-dominated FSL variant "
            "used for the storage experiments (see "
            "workloads.storage_fsl_series).",
        ),
    )


def fig11_storage_saving(
    datasets: tuple[str, ...] = ("fsl", "synthetic", "vm", "storage-fsl"),
    jobs: int = 1,
    cache: str | None = None,
) -> FigureResult:
    """Figure 11: cumulative storage saving per backup, MLE vs Combined."""
    return _run_figure(fig11_scenario(datasets), jobs, cache)


# -- Figures 13 and 14 --------------------------------------------------------

def _metadata_scenario(cache_budget: int, figure: str, title: str) -> Scenario:
    return Scenario(
        name=figure,
        title=title,
        columns=(
            "scheme",
            "backup",
            "update_MiB",
            "index_MiB",
            "loading_MiB",
            "total_MiB",
        ),
        specs=(
            ScenarioSpec(
                name=figure.lower().replace(" ", ""),
                kind=METADATA,
                datasets=("storage-fsl",),
                schemes=("mle", "combined"),
                extra=(("cache_budget_bytes", cache_budget),) + _DDFS_EXTRA,
            ),
        ),
    )


def fig13_scenario() -> Scenario:
    return _metadata_scenario(
        SMALL_CACHE_BYTES,
        "Figure 13",
        "Metadata access overhead (512 KiB-scaled fingerprint cache)",
    )


def fig13_metadata_small_cache(
    jobs: int = 1, cache: str | None = None
) -> FigureResult:
    """Figure 13: metadata access with the insufficient fingerprint cache."""
    return _run_figure(fig13_scenario(), jobs, cache)


def fig14_scenario() -> Scenario:
    return _metadata_scenario(
        LARGE_CACHE_BYTES,
        "Figure 14",
        "Metadata access overhead (4 MiB-scaled fingerprint cache)",
    )


def fig14_metadata_large_cache(
    jobs: int = 1, cache: str | None = None
) -> FigureResult:
    """Figure 14: metadata access with the sufficient fingerprint cache."""
    return _run_figure(fig14_scenario(), jobs, cache)


# Scenario builders by figure number — the declarative source of truth the
# drivers above run; the CLI (`figure all`) and tests introspect this.
FIGURE_SCENARIOS = {
    "1": fig1_scenario,
    "4": fig4_scenario,
    "5": fig5_scenario,
    "6": fig6_scenario,
    "7": fig7_scenario,
    "8": fig8_scenario,
    "9": fig9_scenario,
    "10": fig10_scenario,
    "11": fig11_scenario,
    "13": fig13_scenario,
    "14": fig14_scenario,
}
