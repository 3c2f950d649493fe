"""Canonical bench-scale workloads shared by experiments, examples and the CLI.

One place defines the exact dataset and pipeline configurations every
reproduced figure uses, so EXPERIMENTS.md numbers are regenerable
bit-for-bit. Series and encrypted pipelines are memoised per process —
several figures share the same inputs and generation is not free.

Scaling notes (see DESIGN.md §2): datasets are ~10³× smaller than the
paper's; the defense segmentation and DDFS cache budgets scale with them
(`SegmentationSpec.scaled`, 512 KiB/4 MiB caches standing in for the
paper's 512 MB/4 GB).
"""

from __future__ import annotations

from functools import lru_cache

from repro.common.units import KiB, MiB
from repro.datasets.fsl import FSLConfig, FSLDatasetGenerator
from repro.datasets.model import BackupSeries
from repro.datasets.synthetic import SyntheticConfig, SyntheticDatasetGenerator
from repro.datasets.vm import VMConfig, VMDatasetGenerator
from repro.defenses.pipeline import DefensePipeline, DefenseScheme, EncryptedSeries
from repro.defenses.segmentation import SegmentationSpec

FSL_SEED = 20130122
VM_SEED = 20140901
SYNTHETIC_SEED = 1404

# DDFS cache budgets: the paper's 512 MB (insufficient for all fingerprints)
# and 4 GB (sufficient), scaled to our fingerprint population.
SMALL_CACHE_BYTES = 512 * KiB
LARGE_CACHE_BYTES = 4 * MiB


@lru_cache(maxsize=None)
def fsl_series() -> BackupSeries:
    """The FSL-like workload used by the attack figures."""
    return FSLDatasetGenerator(seed=FSL_SEED).generate()


@lru_cache(maxsize=None)
def vm_series() -> BackupSeries:
    """The VM-like workload (fixed-size chunks, churn window)."""
    return VMDatasetGenerator(seed=VM_SEED).generate()


@lru_cache(maxsize=None)
def synthetic_series() -> BackupSeries:
    """The Lillibridge-style synthetic snapshot chain."""
    return SyntheticDatasetGenerator(seed=SYNTHETIC_SEED).generate()


@lru_cache(maxsize=None)
def storage_fsl_series() -> BackupSeries:
    """FSL variant for the storage/metadata experiments (Figs. 11/13/14).

    Real FSL redundancy is dominated by temporal duplicates of large
    objects; at reduced scale the attack-calibrated workload over-weights
    small cross-context duplicates, which MinHash encryption re-keys per
    context. This variant shifts the balance back (fewer duplicated small
    files, single-region monthly edits) so the defense's *storage* cost is
    measured on a workload whose redundancy structure matches the paper's.
    """
    config = FSLConfig(
        common_file_probability=0.15,
        template_zipf_exponent=1.1,
        popular_rate=0.02,
        modify_file_fraction=0.20,
        file_churn=0.12,
        modify_max_regions=1,
    )
    return FSLDatasetGenerator(seed=FSL_SEED, config=config).generate()


def scaled_segmentation(series: BackupSeries) -> SegmentationSpec:
    """Bench-scale segmentation for a series (see SegmentationSpec.scaled)."""
    if not series.backups or not series.backups[0].sizes:
        return SegmentationSpec.scaled()
    first = series.backups[0]
    mean_chunk = first.logical_bytes // max(1, len(first))
    return SegmentationSpec.scaled(max(512, mean_chunk))


_SERIES_FACTORIES = {
    "fsl": fsl_series,
    "vm": vm_series,
    "synthetic": synthetic_series,
    "storage-fsl": storage_fsl_series,
}


def series_by_name(name: str) -> BackupSeries:
    """Look up a canonical series by CLI-friendly name."""
    try:
        return _SERIES_FACTORIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; choose from {sorted(_SERIES_FACTORIES)}"
        ) from None


# Backup counts and chunking styles of the canonical series, derivable from
# the generator configs without generating anything.  Scenario expansion
# (repro.scenarios.spec) resolves anchor ranges through these, so a parent
# process can plan a parallel run without paying dataset generation;
# tests/unit/test_workloads_analysis.py pins them to the generated truth.
_SERIES_LENGTHS = {
    "fsl": lambda: FSLConfig().num_backups,
    "vm": lambda: VMConfig().num_backups,
    "synthetic": lambda: SyntheticConfig().num_snapshots + 1,
    "storage-fsl": lambda: FSLConfig().num_backups,
}
_SERIES_CHUNKING = {
    "fsl": "variable",
    "vm": "fixed",
    "synthetic": "variable",
    "storage-fsl": "variable",
}


def series_length(name: str) -> int:
    """Number of backups in a canonical series, without generating it."""
    try:
        return _SERIES_LENGTHS[name]()
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; choose from {sorted(_SERIES_LENGTHS)}"
        ) from None


def series_chunking(name: str) -> str:
    """Chunking style (``"fixed"``/``"variable"``) of a canonical series."""
    try:
        return _SERIES_CHUNKING[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; choose from {sorted(_SERIES_CHUNKING)}"
        ) from None


@lru_cache(maxsize=None)
def encrypted_series(
    dataset: str, scheme: DefenseScheme | str = DefenseScheme.MLE
) -> EncryptedSeries:
    """Memoised defense-pipeline output for a canonical dataset.

    ``scheme`` takes anything :class:`DefensePipeline` accepts: an enum
    member, a plain name, or a parameterized obfuscation spec like
    ``"obfuscate:4"`` (``DefenseScheme`` is a str-enum, so enum and
    plain-name spellings share one cache entry).
    """
    series = series_by_name(dataset)
    pipeline = DefensePipeline(
        scheme, segmentation=scaled_segmentation(series), seed=7
    )
    return pipeline.encrypt_series(series)
