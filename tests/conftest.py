"""Shared fixtures: small, fast workloads for unit/integration tests.

The bench-scale canonical workloads live in ``repro.analysis.workloads``;
tests use miniature variants so the whole suite stays fast.
"""

from __future__ import annotations

import pytest

from repro.common import accel
from repro.datasets.fsl import FSLConfig, FSLDatasetGenerator

# tests/experiments/ (the paper's figures at canonical scale, ~35 s) stays
# out of a run unless a command-line argument names it: pytest applies
# ``collect_ignore`` only to paths it reaches by walking, never to ones
# it was given.
collect_ignore = ["experiments"]


# Longest call phase any single tier-1 test may take under
# ``--duration-budget`` (CI's tier-1 step). The slowest test of a full
# run takes 2.8-4.1 s depending on the host; 8 s leaves a slow runner 2x
# headroom and still fails a test that rebuilds a fixture per key (the
# one such case measured took 21 s).
CALL_BUDGET_S = 8.0


def pytest_addoption(parser):
    parser.addoption(
        "--duration-budget",
        action="store_true",
        help=f"fail any test whose call phase exceeds {CALL_BUDGET_S:g} s",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if (
        report.when == "call"
        and report.passed
        and report.duration > CALL_BUDGET_S
        and item.config.getoption("--duration-budget")
    ):
        report.outcome = "failed"
        report.longrepr = (
            f"{item.nodeid} took {report.duration:.1f} s; the tier-1 budget "
            f"is {CALL_BUDGET_S:g} s per test (tests/conftest.py)"
        )


def pytest_configure(config):
    # No pytest.ini/pyproject table exists, so markers register here.
    config.addinivalue_line(
        "markers", "integration: end-to-end pipeline tests"
    )
    config.addinivalue_line(
        "markers",
        "frontend: socket-frontend tests (CI runs them as a separate "
        "timeout-bounded job via `pytest -m frontend`)",
    )

from repro.datasets.model import Backup, BackupSeries
from repro.datasets.synthetic import SyntheticConfig, SyntheticDatasetGenerator
from repro.datasets.vm import VMConfig, VMDatasetGenerator
from repro.defenses.pipeline import DefensePipeline, DefenseScheme
from repro.defenses.segmentation import SegmentationSpec


@pytest.fixture(params=["accelerated", "fallback"])
def count_mode(request, monkeypatch):
    """Run a COUNT differential under both accel modes."""
    if request.param == "fallback":
        monkeypatch.setattr(accel, "numpy", None)
    elif accel.numpy is None:
        pytest.skip("numpy unavailable; accelerated path cannot run")
    return request.param


@pytest.fixture(scope="session")
def tiny_fsl_series() -> BackupSeries:
    # Scaled so the u=1 locality-attack seed reliably lands (the attack is
    # all-or-nothing below a few thousand chunks per backup).
    config = FSLConfig(
        num_users=4,
        num_backups=4,
        files_per_user=60,
        mean_file_chunks=24,
        num_templates=40,
        popular_pool_size=80,
    )
    return FSLDatasetGenerator(seed=11, config=config).generate()


@pytest.fixture(scope="session")
def tiny_vm_series() -> BackupSeries:
    config = VMConfig(
        num_vms=4,
        num_backups=6,
        base_image_chunks=400,
        user_region_chunks=150,
        heavy_weeks=(2, 3),
        quiet_weeks=(0,),
        popular_pool_size=20,
    )
    return VMDatasetGenerator(seed=13, config=config).generate()


@pytest.fixture(scope="session")
def tiny_synthetic_series() -> BackupSeries:
    config = SyntheticConfig(
        num_files=60,
        mean_file_chunks=16,
        num_snapshots=4,
        num_templates=12,
        popular_pool_size=20,
    )
    return SyntheticDatasetGenerator(seed=17, config=config).generate()


@pytest.fixture(scope="session")
def tiny_segmentation() -> SegmentationSpec:
    """Segments of roughly 8-32 chunks for the tiny workloads."""
    return SegmentationSpec.scaled(8192)


@pytest.fixture(scope="session")
def tiny_encrypted_mle(tiny_fsl_series, tiny_segmentation):
    return DefensePipeline(
        DefenseScheme.MLE, segmentation=tiny_segmentation, seed=5
    ).encrypt_series(tiny_fsl_series)


@pytest.fixture(scope="session")
def tiny_encrypted_combined(tiny_fsl_series, tiny_segmentation):
    return DefensePipeline(
        DefenseScheme.COMBINED, segmentation=tiny_segmentation, seed=5
    ).encrypt_series(tiny_fsl_series)


def make_backup(label: str, tokens: list[str], size: int = 4096) -> Backup:
    """Build a backup whose fingerprints are readable ASCII tokens."""
    return Backup(
        label=label,
        fingerprints=[token.encode() for token in tokens],
        sizes=[size] * len(tokens),
    )


@pytest.fixture()
def backup_factory():
    return make_backup
