"""The paper's experiments at canonical scale, as plain pytest.

Each test re-runs one evaluation figure of the paper (or one ablation,
or the cluster extension's partial-view sweep) on the bench-scale
workloads of ``repro.analysis.workloads`` and asserts the figure's
qualitative shape — thresholds from the DSN'17 paper and its journal
version (arXiv 1904.05736).  The whole directory takes about half a
minute on two cores, so tier-1 leaves it out: ``tests/conftest.py``
collects it only when the command line names it::

    PYTHONPATH=src python -m pytest -q --duration-budget tests/experiments
"""

from __future__ import annotations

import pytest

from repro.analysis.reporting import save_result


@pytest.fixture
def run_figure(tmp_path):
    """Run an experiment driver once and write its series under the
    test's ``tmp_path``, where pytest keeps the last few runs — a failed
    shape assertion can be read against the table that failed it."""

    def run(driver, **kwargs):
        result = driver(**kwargs)
        save_result(result, tmp_path)
        return result

    return run
