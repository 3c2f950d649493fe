"""Tier-1 guard for the benchmark's wrap sites (``bench/layers.py``).

``python3 -m bench`` times the library from outside: ``Tracer.install``
looks every :data:`bench.layers.SITES` entry up as ``vars(owner)[attr]``
and rebinds it. Moving or re-exporting a wrapped name makes that a
``KeyError`` only the ``bench-e2e`` CI job would see; a name that is
still bound but no longer *called through* (captured as a default
argument, imported by value somewhere else) is worse — its layer
silently reads zero. This checks both, without touching ``bench/``.
"""

import importlib

import pytest

from bench.layers import SITES
from repro.attacks import (
    AttackEvaluator,
    backend_count,
    build_attack,
    columnar_attack_report,
)
from repro.datasets.columnar import write_series


def _owner(site):
    """The object ``Tracer.install`` patches for ``site``."""
    module_name, _, class_name = site.owner.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@pytest.mark.parametrize(
    "site", SITES, ids=[f"{site.owner}.{site.attr}" for site in SITES]
)
def test_site_resolves_as_install_resolves_it(site):
    # vars(), not getattr: an inherited method or a re-export that lives
    # in another namespace is not where install would rebind it.
    assert callable(vars(_owner(site))[site.attr])


def test_attack_sites_are_called_through(
    monkeypatch, tmp_path, count_mode, tiny_encrypted_mle, tiny_fsl_series
):
    calls = {}
    for site in SITES:
        if not site.name.startswith("attacks."):
            continue
        owner, key = _owner(site), f"{site.owner}.{site.attr}"
        calls[key] = 0

        def counting(*args, _key=key, _original=vars(owner)[site.attr], **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, site.attr, counting)

    # One evaluator run per attack in RAM (interned_count; with numpy, the
    # id steps) and one over backend-resident tables (the dict steps, whose
    # every analysis is a freq_analysis / sized_freq_analysis) ...
    evaluator = AttackEvaluator(tiny_encrypted_mle)
    for attack in ("locality", "advanced"):
        evaluator.run(build_attack(attack), -2, -1)
        evaluator.run(
            build_attack(attack), -2, -1,
            count=backend_count(tmp_path / attack, "memory"),
        )
    # ... and one columnar report.
    with write_series(tiny_fsl_series, tmp_path / "trace") as trace:
        columnar_attack_report(trace, "locality")

    # A seeding analysis plus two per BFS iteration: many, not counted.
    assert calls.pop("repro.attacks.locality.freq_analysis") > 100
    assert calls.pop("repro.attacks.advanced.sized_freq_analysis") > 100
    assert calls == {
        "repro.attacks.locality.interned_count": 4,
        "repro.attacks.sharded.sharded_count": 2,
        "repro.attacks.sharded.encrypt_vocabulary": 1,
        "repro.attacks.locality:LocalityAttack.run_counted": 5,
        "repro.attacks.evaluation:AttackEvaluator.run": 4,
    }
