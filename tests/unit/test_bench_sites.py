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
from repro.attacks import AttackEvaluator, build_attack, columnar_attack_report
from repro.chunking import ChunkerSpec, GearChunker
from repro.common import accel
from repro.crypto.mle import ConvergentEncryption
from repro.datasets.columnar import write_series
from repro.datasets.filesystem import deterministic_bytes
from repro.datasets.model import Backup
from repro.service.frontend import FrontendServer, build_frontend
from repro.service.loadgen import FrontendClient
from repro.service.simulate import ServiceConfig
from repro.storage.system import EncryptedDedupSystem


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


def _count_calls(monkeypatch, wanted):
    """Rebind every site ``wanted`` accepts, as ``Tracer.install`` would,
    to a wrapper that counts; returns the live ``owner.attr -> calls`` map."""
    calls = {}
    for site in SITES:
        if not wanted(site):
            continue
        owner, key = _owner(site), f"{site.owner}.{site.attr}"
        calls[key] = 0

        def counting(*args, _key=key, _original=vars(owner)[site.attr], **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, site.attr, counting)
    return calls


def test_attack_sites_are_called_through(
    monkeypatch, tmp_path, count_mode, tiny_encrypted_mle, tiny_fsl_series
):
    calls = _count_calls(monkeypatch, lambda site: site.name.startswith("attacks."))

    # One evaluator run per attack in RAM (interned_count; with numpy, the
    # id steps) and one columnar report in this count mode ...
    evaluator = AttackEvaluator(tiny_encrypted_mle)
    for attack in ("locality", "advanced"):
        evaluator.run(build_attack(attack), -2, -1)
    with write_series(tiny_fsl_series, tmp_path / "trace") as trace:
        columnar_attack_report(trace, "locality")
    # ... and one evaluator run per attack in the fallback mode, whose dict
    # steps make every analysis a freq_analysis / sized_freq_analysis.
    monkeypatch.setattr(accel, "numpy", None)
    for attack in ("locality", "advanced"):
        evaluator.run(build_attack(attack), -2, -1)

    # A seeding analysis plus two per BFS iteration: many, not counted.
    assert calls.pop("repro.attacks.locality.freq_analysis") > 100
    assert calls.pop("repro.attacks.advanced.sized_freq_analysis") > 100
    assert calls == {
        "repro.attacks.locality.interned_count": 8,
        "repro.attacks.sharded.sharded_count": 2,
        "repro.attacks.sharded.encrypt_vocabulary": 1,
        "repro.attacks.locality:LocalityAttack.run_counted": 5,
        "repro.attacks.evaluation:AttackEvaluator.run": 4,
    }


def test_content_sites_are_called_through(monkeypatch):
    # A cipher that called hashlib itself, or imported prf_stream by value
    # somewhere new, would leave crypto.prf_s reading zero with every test
    # of the bytes still green.
    calls = _count_calls(
        monkeypatch,
        lambda site: site.name.startswith(("chunking.", "crypto."))
        or site.name
        in ("storage.put", "storage.get", "storage.flush", "storage.read_chunk"),
    )

    system = EncryptedDedupSystem(
        ConvergentEncryption(),
        GearChunker(ChunkerSpec(min_size=512, avg_size=2048, max_size=8192)),
    )
    data = deterministic_bytes(20, "sites", 200_000)
    stored = system.put_file("f.bin", data)
    system.flush()
    assert system.get_file(stored) == data

    chunks = len(stored.recipe)
    assert chunks > 50
    assert calls == {
        "repro.chunking.base:Chunker.split": 1,
        "repro.chunking.gear:GearChunker.cut_points": 1,
        "repro.crypto.mle:ConvergentEncryption.derive_key": chunks,
        "repro.crypto.cipher:BlockCipher.encrypt": chunks,
        "repro.crypto.cipher:BlockCipher.decrypt": chunks,
        # One keystream per encrypt and one per decrypt.
        "repro.crypto.cipher.prf_stream": 2 * chunks,
        # The tag is taken on upload and verified on restore.
        "repro.chunking.fingerprint:Fingerprinter.__call__": 2 * chunks,
        "repro.storage.system:EncryptedDedupSystem.put_file": 1,
        "repro.storage.system:EncryptedDedupSystem.flush": 1,
        "repro.storage.system:EncryptedDedupSystem.get_file": 1,
        "repro.storage.container:Container.read_chunk": chunks,
    }


def test_serve_sites_are_called_through(monkeypatch, tmp_path):
    # A connection class that bound ``encode_frame = wire.encode_frame`` at
    # import for speed would leave protocol.encode_s reading zero and its
    # time in frontend.other_s, with every test of the bytes still green.
    calls = _count_calls(
        monkeypatch,
        lambda site: site.name.startswith(("protocol.", "service.", "client.")),
    )

    frontend = build_frontend(ServiceConfig(tenants=2, rounds=1, seed=1))
    backup = Backup(
        label="b",
        fingerprints=[b"site-%03d" % i for i in range(6)],
        sizes=[512] * 6,
    )
    try:
        with FrontendServer(frontend, ("unix", str(tmp_path / "s.sock"))) as address:
            with FrontendClient(address) as client:
                client.hello("sites")
                assert client.upload(0, 0, "b", backup)[1]["total_chunks"] == 6
                assert client.restore(0, "b")[1]["total_chunks"] == 6
                assert client.stats()["uploads"] == 1
    finally:
        frontend.service.close()

    # hello, upload, restore, stats and the polite close: five round trips,
    # each encoded and decoded at both ends (which share the module).
    assert calls == {
        "repro.service.protocol.encode_frame": 10,
        "repro.service.protocol.decode_body": 10,
        "repro.service.protocol.parse_upload": 1,
        "repro.service.server:DedupService.upload": 1,
        "repro.service.server:DedupService.restore": 1,
        "repro.service.meter:SideChannelMeter.observe_upload": 1,
        "repro.service.meter:SideChannelMeter.observe_restore": 1,
        "repro.service.loadgen:FrontendClient.request": 5,
        "repro.service.loadgen:FrontendClient.close": 1,
    }
