"""Golden byte-identity for the defended schemes, pre- and post-PR.

The tunable-defense PR touched the pipeline dispatch, the service upload
path and the report assembly; these goldens (generated with the
*unmodified* pre-PR code) pin the existing schemes' outputs to the byte.
Any drift here means a change leaked outside the new ``obfuscate``/
shaping code paths.
"""

import json

from repro.cli import main

GOLDEN_DIR = "tests/data"
DEFENDED_SCHEMES = ("minhash", "scramble", "combined")


def _golden(name: str) -> str:
    with open(f"{GOLDEN_DIR}/{name}", encoding="utf-8") as handle:
        return handle.read()


class TestDefendedSchemeGoldens:
    def test_attack_reports_match_goldens(self, capsys):
        for scheme in DEFENDED_SCHEMES:
            assert main(
                ["attack", "fsl", "--attack", "locality",
                 "--scheme", scheme]
            ) == 0
            out = capsys.readouterr().out
            assert out == _golden(f"golden_attack_{scheme}.txt"), scheme

    def test_serve_sim_reports_match_goldens(self, tmp_path, capsys):
        for scheme in DEFENDED_SCHEMES:
            report = tmp_path / f"{scheme}.json"
            assert main(
                ["serve-sim", "--tenants", "6", "--requests", "12",
                 "--seed", "7", "--scheme", scheme, "--json", str(report)]
            ) == 0
            capsys.readouterr()
            assert report.read_text() == _golden(
                f"golden_serve_sim_{scheme}.json"
            ), scheme

    def test_honest_shaping_flag_is_byte_invisible(self, tmp_path, capsys):
        # --shaping honest must be indistinguishable from not passing
        # the flag at all (the pre-PR protocol).
        report = tmp_path / "honest.json"
        assert main(
            ["serve-sim", "--tenants", "6", "--requests", "12",
             "--seed", "7", "--shaping", "honest", "--json", str(report)]
        ) == 0
        capsys.readouterr()
        assert report.read_text() == _golden("golden_serve_sim.json")


class TestFrontierDeterminism:
    def test_frontier_smoke_is_deterministic_and_monotone(
        self, tmp_path, capsys
    ):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        args = ["frontier", "--smoke", "--output"]
        # Row-exact against the committed smoke report, then against a
        # second run of itself.
        golden = f"{GOLDEN_DIR}/golden_frontier_smoke.json"
        assert main(args + [str(first), "--compare", golden]) == 0
        capsys.readouterr()
        assert main(args + [str(second), "--compare", str(first)]) == 0
        capsys.readouterr()
        report = json.loads(first.read_text())
        for section in ("storage", "bandwidth"):
            assert report["monotonicity"][section], section
            for entry in report["monotonicity"][section]:
                assert entry["non_increasing"], entry
        # Cost columns come from the obs metrics layer, never empty.
        assert all(row["stored_bytes"] for row in report["storage"])
        assert all(row["honest_bytes"] for row in report["bandwidth"])

    def test_frontier_compare_detects_drift(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        args = [
            "frontier", "--datasets", "fsl", "--schemes", "obfuscate:2",
            "--attacks", "basic", "--policies", "honest",
            "--output", str(baseline),
        ]
        assert main(args) == 0
        capsys.readouterr()
        doctored = json.loads(baseline.read_text())
        doctored["storage"][0]["inference_rate"] += 1.0
        drifted = tmp_path / "drifted.json"
        drifted.write_text(json.dumps(doctored))
        assert main(args[:-2] + ["--compare", str(drifted)]) == 1
        assert "drift" in capsys.readouterr().err
