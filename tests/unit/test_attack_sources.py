"""One way to run and score an attack: every source, one report.

:func:`repro.attacks.evaluation.evaluate` is the only place an attack is
run and scored; the in-RAM evaluator, the columnar report and the partial
view only build its source. One small series through all of them must
therefore give *equal* :class:`~repro.attacks.evaluation.InferenceReport`s
— and at the CLI, one line: ``attack --columnar`` over the columnar FSL
trace prints the in-RAM golden, and the same bad input exits the same
clean way whichever source the flags pick.
"""

import pytest

from repro.attacks import AttackEvaluator, build_attack, columnar_attack_report
from repro.cli import main
from repro.cluster import partial_view_report
from repro.datasets.columnar import StreamConfig, synthesize_columnar, write_series

CASES = [
    (attack, rate) for attack in ("locality", "advanced") for rate in (0.0, 0.01)
]


@pytest.fixture(scope="module")
def expected(tiny_encrypted_mle):
    """The in-RAM evaluator's report per (attack, leakage rate)."""
    evaluator = AttackEvaluator(tiny_encrypted_mle)
    reports = {
        (attack, rate): evaluator.run(
            build_attack(attack), -2, -1, leakage_rate=rate
        )
        for attack, rate in CASES
    }
    # The series is one on which the attacks do something.
    assert all(report.correct_pairs > 100 for report in reports.values())
    assert reports["locality", 0.01].leaked_pairs > 0
    assert reports["advanced", 0.0] != reports["locality", 0.0]
    return reports


class TestOneSeriesEverySource:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_columnar_report(self, jobs, tmp_path, count_mode, tiny_fsl_series, expected):
        with write_series(tiny_fsl_series, tmp_path / "trace") as trace:
            for attack, rate in CASES:
                report = columnar_attack_report(
                    trace, attack, leakage_rate=rate, jobs=jobs
                )
                assert report == expected[attack, rate], (attack, rate)

    def test_one_node_partial_view(self, tiny_encrypted_mle, expected):
        auxiliary, target = AttackEvaluator(tiny_encrypted_mle).pair(-2, -1)
        for attack, rate in CASES:
            view = partial_view_report(
                build_attack(attack), target, auxiliary, nodes=1,
                leakage_rate=rate,
            )
            assert view.report == expected[attack, rate], (attack, rate)
            assert view.shard_chunks == len(target.ciphertext)
            assert view.shard_unique_chunks == target.unique_ciphertext_chunks
            assert view.shard_fraction == 1.0


def _golden(name: str) -> str:
    with open(f"tests/data/{name}", encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def fsl_columnar(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("fsl") / "trace")
    assert main(["generate", "fsl", directory, "--columnar"]) == 0
    return directory


class TestColumnarCLI:
    """The out-of-core source at the CLI: the columnar FSL trace prints
    the in-RAM report byte for byte."""

    def test_prints_the_in_ram_golden(self, fsl_columnar, capsys):
        capsys.readouterr()
        assert main(["attack", "--columnar", fsl_columnar]) == 0
        assert capsys.readouterr().out == _golden("golden_attack_fsl.txt")

    def test_advanced_prints_the_in_ram_report(self, fsl_columnar, capsys):
        capsys.readouterr()
        assert main(["attack", "fsl", "--attack", "advanced"]) == 0
        in_ram = capsys.readouterr().out
        assert in_ram.startswith("advanced [mle] ")
        argv = ["attack", "--columnar", fsl_columnar, "--attack", "advanced"]
        assert main(argv) == 0
        assert capsys.readouterr().out == in_ram

    @pytest.mark.parametrize(
        "flags",
        [
            ["--auxiliary", "0", "--target", "1"],
            ["--leakage-rate", "0.05", "--seed", "7"],
            ["-u", "3", "-v", "8"],
        ],
        ids=["pair", "leakage", "uv"],
    )
    def test_flags_print_the_in_ram_report(self, flags, fsl_columnar, capsys):
        capsys.readouterr()
        assert main(["attack", "fsl"] + flags) == 0
        in_ram = capsys.readouterr().out
        assert in_ram != _golden("golden_attack_fsl.txt")
        assert main(["attack", "--columnar", fsl_columnar] + flags) == 0
        assert capsys.readouterr().out == in_ram

    @pytest.mark.parametrize(
        "flag", [["--workdir", "state"], ["--backend", "sqlite"], ["--shards", "2"]]
    )
    def test_no_count_state_flags(self, flag):
        # COUNT state has one out-of-core home, the columnar trace: the
        # attack command takes no directory or backend to keep it in.
        with pytest.raises(SystemExit) as exit_info:
            main(["attack", "fsl"] + flag)
        assert exit_info.value.code == 2


@pytest.fixture(scope="module")
def columnar_directory(tmp_path_factory):
    directory = tmp_path_factory.mktemp("sources") / "trace"
    synthesize_columnar(directory, StreamConfig(chunks=4_000, backups=2), seed=3)
    return str(directory)


class TestOneSourceOneError:
    @pytest.mark.parametrize(
        "bad_input, message",
        [
            (["--auxiliary", "99"], "backup index 99 out of range"),
            (["--leakage-rate", "1.5"], "leakage_rate must be in [0, 1]"),
            (["-u", "0"], "u, v and w must all be >= 1"),
            (["--target", "99"], "backup index 99 out of range"),
            (["--leakage-rate", "-0.5"], "leakage_rate must be in [0, 1]"),
            (["-w", "0"], "u, v and w must all be >= 1"),
        ],
    )
    @pytest.mark.parametrize("source", ["dataset", "columnar", "nodes"])
    def test_bad_input_exits_with_its_message(
        self, source, bad_input, message, columnar_directory
    ):
        argv = {
            "dataset": ["synthetic"],
            "columnar": ["--columnar", columnar_directory],
            "nodes": ["synthetic", "--nodes", "2"],
        }[source]
        with pytest.raises(SystemExit) as exit_info:
            main(["attack"] + argv + bad_input)
        # A one-line message as the exit code: printed to stderr, status 1,
        # no traceback — the same one from every source.
        assert isinstance(exit_info.value.code, str)
        assert message in exit_info.value.code
        assert "\n" not in exit_info.value.code
