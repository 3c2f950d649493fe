"""Tests for the docs suite tooling (generated CLI reference + links)."""

import sys
from pathlib import Path

from repro.analysis.docs import (
    PINNED_PYTHON,
    check_cli_doc,
    check_links,
    cli_markdown,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS = REPO_ROOT / "docs"


def cli_subcommands() -> list[str]:
    from repro.analysis.docs import _subcommands
    from repro.cli import _build_parser

    return sorted(_subcommands(_build_parser()))


class TestCliReference:
    def test_every_subcommand_documented(self):
        # Acceptance: every CLI subcommand appears in docs/cli.md.
        text = (DOCS / "cli.md").read_text(encoding="utf-8")
        names = cli_subcommands()
        assert names  # the parser has subcommands at all
        for name in names:
            assert f"## freqdedup {name}" in text, name

    def test_cluster_flags_documented(self):
        text = (DOCS / "cli.md").read_text(encoding="utf-8")
        for flag in ("--nodes", "--routing", "--compromised-node"):
            assert flag in text, flag

    def test_generation_is_deterministic(self):
        assert cli_markdown() == cli_markdown()

    def test_committed_reference_is_fresh(self):
        # argparse help formatting can differ between interpreter
        # minors; the guard (here and in the docs CI job) is pinned.
        if sys.version_info[:2] != PINNED_PYTHON:
            import pytest

            pytest.skip(
                f"cli.md staleness is pinned to Python "
                f"{PINNED_PYTHON[0]}.{PINNED_PYTHON[1]}"
            )
        assert check_cli_doc(DOCS / "cli.md") == []

    def test_stale_file_detected(self, tmp_path):
        stale = tmp_path / "cli.md"
        stale.write_text("# old\n", encoding="utf-8")
        problems = check_cli_doc(stale)
        assert problems and "stale" in problems[0]
        assert check_cli_doc(tmp_path / "missing.md")


class TestLinkChecker:
    def test_repo_docs_have_no_dangling_links(self):
        assert check_links([REPO_ROOT / "README.md", DOCS]) == []

    def test_broken_link_reported(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "[ok](other.md) and [bad](missing/nope.md)", encoding="utf-8"
        )
        (tmp_path / "other.md").write_text("x", encoding="utf-8")
        problems = check_links([tmp_path])
        assert len(problems) == 1
        assert "missing/nope.md" in problems[0]

    def test_external_and_anchor_links_skipped(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "[a](https://example.com) [b](#section) [c](mailto:x@y.z)",
            encoding="utf-8",
        )
        assert check_links([page]) == []

    def test_unresolved_repro_name_reported(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "`repro.attacks.evaluation.evaluate` and `repro.attacks.nowhere.run`",
            encoding="utf-8",
        )
        assert check_links([page]) == [
            f"{page}: unresolved name -> repro.attacks.nowhere.run"
        ]

    def test_modules_attributes_and_calls_resolve(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "`repro.attacks`, `repro.attacks.evaluation.InferenceReport`, "
            "`repro.attacks.evaluation.AttackEvaluator.run` and "
            "`repro.attacks.evaluation.evaluate(attack, source)`",
            encoding="utf-8",
        )
        assert check_links([page]) == []

    def test_missing_attribute_of_a_real_module_reported(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "`repro.attacks.evaluation.Count` and "
            "`repro.attacks.evaluation.AttackEvaluator.nothing(x)`",
            encoding="utf-8",
        )
        assert check_links([page]) == [
            f"{page}: unresolved name -> repro.attacks.evaluation.Count",
            f"{page}: unresolved name -> "
            "repro.attacks.evaluation.AttackEvaluator.nothing",
        ]

    def test_only_backticked_repro_names_are_checked(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "repro.attacks.gone in prose, `numpy.nowhere`, `reproducer.x`",
            encoding="utf-8",
        )
        assert check_links([page]) == []

    def test_anchored_relative_link_resolves_to_file(self, tmp_path):
        page = tmp_path / "page.md"
        (tmp_path / "other.md").write_text("x", encoding="utf-8")
        page.write_text("[a](other.md#some-section)", encoding="utf-8")
        assert check_links([page]) == []
