"""Docs tooling: the generated CLI reference and the docs link checker.

Two small, dependency-free maintenance tools behind the ``docs`` CI job:

* :func:`cli_markdown` renders ``docs/cli.md`` from the live argparse
  tree — the top-level ``freqdedup --help`` plus every subcommand's full
  help text.  Because it reads the same parser the CLI runs, the
  reference cannot drift from the code silently: the CI guard
  (``python -m repro.analysis.docs --check docs/cli.md``) regenerates it
  and fails on any difference.
* :func:`check_links` scans Markdown files for relative links and
  reports targets that do not exist — the docs suite is cross-linked
  (README ↔ ``docs/*.md``), and a rename must not leave dangling links.
  It also imports every backticked ``repro.<dotted>`` name, so a deleted
  or moved module, class or function cannot stay named in the prose.

Help text is rendered at a pinned 80-column width, so output is
byte-stable regardless of the invoking terminal.  Argparse formatting
details can shift between interpreter minors, so the staleness guard is
pinned to one Python version (:data:`PINNED_PYTHON`) — the version the
docs CI job runs, and the one the committed ``docs/cli.md`` was
generated with.

Usage::

    python -m repro.analysis.docs --write docs/cli.md   # regenerate
    python -m repro.analysis.docs --check docs/cli.md   # staleness guard
    python -m repro.analysis.docs --links README.md docs
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import sys
from pathlib import Path

# The interpreter minor the committed docs/cli.md is rendered with (and
# the docs CI job runs).  Regenerate under this version.
PINNED_PYTHON = (3, 11)

# Argparse reads the terminal width at format time; pin it so the
# generated file is byte-stable everywhere (CI runners, dev laptops).
_COLUMNS = "80"

_HEADER = """\
# CLI reference

Every `freqdedup` (`python -m repro`) subcommand and flag, generated
from the live argparse tree — do not edit by hand.  Regenerate with:

```console
$ PYTHONPATH=src python -m repro.analysis.docs --write docs/cli.md
```

The docs CI job fails if this file is stale
(`python -m repro.analysis.docs --check docs/cli.md`).
"""


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Name → subparser for every registered subcommand."""
    for action in parser._actions:  # noqa: SLF001 - argparse has no public API
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def cli_markdown() -> str:
    """Render the full CLI reference as Markdown (deterministic)."""
    from repro.cli import _build_parser

    previous = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = _COLUMNS
    try:
        parser = _build_parser()
        sections = [_HEADER]
        sections.append(
            "## freqdedup\n\n```text\n" + parser.format_help() + "```\n"
        )
        for name, subparser in _subcommands(parser).items():
            sections.append(
                f"## freqdedup {name}\n\n```text\n"
                + subparser.format_help()
                + "```\n"
            )
        return "\n".join(sections)
    finally:
        if previous is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = previous


def write_cli_doc(path: str | os.PathLike) -> None:
    """Write the generated reference to ``path``."""
    Path(path).write_text(cli_markdown(), encoding="utf-8")


def check_cli_doc(path: str | os.PathLike) -> list[str]:
    """Staleness problems with the committed reference (empty = fresh)."""
    target = Path(path)
    if not target.exists():
        return [f"{target}: missing — generate it with --write"]
    expected = cli_markdown()
    actual = target.read_text(encoding="utf-8")
    if actual != expected:
        return [
            f"{target}: stale vs the live parser — regenerate with "
            f"`python -m repro.analysis.docs --write {target}`"
        ]
    return []


_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
# A backticked dotted name, bare or called: `repro.x.y` or `repro.x.f(...)`.
_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)[`(]")


def _resolves(name: str) -> bool:
    """Whether ``name`` imports: its longest importable module prefix,
    then ``getattr`` for each remaining part."""
    parts = name.split(".")
    for stop in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:stop]))
        except ImportError:
            continue
        for part in parts[stop:]:
            if not hasattr(target, part):
                return False
            target = getattr(target, part)
        return True
    return False


def _markdown_files(paths: list[str | os.PathLike]) -> list[Path]:
    files: list[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        else:
            files.append(path)
    return files


def check_links(paths: list[str | os.PathLike]) -> list[str]:
    """Dangling relative links and unresolved ``repro.*`` names in the
    given Markdown files/directories.

    External (``http(s)://``, ``mailto:``) and pure-anchor (``#…``)
    links are skipped; relative targets are resolved against the linking
    file and must exist (a trailing ``#anchor`` is stripped first).
    Every backticked ``repro.<dotted>`` name must import (see
    :func:`_resolves`).

    Returns:
        One ``file: broken link -> target`` or ``file: unresolved name ->
        name`` line per problem (empty list = everything resolves).
    """
    problems: list[str] = []
    for source in _markdown_files(paths):
        if not source.exists():
            problems.append(f"{source}: file not found")
            continue
        text = source.read_text(encoding="utf-8")
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (source.parent / relative).resolve()
            if not resolved.exists():
                problems.append(f"{source}: broken link -> {target}")
        for match in _NAME.finditer(text):
            if not _resolves(match.group(1)):
                problems.append(f"{source}: unresolved name -> {match.group(1)}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.docs",
        description="Generate/check docs/cli.md and check docs links.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--write", metavar="FILE", help="write the generated CLI reference"
    )
    group.add_argument(
        "--check",
        metavar="FILE",
        help="fail (exit 1) if the committed CLI reference is stale",
    )
    group.add_argument(
        "--links",
        nargs="+",
        metavar="PATH",
        help=(
            "check relative links and backticked repro.* names in "
            "Markdown files/directories"
        ),
    )
    args = parser.parse_args(argv)

    if args.write:
        write_cli_doc(args.write)
        print(f"wrote -> {args.write}")
        return 0
    if args.check:
        if sys.version_info[:2] != PINNED_PYTHON:
            print(
                f"skipping staleness check: argparse formatting is pinned "
                f"to Python {PINNED_PYTHON[0]}.{PINNED_PYTHON[1]} "
                f"(running {sys.version_info[0]}.{sys.version_info[1]})"
            )
            return 0
        problems = check_cli_doc(args.check)
    else:
        problems = check_links(args.links)
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
