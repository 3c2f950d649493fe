"""Shared metadata envelope and memory probes for measured reports.

``python3 -m bench`` results and ``freqdedup frontier`` reports carry the
same ``env`` envelope, so numbers recorded on different hosts and commits
stay machine-comparable: schema version, source revision, interpreter/numpy
versions, CPU count and a generation timestamp. The RSS helpers exist
because the trace-scale COUNT story is memory-bound, not just time-bound:
``peak_rss_bytes`` reads the process high-water mark, and ``run_isolated``
runs one bench phase in a forked child so its peak RSS is attributable to
that phase alone (a parent-process ``ru_maxrss`` only ever grows, so
phases measured in-process would shadow each other).
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from typing import Any, Callable

from repro.common import accel
from repro.version import __version__

__all__ = [
    "ENVELOPE_SCHEMA",
    "git_revision",
    "metadata_envelope",
    "peak_rss_bytes",
    "run_isolated",
]

#: Bump when the envelope layout changes shape (not when values change).
#: Schema 2 adds source provenance: ``git_commit`` / ``git_dirty``.
ENVELOPE_SCHEMA = 2


def git_revision() -> tuple[str | None, bool | None]:
    """``(commit hash, worktree dirty?)`` of the repo the code runs from.

    Both come back ``None`` outside a git checkout (tarball installs,
    containers without git) — baselines must still be writable there.
    """
    root = os.path.dirname(os.path.abspath(__file__))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return (commit or None), bool(status.strip())


def metadata_envelope() -> dict[str, Any]:
    """The shared ``env`` block a benchmark result or frontier report embeds."""
    commit, dirty = git_revision()
    return {
        "schema": ENVELOPE_SCHEMA,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "repro_version": __version__,
        "python": platform.python_version(),
        "numpy": None if accel.numpy is None else accel.numpy.__version__,
        "platform": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def peak_rss_bytes() -> int | None:
    """This process' peak resident set size in bytes (``None`` if the
    platform exposes no ``getrusage``)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS reports bytes.
    return peak if sys.platform == "darwin" else peak * 1024


def _isolated_entry(connection, function, args, kwargs) -> None:
    try:
        value = function(*args, **kwargs)
        connection.send(("ok", value, peak_rss_bytes()))
    except BaseException as exc:  # noqa: BLE001 - re-raised in the parent
        connection.send(("error", repr(exc), peak_rss_bytes()))
    finally:
        connection.close()


def run_isolated(
    function: Callable[..., Any], *args: Any, **kwargs: Any
) -> tuple[Any, int | None]:
    """Run ``function(*args, **kwargs)`` in a forked child and return
    ``(result, child_peak_rss_bytes)``.

    The child inherits the parent's state (fork start method), so closures
    over already-built workloads work; only the *return value* travels
    back over a pipe and must be picklable. Falls back to running inline
    (with the parent's cumulative RSS) where fork is unavailable.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return function(*args, **kwargs), peak_rss_bytes()
    context = multiprocessing.get_context("fork")
    ours, theirs = context.Pipe(duplex=False)
    child = context.Process(
        target=_isolated_entry, args=(theirs, function, args, kwargs)
    )
    child.start()
    theirs.close()
    try:
        status, payload, rss = ours.recv()
    except EOFError:
        child.join()
        raise RuntimeError(
            f"isolated bench phase died with exit code {child.exitcode}"
        ) from None
    finally:
        ours.close()
    child.join()
    if status == "error":
        raise RuntimeError(f"isolated bench phase failed: {payload}")
    return payload, rss
