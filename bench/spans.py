"""In-memory span recorder for the traced pass.

A :class:`Tracer` records ``(name, start, end, parent, request)`` spans
from two sources: wrappers it installs around public callables of the
library (:meth:`Tracer.install`, undone by :meth:`Tracer.uninstall`) and
the benchmark's own ``with tracer.span(name)`` blocks around calls into a
layer.  Nothing inside ``src/`` knows about it.

Each thread appends to its own list (the serve workloads drive two client
threads), so recording needs no lock; :meth:`Tracer.collect` merges the
lists and rebases parent indexes.  A span's *self time* is its duration
minus the part covered by its direct children (:func:`aggregate`).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, REQUEST = range(5)


@dataclass(frozen=True)
class Site:
    """One callable to wrap.

    ``owner`` is ``"package.module"`` (a module-level binding — patch the
    *importing* module for by-name imports) or ``"package.module:Class"``.
    ``count`` maps the call's result to an integer amount of work added to
    :attr:`Tracer.work` under the span name; ``request`` maps ``(args,
    kwargs)`` to the request identifier the span and its children carry;
    ``keep`` remembers the distinct ``self`` objects seen, so the layer's
    public counters can be read after the run.
    """

    name: str
    owner: str
    attr: str
    count: Callable | None = None
    request: Callable | None = None
    keep: bool = False


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.work: dict[str, int] = {}
        self.kept: dict[str, list] = {}
        self._local = threading.local()
        self._threads: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack, local.request = [], [-1], None
            self._threads.append(local.spans)
            return local.spans, local.stack

    def set_request(self, request) -> None:
        """Tag the calling thread's following spans with ``request``."""
        self._state()
        self._local.request = request

    @contextlib.contextmanager
    def span(self, name: str):
        spans, stack = self._state()
        index, parent = len(spans), stack[-1]
        spans.append(None)
        stack.append(index)
        started = time.perf_counter()
        try:
            yield
        finally:
            spans[index] = (name, started, time.perf_counter(), parent, self._local.request)
            stack.pop()

    def _wrap(self, site: Site, original):
        name, count = site.name, site.count
        state, local, clock, work = self._state, self._local, time.perf_counter, self.work

        def wrapper(*args, **kwargs):
            try:
                spans, stack = local.spans, local.stack
            except AttributeError:
                spans, stack = state()
            # The slot is reserved at entry (children refer to its index)
            # and filled at exit with one tuple of atoms, which the garbage
            # collector stops tracking.
            index, parent = len(spans), stack[-1]
            spans.append(None)
            stack.append(index)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index] = (name, started, clock(), parent, local.request)
                stack.pop()
            if count is not None:
                work[name] = work.get(name, 0) + count(result)
            return result

        if site.request is None and not site.keep:
            return wrapper
        request, kept = site.request, self.kept.setdefault(name, [])

        def tagging_wrapper(*args, **kwargs):
            state()
            if site.keep and not any(args[0] is seen for seen in kept):
                kept.append(args[0])
            outer = local.request
            if request is not None:
                local.request = request(args, kwargs)
            try:
                return wrapper(*args, **kwargs)
            finally:
                local.request = outer

        return tagging_wrapper

    # -- installing --------------------------------------------------------

    def install(self, sites: list[Site]) -> None:
        for site in sites:
            module_name, _, class_name = site.owner.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = vars(owner)[site.attr]
            setattr(owner, site.attr, self._wrap(site, original))
            self._installed.append((owner, site.attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, sites: list[Site]):
        self.install(sites)
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading -----------------------------------------------------------

    def collect(self) -> list[tuple]:
        """All threads' spans as one list (parents rebased)."""
        merged: list[tuple] = []
        for spans in self._threads:
            base = len(merged)
            for name, start, end, parent, request in spans:
                merged.append(
                    (name, start, end, parent if parent < 0 else parent + base, request)
                )
        return merged


def aggregate(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, ``total_s``, ``self_s`` and ``top_s`` (the
    part of ``total_s`` spent in spans that have no parent)."""
    covered = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            covered[record[PARENT]] += record[END] - record[START]
    table: dict[str, dict[str, float]] = {}
    for record, children in zip(spans, covered):
        duration = record[END] - record[START]
        row = table.setdefault(
            record[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0, "top_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - children
        if record[PARENT] < 0:
            row["top_s"] += duration
    return table


def write_jsonl(path: str, spans: list[tuple], **tags) -> None:
    """Append ``spans`` to ``path``, one JSON object per line.

    ``parent`` is the line's index among the spans of the same
    (``workload``, ``round``, ``iteration``, ``process``) group, or -1.
    """
    with open(path, "a", encoding="utf-8") as handle:
        for index, record in enumerate(spans):
            row = dict(tags)
            row.update(
                index=index,
                name=record[NAME],
                start=record[START],
                end=record[END],
                parent=record[PARENT],
                request=record[REQUEST],
            )
            handle.write(json.dumps(row, sort_keys=True) + "\n")
