"""Declarative experiment grids: ``ScenarioSpec`` → atomic ``Cell``s.

The paper's evaluation is a grid — dataset × defense scheme × attack ×
(u, v, w) × auxiliary/target anchor × leakage rate.  A
:class:`ScenarioSpec` declares one such grid; :meth:`ScenarioSpec.expand`
deterministically flattens it into atomic :class:`Cell`s, the unit of
execution, caching and parallelism for :class:`repro.scenarios.runner.Runner`.

Expansion nests the axes in one canonical order —

    datasets → schemes → attacks → params → anchor pairs → leakage rates

— which reproduces the row order of every figure driver in
:mod:`repro.analysis.figures` (pinned by ``TestScenarioSpecExpansion``
in ``tests/unit/test_scenarios.py``).  Figures that interleave axes
differently (e.g. Figure 4's per-parameter sweeps) concatenate several
specs instead.

Everything here is a frozen dataclass of primitives and tuples: hashable,
picklable (cells cross process boundaries), and JSON-canonicalizable (cells
are content-hashed into cache keys).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.common.errors import ConfigurationError
from repro.datasets.model import resolve_index

# Cell kinds understood by repro.scenarios.cells.
ATTACK = "attack"
FREQUENCY = "frequency"
STORAGE_SAVING = "storage_saving"
METADATA = "metadata"

# Anchor modes.
PAIR = "pair"
VARY_AUXILIARY = "vary_auxiliary"
VARY_TARGET = "vary_target"
SLIDING = "sliding"

Tags = tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class AttackParams:
    """The locality-attack knobs (u, v, w) of §4."""

    u: int = 1
    v: int = 15
    w: int = 200_000


@dataclass(frozen=True)
class Anchor:
    """How a spec picks (auxiliary, target) backup pairs from a series.

    Modes:

    * ``pair`` — the single ``(auxiliary, target)`` pair; negative indices
      count from the end of the series (the default is the paper's
      "previous backup attacks latest").
    * ``vary_auxiliary`` — fix ``target``, sweep the auxiliary over
      ``range(target)``, capped at ``max_auxiliary`` when set (Figs. 5
      and 9; Fig. 9's synthetic sweep pins the cap at 5).
    * ``vary_target`` — fix ``auxiliary``, sweep the target over every
      later backup: Fig. 6.
    * ``sliding`` — for each shift ``s`` in ``shifts``, pair every backup
      ``t`` with ``t + s``; each pair is tagged ``("s", s)``: Fig. 7.
    """

    mode: str = PAIR
    auxiliary: int = -2
    target: int = -1
    max_auxiliary: int | None = None
    shifts: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if self.mode not in (PAIR, VARY_AUXILIARY, VARY_TARGET, SLIDING):
            raise ConfigurationError(f"unknown anchor mode {self.mode!r}")

    def resolve(self, length: int) -> list[tuple[int, int, Tags]]:
        """Expand to concrete ``(auxiliary, target, extra_tags)`` triples.

        Args:
            length: the backup series' length, used to resolve negative
                indices and to bound the sweeps.

        Returns:
            One triple per anchor pair, in sweep order; ``extra_tags``
            carries per-pair row labels (only the ``sliding`` mode emits
            any — its shift ``s``).

        Raises:
            ConfigurationError: an index falls outside the series, or a
                sliding shift is not positive.
        """
        if self.mode == PAIR:
            return [
                (
                    resolve_index(self.auxiliary, length),
                    resolve_index(self.target, length),
                    (),
                )
            ]
        if self.mode == VARY_AUXILIARY:
            target = resolve_index(self.target, length)
            stop = target if self.max_auxiliary is None else min(
                target, self.max_auxiliary
            )
            return [(aux, target, ()) for aux in range(stop)]
        if self.mode == VARY_TARGET:
            auxiliary = resolve_index(self.auxiliary, length)
            return [
                (auxiliary, target, ())
                for target in range(auxiliary + 1, length)
            ]
        # SLIDING
        triples: list[tuple[int, int, Tags]] = []
        for shift in self.shifts:
            if shift <= 0:
                raise ConfigurationError("sliding shifts must be positive")
            for aux in range(length - shift):
                triples.append((aux, aux + shift, (("s", shift),)))
        return triples


@dataclass(frozen=True)
class Cell:
    """One atomic experiment: the unit of execution, caching and fan-out.

    ``params`` fully determine the computation (they feed the cache key);
    ``tags`` are constant row labels merged into the output at assembly
    time and deliberately excluded from the key, so identical computations
    reached from different specs share one cache entry.
    """

    kind: str
    params: Tags
    tags: Tags = ()

    def param(self, name: str) -> object:
        """Look up one parameter by name.

        Args:
            name: the parameter key.

        Returns:
            The parameter's value.

        Raises:
            KeyError: the cell has no parameter of that name.
        """
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


def _as_tags(mapping: Mapping[str, object]) -> Tags:
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative experiment grid.

    The attack axes (``attacks``, ``params``, ``anchor``,
    ``leakage_rates``) only apply to ``kind="attack"`` specs; the workload
    axes (``datasets``, ``schemes``) apply to every kind.  ``extra`` params
    are merged into every cell (e.g. the DDFS cache budget for
    ``metadata`` cells).  Per-dataset overrides express the paper's
    irregularities: per-dataset anchors (Figs. 4/8/9/10) and the omission
    of the advanced attack on fixed-size datasets (Figs. 5/6).
    """

    name: str
    kind: str = ATTACK
    datasets: tuple[str, ...] = ("fsl",)
    schemes: tuple[str, ...] = ("mle",)
    attacks: tuple[str, ...] = ("locality",)
    params: tuple[AttackParams, ...] = (AttackParams(),)
    param_tags: tuple[Tags, ...] | None = None
    anchor: Anchor = field(default_factory=Anchor)
    anchors_by_dataset: tuple[tuple[str, Anchor], ...] = ()
    attacks_by_dataset: tuple[tuple[str, tuple[str, ...]], ...] = ()
    leakage_rates: tuple[float, ...] = (0.0,)
    seed: int = 0
    extra: Tags = ()
    tags: Tags = ()

    def __post_init__(self) -> None:
        from repro.scenarios.cells import ensure_cell_kind, known_cell_kinds

        if not ensure_cell_kind(self.kind):
            raise ConfigurationError(
                f"unknown cell kind {self.kind!r}; choose from "
                f"{known_cell_kinds()} (see register_cell_kind)"
            )
        if self.param_tags is not None and len(self.param_tags) != len(self.params):
            raise ConfigurationError(
                "param_tags must align one-to-one with params"
            )

    # -- expansion ----------------------------------------------------------

    def expand(self, lengths: Mapping[str, int] | None = None) -> tuple[Cell, ...]:
        """Flatten the grid into cells, in canonical nesting order.

        Args:
            lengths: dataset name → series length, used to resolve
                anchor indices; when omitted it is looked up from the
                canonical workload registry
                (:func:`repro.analysis.workloads.series_length`, which
                reads generator configs — no dataset is generated).

        Returns:
            The grid's cells in canonical nesting order (see module
            docs) — ready for
            :meth:`repro.scenarios.runner.Runner.run_cells`.
        """
        if self.kind == ATTACK:
            return self._expand_attack(lengths)
        cells: list[Cell] = []
        for dataset in self.datasets:
            if self.kind == FREQUENCY:
                cells.append(self._cell({"dataset": dataset}))
                continue
            for scheme in self.schemes:
                cells.append(self._cell({"dataset": dataset, "scheme": scheme}))
        return tuple(cells)

    def _expand_attack(self, lengths: Mapping[str, int] | None) -> tuple[Cell, ...]:
        anchor_overrides = dict(self.anchors_by_dataset)
        attack_overrides = dict(self.attacks_by_dataset)
        param_tags = self.param_tags or ((),) * len(self.params)
        cells: list[Cell] = []
        for dataset in self.datasets:
            length = self._length(dataset, lengths)
            anchor = anchor_overrides.get(dataset, self.anchor)
            attacks = attack_overrides.get(dataset, self.attacks)
            pairs = anchor.resolve(length)
            for scheme in self.schemes:
                for attack in attacks:
                    for params, ptags in zip(self.params, param_tags):
                        # The basic attack ignores (u, v, w): normalize
                        # them out of the cell params so equivalent cells
                        # share one execution and one cache entry.  The
                        # requested values stay as row tags.
                        if attack == "basic":
                            effective = AttackParams(u=0, v=0, w=0)
                        else:
                            effective = params
                        display = (
                            ("u", params.u),
                            ("v", params.v),
                            ("w", params.w),
                        )
                        for auxiliary, target, atags in pairs:
                            for rate in self.leakage_rates:
                                # The seed only feeds the leakage sample;
                                # at rate 0 nothing is sampled, so
                                # normalize it out of the cache identity.
                                seed = self.seed if rate else 0
                                cells.append(
                                    self._cell(
                                        {
                                            "dataset": dataset,
                                            "scheme": scheme,
                                            "attack": attack,
                                            "u": effective.u,
                                            "v": effective.v,
                                            "w": effective.w,
                                            "auxiliary": auxiliary,
                                            "target": target,
                                            "leakage_rate": rate,
                                            "seed": seed,
                                        },
                                        extra_tags=display + ptags + atags,
                                    )
                                )
        return tuple(cells)

    def _cell(
        self, params: dict[str, object], extra_tags: Tags = ()
    ) -> Cell:
        tags: dict[str, object] = dict(self.tags)
        # Grid coordinates double as row labels; computed fields of the
        # same name (e.g. the auxiliary backup *label*) shadow them at
        # assembly time (see runner.rows_from).
        for key, value in params.items():
            if key not in ("auxiliary", "target", "seed"):
                tags[key] = value
        tags.update(extra_tags)
        return Cell(
            kind=self.kind,
            params=_as_tags({**params, **dict(self.extra)}),
            tags=tuple(tags.items()),
        )

    @staticmethod
    def _length(dataset: str, lengths: Mapping[str, int] | None) -> int:
        if lengths is not None and dataset in lengths:
            return lengths[dataset]
        from repro.analysis.workloads import series_length

        return series_length(dataset)

    # -- convenience --------------------------------------------------------

    def with_datasets(self, datasets: tuple[str, ...]) -> "ScenarioSpec":
        """A copy of this spec over different datasets (figure drivers
        re-anchor one declared grid across workloads this way)."""
        return replace(self, datasets=datasets)


@dataclass(frozen=True)
class Scenario:
    """A presentable experiment: ordered specs plus table shape.

    This is what a figure driver (or a CLI sweep) hands to
    :func:`repro.scenarios.runner.run_scenario`: the specs' cells run —
    possibly out of order, across processes — and the rows come back in
    spec order under ``columns``.
    """

    name: str
    title: str
    columns: tuple[str, ...]
    specs: tuple[ScenarioSpec, ...]
    notes: tuple[str, ...] = ()

    def cells(self, lengths: Mapping[str, int] | None = None) -> tuple[Cell, ...]:
        """All specs' cells concatenated in spec order (the scenario's
        row order — what :func:`repro.scenarios.runner.run_scenario`
        executes and merges)."""
        expanded: list[Cell] = []
        for spec in self.specs:
            expanded.extend(spec.expand(lengths))
        return tuple(expanded)
