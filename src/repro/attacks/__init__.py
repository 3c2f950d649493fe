"""Inference attacks against encrypted deduplication (§4).

* :class:`BasicAttack` — classical frequency analysis (Algorithm 1).
* :class:`LocalityAttack` — chunk-locality-driven frequency analysis
  (Algorithm 2) with parameters ``u``, ``v``, ``w``.
* :class:`AdvancedLocalityAttack` — adds the chunk-size side channel
  (Algorithm 3) for variable-size chunking.
* :func:`evaluate` over an :class:`AttackSource` — the one place an attack
  is run and scored into an :class:`InferenceReport`, in ciphertext-only
  or known-plaintext mode; :class:`AttackEvaluator` is its source over an
  encrypted series, :func:`build_attack` the attacks by name.
* :func:`columnar_attack_report` — the out-of-core source: both COUNT
  passes sharded over a memory-mapped columnar trace
  (:func:`sharded_count`).
"""

from repro.attacks.advanced import AdvancedLocalityAttack
from repro.attacks.base import Attack, AttackResult
from repro.attacks.basic import BasicAttack
from repro.attacks.evaluation import (
    KNOWN_ATTACKS,
    AttackEvaluator,
    AttackSource,
    InferenceReport,
    build_attack,
    evaluate,
    sample_leakage,
)
from repro.attacks.frequency import (
    ChunkStats,
    classify_by_blocks,
    count_frequencies,
    count_with_neighbors,
    freq_analysis,
    rank_by_frequency,
    sized_freq_analysis,
)
from repro.attacks.interning import (
    ArrayStats,
    ChunkVocabulary,
    interned_count,
)
from repro.attacks.locality import LocalityAttack
from repro.attacks.sharded import columnar_attack_report, sharded_count

__all__ = [
    "columnar_attack_report",
    "sharded_count",
    "AdvancedLocalityAttack",
    "Attack",
    "AttackResult",
    "BasicAttack",
    "KNOWN_ATTACKS",
    "AttackEvaluator",
    "AttackSource",
    "InferenceReport",
    "build_attack",
    "evaluate",
    "sample_leakage",
    "ChunkStats",
    "ArrayStats",
    "ChunkVocabulary",
    "classify_by_blocks",
    "count_frequencies",
    "count_with_neighbors",
    "interned_count",
    "freq_analysis",
    "rank_by_frequency",
    "sized_freq_analysis",
    "LocalityAttack",
]
