"""Inference attacks against encrypted deduplication (§4).

* :class:`BasicAttack` — classical frequency analysis (Algorithm 1).
* :class:`LocalityAttack` — chunk-locality-driven frequency analysis
  (Algorithm 2) with parameters ``u``, ``v``, ``w``.
* :class:`AdvancedLocalityAttack` — adds the chunk-size side channel
  (Algorithm 3) for variable-size chunking.
* :class:`AttackEvaluator` / :class:`InferenceReport` — run attacks against
  encrypted series in ciphertext-only or known-plaintext mode and compute
  inference rates.
* :class:`StreamingCount` / :func:`streaming_count` — batch-ingesting COUNT
  flushing through a pluggable :class:`~repro.index.backends.KVBackend`,
  with the persistent attack variants running on top of it.
"""

from repro.attacks.advanced import AdvancedLocalityAttack
from repro.attacks.base import Attack, AttackResult
from repro.attacks.basic import BasicAttack
from repro.attacks.evaluation import (
    AttackEvaluator,
    InferenceReport,
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
from repro.attacks.persistent import (
    PersistentAdvancedAttack,
    PersistentLocalityAttack,
    load_chunk_stats,
    persist_chunk_stats,
)
from repro.attacks.sharded import columnar_attack_report, sharded_count
from repro.attacks.streaming import (
    BackendChunkStats,
    CountStores,
    StreamingCount,
    streaming_count,
)

__all__ = [
    "BackendChunkStats",
    "CountStores",
    "StreamingCount",
    "streaming_count",
    "PersistentAdvancedAttack",
    "PersistentLocalityAttack",
    "load_chunk_stats",
    "persist_chunk_stats",
    "columnar_attack_report",
    "sharded_count",
    "AdvancedLocalityAttack",
    "Attack",
    "AttackResult",
    "BasicAttack",
    "AttackEvaluator",
    "InferenceReport",
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
