"""Backend-backed attack state (the paper's LevelDB implementation, §5.2).

The paper's attack code keeps its three associative-array families — chunk
frequencies F, left/right co-occurrence tables L/R — in LevelDB, keyed by
fingerprint, with each neighbor table stored as a *sequential list* of
(neighbor fingerprint, count) pairs. That layout is what lets the attack
process multi-TB traces whose tables exceed RAM, and its insertion-ordered
lists are the reason ties break in first-occurrence order (see
:mod:`repro.attacks.frequency`).

This module reproduces that design on the pluggable
:class:`~repro.index.backends.KVBackend` layer (the streaming COUNT itself
lives in :mod:`repro.attacks.streaming`):

* :func:`persist_chunk_stats` — streams the COUNT output for a backup
  (in RAM, or one view of a columnar trace) into backend stores under a
  directory;
* :func:`load_chunk_stats` — reopens persisted stores via the completion
  marker written when a COUNT run finishes (partial state from an
  interrupted run is never loaded — it is wiped and recounted);
* :class:`PersistentLocalityAttack` / :class:`PersistentAdvancedAttack` —
  the locality-based attacks running against on-disk state, on any
  backend. Results are bit-identical to the in-memory attacks
  (property-tested).
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

from repro.attacks.advanced import AdvancedLocalityAttack
from repro.attacks.base import AttackResult
from repro.attacks.frequency import ChunkStats
from repro.attacks.locality import LocalityAttack
from repro.attacks.streaming import (
    BackendChunkStats,
    CountStores,
    NeighborStore,
    StreamingCount,
)
from repro.common.errors import ConfigurationError
from repro.datasets.columnar import ColumnarBackupView
from repro.datasets.model import Backup
from repro.index.backends import DEFAULT_SHARDS

__all__ = [
    "NeighborStore",
    "PersistentAdvancedAttack",
    "PersistentChunkStats",
    "PersistentLocalityAttack",
    "load_chunk_stats",
    "persist_chunk_stats",
]

# Backwards-compatible name: the stats object now lives in the streaming
# module and works over any backend, not just the WAL KVStore.
PersistentChunkStats = BackendChunkStats

# Written (with the backend spec as content) only after a COUNT run
# completes; its absence marks a directory as empty or partial.
_MARKER = "COUNT_STATE"
_STORE_STEMS = ("meta", "left", "right")


def _canonical_spec(backend: str, shards: int | None) -> str:
    name, _, option = backend.partition(":")
    if name != "sharded":
        return name
    if shards is None:
        shards = int(option) if option else DEFAULT_SHARDS
    return f"sharded:{shards}"


def _clear_partial_state(directory: Path) -> None:
    """Drop store files left behind by an interrupted COUNT run.

    The streaming COUNT *merges* into its stores, so counting into
    leftover state would corrupt every table. Only the known store
    layouts are removed (``meta*``/``left*``/``right*`` files, their WAL
    sidecars, and shard directories).
    """
    if not directory.is_dir():
        return
    for stem in _STORE_STEMS:
        for path in directory.glob(f"{stem}*"):
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()


def persist_chunk_stats(
    source: Backup | ColumnarBackupView,
    directory: str | os.PathLike,
    backend: str = "kvstore",
    shards: int | None = None,
) -> BackendChunkStats:
    """Run the streaming COUNT over ``source``, persisted under ``directory``.

    A completion marker (recording the backend spec) is written only after
    the full stream is counted; a directory holding partial state from an
    interrupted run is wiped and recounted, never loaded. Reopening a
    completed directory later (:func:`load_chunk_stats`) skips the
    counting pass — useful when the same auxiliary backup is attacked
    against many targets, as in the Figure 6 sweep.

    Args:
        source: the logical chunk stream to count — an in-RAM backup, or
            one backup view of a memory-mapped columnar trace, whose
            batched decode
            (:meth:`~repro.datasets.columnar.ColumnarBackupView.iter_batches`)
            flows into the on-disk stores without ever materializing the
            backup.
        directory: where the stores live (one subdirectory per backup).
        backend: backend spec (``"kvstore"``, ``"sqlite"``, ``"sharded"``,
            ``"sharded:N"``; see :func:`repro.index.backends.open_backend`).
        shards: shard count for the sharded backend.

    Raises:
        ConfigurationError: for an empty backup, or when the directory
            already holds completed stats (reopen those with
            :func:`load_chunk_stats` instead — recounting would merge
            into them and double every frequency).
    """
    if isinstance(source, Backup):
        batches = [(source.fingerprints, source.sizes)]
    else:
        batches = source.iter_batches()
    if not len(source):
        raise ConfigurationError("cannot persist stats of an empty backup")
    directory = Path(directory)
    marker = directory / _MARKER
    if marker.exists():
        raise ConfigurationError(
            f"stats already persisted under {directory}; "
            "use load_chunk_stats to reopen them"
        )
    _clear_partial_state(directory)
    spec = _canonical_spec(backend, shards)
    counter = StreamingCount(CountStores.open(directory, spec))
    for fingerprints, sizes in batches:
        counter.ingest(fingerprints, sizes)
    stats = counter.finalize()
    if spec != "memory":
        marker.write_text(spec + "\n")
    return stats


def load_chunk_stats(directory: str | os.PathLike) -> BackendChunkStats:
    """Reopen stats persisted by :func:`persist_chunk_stats`.

    The backend is read from the completion marker, so partial state from
    an interrupted run is never loaded (missing marker raises, and the
    next :func:`persist_chunk_stats` recounts from scratch). Frequencies
    and sizes are rebuilt into memory in first-insertion order of the
    original stream, keeping tie-break behaviour identical.
    """
    directory = Path(directory)
    marker = directory / _MARKER
    if not marker.exists():
        raise ConfigurationError(
            f"no completed persisted stats under {directory}"
        )
    stores = CountStores.open(directory, marker.read_text().strip())
    return BackendChunkStats.from_stores(stores)


class _PersistentCountMixin:
    """Shares the backend-backed COUNT pass between the attack variants.

    ``workdir`` holds one store per (side, backup label); pre-existing
    stores are reused, mirroring the paper's reuse of LevelDB state across
    experiments (e.g. one auxiliary backup attacked against many targets).
    """

    def _init_persistence(
        self,
        workdir: str | os.PathLike,
        backend: str = "kvstore",
        shards: int | None = None,
    ) -> None:
        self.workdir = Path(workdir)
        self.backend = backend
        self.shards = shards
        self._side = "ciphertext"

    def _count(self, backup: Backup) -> ChunkStats:
        directory = self.workdir / self._side / backup.label.replace(" ", "_")
        self._side = "auxiliary"  # second _count call is the auxiliary
        try:
            stats = load_chunk_stats(directory)
        except ConfigurationError:
            stats = persist_chunk_stats(
                backup, directory, self.backend, self.shards
            )
        return stats  # type: ignore[return-value]

    def run(
        self,
        ciphertext: Backup,
        auxiliary: Backup,
        leaked_pairs: dict[bytes, bytes] | None = None,
    ) -> AttackResult:
        self._side = "ciphertext"
        result = super().run(ciphertext, auxiliary, leaked_pairs)  # type: ignore[misc]
        result.attack_name = self.name
        return result


class PersistentLocalityAttack(_PersistentCountMixin, LocalityAttack):
    """Locality-based attack with backend-backed COUNT state."""

    name = "locality-persistent"

    def __init__(
        self,
        workdir: str | os.PathLike,
        u: int = 1,
        v: int = 15,
        w: int = 200_000,
        backend: str = "kvstore",
        shards: int | None = None,
        **kwargs,
    ):
        super().__init__(u=u, v=v, w=w, **kwargs)
        self._init_persistence(workdir, backend, shards)


class PersistentAdvancedAttack(_PersistentCountMixin, AdvancedLocalityAttack):
    """Advanced locality-based attack with backend-backed COUNT state."""

    name = "advanced-persistent"

    def __init__(
        self,
        workdir: str | os.PathLike,
        u: int = 1,
        v: int = 15,
        w: int = 200_000,
        backend: str = "kvstore",
        shards: int | None = None,
        **kwargs,
    ):
        super().__init__(u=u, v=v, w=w, **kwargs)
        self._init_persistence(workdir, backend, shards)
