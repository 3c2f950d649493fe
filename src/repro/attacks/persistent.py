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
* :func:`backend_count` — the ``count=`` argument of
  :func:`repro.attacks.evaluation.evaluate` that runs the locality-based
  attacks against on-disk state, on any backend. Reports are bit-identical
  to the in-memory COUNT's (property-tested).
"""

from __future__ import annotations

import hashlib
import os
import shutil
from array import array
from pathlib import Path

from repro.attacks.streaming import (
    BackendChunkStats,
    CountStores,
    StreamingCount,
)
from repro.common.errors import ConfigurationError
from repro.datasets.columnar import ColumnarBackupView
from repro.datasets.model import Backup
from repro.index.backends import DEFAULT_SHARDS

__all__ = [
    "backend_count",
    "load_chunk_stats",
    "persist_chunk_stats",
]

# Written only after a COUNT run completes — the backend spec on its
# first line, the counted stream's identity on its second; its absence
# marks a directory as empty or partial.
_MARKER = "COUNT_STATE"
_STORE_STEMS = ("meta", "left", "right")


def _canonical_spec(backend: str, shards: int | None) -> str:
    name, _, option = backend.partition(":")
    if name != "sharded":
        return name
    if shards is None:
        shards = int(option) if option else DEFAULT_SHARDS
    return f"sharded:{shards}"


def _batches(source: Backup | ColumnarBackupView):
    if isinstance(source, Backup):
        return [(source.fingerprints, source.sizes)]
    return source.iter_batches()


class _StreamDigest:
    """Running identity of a chunk stream: chunk count plus a SHA-256 over
    its fingerprint and size sequences — what tells one counted stream
    from another under the same label. Fed per batch, so a columnar view
    never materialises, and independent of the batching."""

    def __init__(self) -> None:
        self._chunks = 0
        self._fingerprints, self._sizes = hashlib.sha256(), hashlib.sha256()

    def update(self, fingerprints, sizes) -> None:
        self._chunks += len(fingerprints)
        self._fingerprints.update(b"".join(fingerprints))
        self._sizes.update(array("Q", sizes).tobytes())

    def identity(self) -> str:
        digest = hashlib.sha256(
            self._fingerprints.digest() + self._sizes.digest()
        )
        return f"{self._chunks} {digest.hexdigest()}"


def _stream_identity(source: Backup | ColumnarBackupView) -> str:
    digest = _StreamDigest()
    for fingerprints, sizes in _batches(source):
        digest.update(fingerprints, sizes)
    return digest.identity()


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

    A completion marker (recording the backend spec and the stream's
    identity) is written only after the full stream is counted; a
    directory holding partial state from an interrupted run is wiped and
    recounted, never loaded. Reopening a completed directory later
    (:func:`load_chunk_stats`) skips the counting pass — useful when the
    same auxiliary backup is attacked against many targets, as in the
    Figure 6 sweep.

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
    digest = _StreamDigest()
    for fingerprints, sizes in _batches(source):
        digest.update(fingerprints, sizes)
        counter.ingest(fingerprints, sizes)
    stats = counter.finalize()
    if spec != "memory":
        marker.write_text(f"{spec}\n{digest.identity()}\n")
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
    stores = CountStores.open(directory, marker.read_text().partition("\n")[0])
    return BackendChunkStats.from_stores(stores)


def backend_count(
    workdir: str | os.PathLike,
    backend: str = "kvstore",
    shards: int | None = None,
):
    """A ``count=`` for :func:`repro.attacks.evaluation.evaluate` that
    keeps COUNT state in backend stores under ``workdir``.

    One store per (side, backup label). A completed store is reused —
    mirroring the paper's reuse of LevelDB state across experiments (e.g.
    one auxiliary backup attacked against many targets) — only when its
    marker records the identity of the stream being counted; the state of
    any other stream (another scheme, dataset or seed under the same
    label) is wiped and recounted like partial state.
    """
    workdir = Path(workdir)

    def count(backup: Backup, side: str) -> BackendChunkStats:
        directory = workdir / side / backup.label.replace(" ", "_")
        marker = directory / _MARKER
        if marker.exists():
            if marker.read_text().splitlines()[1:] == [_stream_identity(backup)]:
                return load_chunk_stats(directory)
            marker.unlink()
        return persist_chunk_stats(backup, directory, backend, shards)

    return count
