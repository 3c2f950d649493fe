"""Helpers the workloads share."""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile

from bench import ROOT

SCRATCH = os.path.join(ROOT, ".bench_tmp")


def scratch_directory(kind: str) -> str:
    """A fresh directory for sockets and traces, inside the checkout (the
    benchmark writes nowhere else); the workload's teardown removes it.
    Returned relative to the working directory, which keeps Unix socket
    paths under the 108-byte limit however deep the checkout sits."""
    os.makedirs(SCRATCH, exist_ok=True)
    return os.path.relpath(tempfile.mkdtemp(prefix=f"{kind}-", dir=SCRATCH))


def remove_scratch(directory: str) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    with contextlib.suppress(OSError):  # another run's directory is still there
        os.rmdir(SCRATCH)


def engine_counts(engines, metadata=None) -> dict:
    """Per-layer counts of ``engines``, read from public attributes.

    ``metadata`` overrides the metadata-access bytes with an already
    taken :class:`~repro.storage.metrics.MetadataAccessStats` list
    (``DDFSEngine.process_backup`` resets the index's own counters into
    its report).
    """
    if metadata is None:
        metadata = [engine.index.stats for engine in engines]
    hits = sum(engine.cache.hits for engine in engines)
    misses = sum(engine.cache.misses for engine in engines)
    return {
        "storage.containers": sum(engine.containers.num_containers for engine in engines),
        "storage.metadata_update_bytes": sum(stats.update_bytes for stats in metadata),
        "storage.metadata_index_bytes": sum(stats.index_bytes for stats in metadata),
        "storage.metadata_loading_bytes": sum(stats.loading_bytes for stats in metadata),
        "index.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "index.bloom_fp": sum(engine.bloom_false_positives for engine in engines),
        "index.entries": sum(len(engine.index) for engine in engines),
    }
