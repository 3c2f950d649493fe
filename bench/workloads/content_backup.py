"""content_backup: real bytes through CDC, MLE, dedup containers and back.

Generation 0 of a content tree is all-unique (container writes);
generation 1 is the same tree with a fifth of the files edited in place,
so almost all of its chunks are duplicates (cache and index hits) — shared
work varies inside one iteration.  The restore of generation 1 is the
"reads beside writes" use of ``crypto`` and ``storage``.
"""

from __future__ import annotations

import time

from repro.chunking.base import ChunkerSpec
from repro.chunking.gear import GearChunker
from repro.chunking.rabin import RabinChunker
from repro.crypto.mle import ConvergentEncryption
from repro.datasets.filesystem import build_tree, deterministic_bytes
from repro.datasets.mutate import evolve_tree
from repro.storage.system import EncryptedDedupSystem

from bench import layers
from bench.harness import Context, Sample
from bench.workloads.common import engine_counts

MIB = 1 << 20
NUM_FILES = 24
MEAN_FILE_SIZE = 128 * 1024


def setup(seed: int, scale: float, trace: bool) -> Context:
    started = time.perf_counter()
    first = build_tree(
        seed=seed, num_files=max(4, round(NUM_FILES * scale)), mean_file_size=MEAN_FILE_SIZE
    )
    second = evolve_tree(first, seed, generation=1)
    generate_s = time.perf_counter() - started
    chunker = GearChunker(ChunkerSpec(min_size=2048, avg_size=8192, max_size=65536))
    sample = deterministic_bytes(seed, "cdc-sample", MIB)
    started = time.perf_counter()
    cuts = chunker.cut_points(sample)  # the first call builds the scan tables
    table_warm_s = time.perf_counter() - started
    context = Context(
        inputs={
            "chunker": chunker,
            "generations": [first.iter_files(), second.iter_files()],
        },
        setup_counts={
            "datasets.generate_s": generate_s,
            "datasets.trace_bytes": first.total_bytes() + second.total_bytes(),
            "chunking.table_warm_s": table_warm_s,
        },
    )
    context.check(
        cuts == chunker.cut_points_reference(sample),
        "GearChunker.cut_points diverged from cut_points_reference",
    )
    if trace:
        rabin = RabinChunker()
        rabin.cut_points(sample[:65536])  # builds its tables
        started = time.perf_counter()
        rabin.cut_points(sample)
        context.setup_counts["chunking.rabin_cdc_mib_per_s"] = 1 / (
            time.perf_counter() - started
        )
    return context


def iterate(context: Context, tracer) -> Sample:
    first, second = context.inputs["generations"]
    system = EncryptedDedupSystem(ConvergentEncryption(), context.inputs["chunker"])
    with tracer.installed(layers.SITES):
        started = time.perf_counter()
        written = [system.put_file(file.path, file.data) for file in first]
        stored = [system.put_file(file.path, file.data) for file in second]
        system.flush()
        ingest_s = time.perf_counter() - started
        started = time.perf_counter()
        restored = [system.get_file(handle) for handle in stored]
        readout_s = time.perf_counter() - started
    logical = sum(file.size for file in first) + sum(file.size for file in second)
    restored_chunks = sum(len(handle.recipe) for handle in stored)
    engine = system.engine
    sample = Sample(
        ingest_s=ingest_s,
        ingest_chunks=sum(len(handle.recipe) for handle in written) + restored_chunks,
        readout_s=readout_s,
        readout_chunks=restored_chunks,
        stored_ratio=system.stored_bytes / logical,
        attempted=len(stored),
        failures=[
            f"restore of {file.path} is not byte-equal"
            for file, data in zip(second, restored)
            if data != file.data
        ],
        detail={
            "backup_mib_per_s": logical / MIB / ingest_s,
            "restore_mib_per_s": sum(file.size for file in second) / MIB / readout_s,
        },
        counts={"chunking.bytes": logical, **engine_counts([engine])},
    )
    if tracer.enabled:
        sample.spans = {"main": tracer.collect()}
        sample.work = tracer.work
    return sample


def teardown(context: Context) -> None:
    pass
