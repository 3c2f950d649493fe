"""trace_attack: the paper's own pipeline in RAM, on an FSL-like series.

For the ``mle`` and ``combined`` schemes: encrypt the series, run the
locality and the advanced locality attack (second-to-last backup as
auxiliary, last as target), and deduplicate the ciphertext series through
a DDFS engine whose fingerprint cache is smaller than the working set.
The attacks' neighbour BFS and the S1-S4 chunk path do the work; chunking,
crypto bytes and the socket are bypassed.
"""

from __future__ import annotations

import time

from repro.attacks.advanced import AdvancedLocalityAttack
from repro.attacks.evaluation import AttackEvaluator
from repro.attacks.locality import LocalityAttack
from repro.datasets.fsl import FSLConfig, FSLDatasetGenerator
from repro.defenses.pipeline import DefensePipeline
from repro.storage.ddfs import DDFSEngine

from bench import layers
from bench.harness import Context, Sample
from bench.workloads.common import engine_counts

SCHEMES = ("mle", "combined")
# Five frequency seed pairs instead of the default one, and no locality
# attack under ``combined``: with one pair, and always under ``combined``,
# whether the BFS spreads is a coin flip per seed (0.4 % to 37 % of the
# chunks visited), which would make the read-out rate bimodal.
SEED_PAIRS = 5
ATTACKS = {
    "mle": (("locality", LocalityAttack), ("advanced", AdvancedLocalityAttack)),
    "combined": (("advanced", AdvancedLocalityAttack),),
}
# ~1/12 of the chunks of the issue's sizing draft, so an iteration takes
# ~1 s.  Many short files over a flatter template popularity than the
# generator's defaults: with the defaults one top template's length (a
# single heavy-tailed draw) sets the series' size and dedup ratio, which
# then swing by 30 % from seed to seed.
FILES_PER_USER = 200
MEAN_FILE_CHUNKS = 10
NUM_TEMPLATES = 260
TEMPLATE_ZIPF = 0.8
POPULAR_POOL = 160
# The issue's regime at 1/12 size: the fingerprint cache holds a tenth of
# one backup's fingerprints, i.e. ~80 of its ~750 containers (there:
# 512 KiB of 32-byte entries against 4 MiB containers and 160-330 k
# chunks per backup).  With 4 MiB containers at this size the cache would
# hold less than one container and every prefetch would evict itself.
CACHE_BUDGET = 40 * 1024
CONTAINER_SIZE = 128 * 1024


def setup(seed: int, scale: float, trace: bool) -> Context:
    config = FSLConfig(
        num_users=6,
        num_backups=3,
        files_per_user=max(8, round(FILES_PER_USER * scale)),
        mean_file_chunks=MEAN_FILE_CHUNKS,
        num_templates=max(8, round(NUM_TEMPLATES * scale)),
        template_zipf_exponent=TEMPLATE_ZIPF,
        popular_pool_size=max(16, round(POPULAR_POOL * scale)),
        fingerprint_bytes=8,
    )
    started = time.perf_counter()
    series = FSLDatasetGenerator(seed, config).generate()
    generate_s = time.perf_counter() - started
    return Context(
        inputs={
            "seed": seed,
            "series": series,
            "cache_budget": max(4096, round(CACHE_BUDGET * scale)),
            "digest": None,
        },
        setup_counts={
            "datasets.generate_s": generate_s,
            "datasets.trace_bytes": series.logical_bytes,
        },
    )


def iterate(context: Context, tracer) -> Sample:
    inputs = context.inputs
    series = inputs["series"]
    ingest_s = readout_s = 0.0
    reports = {}
    engines, written = [], []
    unique_expected = unique_stored = 0
    with tracer.installed(layers.SITES):
        for scheme in SCHEMES:
            started = time.perf_counter()
            encrypted = DefensePipeline(scheme, seed=inputs["seed"]).encrypt_series(series)
            ingest_s += time.perf_counter() - started

            evaluator = AttackEvaluator(encrypted)
            started = time.perf_counter()
            for attack, build in ATTACKS[scheme]:
                with tracer.span(f"attacks.{attack}"):
                    reports[scheme, attack] = evaluator.run(build(u=SEED_PAIRS), -2, -1)
            readout_s += time.perf_counter() - started

            ciphertext = encrypted.ciphertext_series().backups
            engine = DDFSEngine(
                cache_budget_bytes=inputs["cache_budget"],
                bloom_capacity=1_000_000,
                container_size=CONTAINER_SIZE,
            )
            started = time.perf_counter()
            with tracer.span(f"storage.ddfs.{scheme}"):
                reports[scheme, "ddfs"] = engine.process_series(ciphertext)
            ingest_s += time.perf_counter() - started
            engines.append(engine)
            written.extend(reports[scheme, "ddfs"])
            unique_stored += sum(report.unique_chunks for report in reports[scheme, "ddfs"])
            unique_expected += len(
                {fp for backup in ciphertext for fp in backup.fingerprints}
            )

    chunks = sum(len(backup) for backup in series.backups)
    combined = reports["combined", "ddfs"]
    sample = Sample(
        ingest_s=ingest_s,
        ingest_chunks=chunks * len(SCHEMES),
        readout_s=readout_s,
        # Each attack run reads the target and the auxiliary backup.
        readout_chunks=(len(series[-1]) + len(series[-2]))
        * sum(len(attacks) for attacks in ATTACKS.values()),
        stored_ratio=sum(report.stored_bytes for report in combined)
        / sum(report.logical_bytes for report in combined),
        detail={"report_s": ingest_s + readout_s},
        counts={
            "storage.ddfs_chunks": chunks * len(SCHEMES),
            "attacks.correct_pairs": sum(
                reports[scheme, attack].correct_pairs
                for scheme in SCHEMES
                for attack, _ in ATTACKS[scheme]
            ),
            **engine_counts(engines, [report.metadata for report in written]),
        },
    )
    # A digest of everything the run reported: it must repeat exactly.
    digest = repr(sorted((key, repr(value)) for key, value in reports.items()))
    if inputs["digest"] is None:
        inputs["digest"] = digest
    sample.check(digest == inputs["digest"], "report differs from the round's first evaluation")
    sample.check(
        reports["mle", "advanced"].correct_pairs >= reports["mle", "locality"].correct_pairs,
        "advanced attack inferred less than the locality attack under mle",
    )
    sample.check(
        reports["combined", "advanced"].inference_rate
        < reports["mle", "advanced"].inference_rate,
        "the combined defense did not lower the advanced attack's inference rate",
    )
    sample.check(
        unique_stored == unique_expected,
        f"DDFS stored {unique_stored} unique chunks, the series has {unique_expected}",
    )
    if tracer.enabled:
        sample.spans = {"main": tracer.collect()}
        sample.work = tracer.work
    return sample


def teardown(context: Context) -> None:
    pass
