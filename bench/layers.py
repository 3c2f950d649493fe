"""The traced pass's wrap sites and the per-layer metrics derived from them.

Span sites are batch- or chunk-payload-granular (>= ~10 us of work each).
Per-fingerprint calls (``DDFSEngine.process_chunk``, ``FingerprintCache.
lookup``, ``KVStore.get``, ``BloomFilter.__contains__``) are deliberately
not wrapped: their layers report counts the workloads read from public
attributes at the same boundaries.
"""

from __future__ import annotations

from bench.spans import Site


def _request_label(args, kwargs):
    # DedupService.upload(self, tenant, backup, label=None) /
    # DedupService.restore(self, tenant, label)
    label = kwargs.get("label")
    if label is None and len(args) > 2 and isinstance(args[-1], str):
        label = args[-1]
    return label


SITES = [
    Site("chunking.split", "repro.chunking.base:Chunker", "split"),
    Site("chunking.cdc", "repro.chunking.gear:GearChunker", "cut_points", count=len),
    Site("crypto.key", "repro.crypto.mle:ConvergentEncryption", "derive_key"),
    Site("crypto.cipher_encrypt", "repro.crypto.cipher:BlockCipher", "encrypt", count=len),
    Site("crypto.cipher_decrypt", "repro.crypto.cipher:BlockCipher", "decrypt", count=len),
    Site("crypto.prf", "repro.crypto.cipher", "prf_stream"),
    Site("crypto.tag", "repro.chunking.fingerprint:Fingerprinter", "__call__"),
    Site("storage.put", "repro.storage.system:EncryptedDedupSystem", "put_file"),
    Site("storage.get", "repro.storage.system:EncryptedDedupSystem", "get_file"),
    Site("storage.flush", "repro.storage.system:EncryptedDedupSystem", "flush"),
    Site("storage.read_chunk", "repro.storage.container:Container", "read_chunk"),
    Site(
        "storage.index_probe",
        "repro.storage.fingerprint_index:OnDiskFingerprintIndex",
        "lookup_batch",
    ),
    Site(
        "storage.index_update",
        "repro.storage.fingerprint_index:OnDiskFingerprintIndex",
        "update_batch",
    ),
    Site("storage.ingest", "repro.storage.ddfs:DDFSEngine", "ingest_unique_batch", keep=True),
    Site("storage.prefetch", "repro.storage.ddfs:DDFSEngine", "prefetch_container"),
    Site(
        "defenses.encrypt",
        "repro.defenses.pipeline:DefensePipeline",
        "encrypt_backup",
        count=lambda encrypted: len(encrypted.ciphertext),
    ),
    Site("defenses.segment", "repro.defenses.pipeline", "segment_stream", count=len),
    Site("protocol.encode", "repro.service.protocol", "encode_frame", count=len),
    Site("protocol.decode", "repro.service.protocol", "decode_body"),
    Site(
        "protocol.parse",
        "repro.service.protocol",
        "parse_upload",
        count=lambda parsed: len(parsed[3]),
    ),
    Site("service.upload", "repro.service.server:DedupService", "upload", request=_request_label),
    Site("service.restore", "repro.service.server:DedupService", "restore", request=_request_label),
    Site("service.meter", "repro.service.meter:SideChannelMeter", "observe_upload"),
    Site("service.meter", "repro.service.meter:SideChannelMeter", "observe_restore"),
    Site("client.request", "repro.service.loadgen:FrontendClient", "request"),
    Site("client.close", "repro.service.loadgen:FrontendClient", "close"),
    Site("attacks.count", "repro.attacks.locality", "interned_count"),
    Site("attacks.count", "repro.attacks.sharded", "sharded_count"),
    Site(
        "attacks.bfs",
        "repro.attacks.locality:LocalityAttack",
        "run_counted",
        count=lambda result: result.iterations,
    ),
    Site("attacks.freq_analysis", "repro.attacks.locality", "freq_analysis"),
    Site("attacks.freq_analysis", "repro.attacks.advanced", "sized_freq_analysis"),
    Site("attacks.vocab_encrypt", "repro.attacks.sharded", "encrypt_vocabulary"),
    Site("attacks.evaluate", "repro.attacks.evaluation:AttackEvaluator", "run"),
]

# (metric, unit, better).  Times are seconds of one traced iteration, as
# measured (not host-normalised); counts are per iteration.
PER_LAYER = [
    ("chunking.cdc_s", "s", "lower"),
    ("chunking.cdc_mib_per_s", "MiB/s", "higher"),
    ("chunking.chunks", "count", "lower"),
    ("chunking.split_copy_s", "s", "lower"),
    ("chunking.table_warm_s", "s", "lower"),
    ("chunking.rabin_cdc_mib_per_s", "MiB/s", "higher"),
    ("crypto.key_s", "s", "lower"),
    ("crypto.cipher_encrypt_s", "s", "lower"),
    ("crypto.prf_s", "s", "lower"),
    ("crypto.tag_s", "s", "lower"),
    ("crypto.cipher_decrypt_s", "s", "lower"),
    ("crypto.encrypt_mib_per_s", "MiB/s", "higher"),
    ("crypto.decrypt_mib_per_s", "MiB/s", "higher"),
    ("storage.put_self_s", "s", "lower"),
    ("storage.get_self_s", "s", "lower"),
    ("storage.read_chunk_s", "s", "lower"),
    ("storage.ddfs_s.mle", "s", "lower"),
    ("storage.ddfs_s.combined", "s", "lower"),
    ("storage.ddfs_chunks_per_s", "1/s", "higher"),
    ("storage.index_probe_s", "s", "lower"),
    ("storage.index_update_s", "s", "lower"),
    ("storage.ingest_s", "s", "lower"),
    ("storage.prefetch_s", "s", "lower"),
    ("storage.stored_ratio", "ratio", "lower"),
    ("storage.containers", "count", "lower"),
    ("storage.metadata_update_bytes", "B", "lower"),
    ("storage.metadata_index_bytes", "B", "lower"),
    ("storage.metadata_loading_bytes", "B", "lower"),
    ("index.cache_hit_ratio", "ratio", "higher"),
    ("index.bloom_fp", "count", "lower"),
    ("index.entries", "count", "lower"),
    ("defenses.encrypt_s", "s", "lower"),
    ("defenses.encrypt_chunks_per_s", "1/s", "higher"),
    ("defenses.segments", "count", "lower"),
    ("protocol.encode_s", "s", "lower"),
    ("protocol.decode_s", "s", "lower"),
    ("protocol.parse_s", "s", "lower"),
    ("protocol.wire_bytes", "B", "lower"),
    ("protocol.bytes_per_chunk", "B", "lower"),
    ("service.upload_s", "s", "lower"),
    ("service.restore_s", "s", "lower"),
    ("service.needed_ratio", "ratio", "higher"),
    ("service.stored_ratio", "ratio", "lower"),
    ("service.meter_s", "s", "lower"),
    ("frontend.cpu_s", "s", "lower"),
    ("frontend.other_s", "s", "lower"),
    ("frontend.sessions", "count", "lower"),
    ("frontend.frames", "count", "lower"),
    ("frontend.errors", "count", "lower"),
    ("client.connect_s", "s", "lower"),
    ("client.request_s", "s", "lower"),
    ("client.close_s", "s", "lower"),
    ("client.cpu_s", "s", "lower"),
    ("client.req_per_s", "1/s", "higher"),
    ("client.p50_ms", "ms", "lower"),
    ("client.p99_ms", "ms", "lower"),
    ("attacks.count_s", "s", "lower"),
    ("attacks.count_jobsN_s", "s", "lower"),
    ("attacks.count_jobsN_speedup", "ratio", "higher"),
    ("attacks.locality_s", "s", "lower"),
    ("attacks.advanced_s", "s", "lower"),
    ("attacks.freq_analysis_s", "s", "lower"),
    ("attacks.vocab_encrypt_s", "s", "lower"),
    ("attacks.score_s", "s", "lower"),
    ("attacks.iterations", "count", "lower"),
    ("attacks.correct_pairs", "count", "higher"),
    ("datasets.generate_s", "s", "lower"),
    ("datasets.columnar_open_s", "s", "lower"),
    ("datasets.trace_bytes", "B", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("host.calibration_ms", "ms", "lower"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(table: dict, work: dict, counts: dict) -> dict[str, float]:
    """One traced iteration's per-layer metrics.

    ``table`` is :func:`bench.spans.aggregate` over every process of the
    iteration, ``work`` the merged :attr:`Tracer.work`, ``counts`` what
    the workload read from public attributes and its own timers (already
    keyed by metric name; they pass through unchanged).
    """

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    mib = 1 << 20
    ddfs_s = total("storage.ddfs.mle") + total("storage.ddfs.combined")
    wire_bytes = work.get("protocol.encode", 0)
    metrics = {
        "chunking.cdc_s": total("chunking.cdc"),
        "chunking.cdc_mib_per_s": _ratio(
            counts.get("chunking.bytes", 0) / mib, total("chunking.cdc")
        ),
        "chunking.chunks": work.get("chunking.cdc", 0),
        "chunking.split_copy_s": own("chunking.split"),
        "crypto.key_s": total("crypto.key"),
        "crypto.cipher_encrypt_s": own("crypto.cipher_encrypt"),
        "crypto.prf_s": total("crypto.prf"),
        "crypto.tag_s": total("crypto.tag"),
        "crypto.cipher_decrypt_s": own("crypto.cipher_decrypt"),
        "crypto.encrypt_mib_per_s": _ratio(
            work.get("crypto.cipher_encrypt", 0) / mib, total("crypto.cipher_encrypt")
        ),
        "crypto.decrypt_mib_per_s": _ratio(
            work.get("crypto.cipher_decrypt", 0) / mib, total("crypto.cipher_decrypt")
        ),
        "storage.put_self_s": own("storage.put"),
        "storage.get_self_s": own("storage.get"),
        "storage.read_chunk_s": total("storage.read_chunk"),
        "storage.ddfs_s.mle": total("storage.ddfs.mle"),
        "storage.ddfs_s.combined": total("storage.ddfs.combined"),
        "storage.ddfs_chunks_per_s": _ratio(counts.get("storage.ddfs_chunks", 0), ddfs_s),
        "storage.index_probe_s": total("storage.index_probe"),
        "storage.index_update_s": total("storage.index_update"),
        "storage.ingest_s": own("storage.ingest"),
        "storage.prefetch_s": total("storage.prefetch"),
        "defenses.encrypt_s": total("defenses.encrypt"),
        "defenses.encrypt_chunks_per_s": _ratio(
            work.get("defenses.encrypt", 0), total("defenses.encrypt")
        ),
        "defenses.segments": work.get("defenses.segment", 0),
        "protocol.encode_s": total("protocol.encode"),
        "protocol.decode_s": total("protocol.decode"),
        "protocol.parse_s": total("protocol.parse"),
        "protocol.wire_bytes": wire_bytes,
        "protocol.bytes_per_chunk": _ratio(wire_bytes, work.get("protocol.parse", 0)),
        "service.upload_s": own("service.upload"),
        "service.restore_s": own("service.restore"),
        "service.meter_s": total("service.meter"),
        "client.connect_s": total("client.connect"),
        "client.request_s": own("client.request"),
        "client.close_s": total("client.close"),
        "attacks.count_s": total("attacks.count"),
        "attacks.locality_s": total("attacks.locality"),
        "attacks.advanced_s": total("attacks.advanced"),
        "attacks.freq_analysis_s": total("attacks.freq_analysis"),
        "attacks.vocab_encrypt_s": total("attacks.vocab_encrypt"),
        "attacks.score_s": own("attacks.evaluate"),
        "attacks.iterations": work.get("attacks.bfs", 0),
        "trace.spans": sum(row["count"] for row in table.values()),
    }
    metrics.update(counts)
    return {name: float(metrics.get(name, 0.0)) for name, _, _ in PER_LAYER}
