"""serve_sessions / serve_bulk: the framed-socket frontend under a closed loop.

One process (this one) drives two connections from two threads against a
``FrontendServer`` on a Unix socket in a forked child; tenants are
partitioned ``tenant % 2`` so each tenant's rounds stay ordered.  Closed
loop, because a tenant session waits for the dedup response before it
transfers.  Every iteration forks a fresh server, so the store starts
empty each time and iterations do identical work.

The round pins itself, and with it the server it forks, to one CPU: with
the client threads and the server free to move over two shared vCPUs the
wall of identical iterations doubles for a minute at a time (every
sub-millisecond round trip then waits for a wake-up on the other vCPU),
which is the scheduler's time and not the program's.  On one CPU the
closed loop never idles, so the wall is the CPU time of both sides, which
is what the harness's calibration kernel scales.

* ``serve_sessions`` — one connection per (tenant, round): connect, HELLO,
  the session's UPLOAD/RESTORE frames, CLOSE.  Small frames (~33 chunks),
  so per-frame and per-connection cost dominates.
* ``serve_bulk`` — the same server behind two persistent connections and
  few large frames (~1,800 fingerprints each), so codec bytes, the defense
  pipeline, the batched index probe and unique ingest dominate and
  per-connection cost is nil.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import threading
import time

from repro.service import protocol as wire
from repro.service.frontend import FrontendServer, build_frontend, identity_check
from repro.service.loadgen import FrontendClient, replay_stream
from repro.service.simulate import ServiceConfig, traffic_requests
from repro.service.traffic import UPLOAD

from bench import layers, spans
from bench.harness import Context, Sample, percentile
from bench.workloads.common import engine_counts, remove_scratch, scratch_directory

CONNECTIONS = 2
SESSIONS = {"tenants": 80, "rounds": 8, "files_per_tenant": 4, "mean_file_chunks": 8}
BULK = {"tenants": 16, "rounds": 8, "files_per_tenant": 24, "mean_file_chunks": 64}
IDENTITY = {"tenants": 6, "rounds": 2}
# ServiceConfig's defaults (40 templates, Zipf 1.5) let one top template's
# heavy-tailed length set the chunks per upload, which then swing by 16 %
# from seed to seed; a flatter, larger library brings that to 6 %.
TRAFFIC = {"num_templates": 1000, "popularity_exponent": 0.5}


def setup(seed: int, scale: float, trace: bool, bulk: bool) -> Context:
    # This process is the round's forked child, so the pin ends with it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    shape = dict(BULK if bulk else SESSIONS, **TRAFFIC)
    shape["tenants"] = max(CONNECTIONS, round(shape["tenants"] * scale))
    # Every tenant restores its previous round's upload (the default 0.1
    # makes the number of restores a small binomial draw per seed).
    config = ServiceConfig(seed=seed, restore_probability=1.0, **shape)
    started = time.perf_counter()
    requests = traffic_requests(config)
    generate_s = time.perf_counter() - started
    # One list of sessions per connection; a session is one (tenant, round).
    plans: list[dict] = [{} for _ in range(CONNECTIONS)]
    for request in requests:
        plan = plans[request.tenant % CONNECTIONS]
        plan.setdefault((request.tenant, request.round), []).append(request)
    directory = scratch_directory("serve")
    context = Context(
        inputs={
            "config": config,
            "bulk": bulk,
            "plans": [[plan[key] for key in sorted(plan)] for plan in plans],
            "directory": directory,
            "address": ("unix", os.path.join(directory, "serve.sock")),
        },
        setup_counts={"datasets.generate_s": generate_s},
    )
    _identity_gate(context, seed)
    return context


def _identity_gate(context: Context, seed: int) -> None:
    """A small in-order replay must match the in-process simulator."""
    config = ServiceConfig(seed=seed, **IDENTITY)
    frontend = build_frontend(config)
    address = ("unix", os.path.join(context.inputs["directory"], "identity.sock"))
    with FrontendServer(frontend, address) as bound:
        counts = replay_stream(bound, config)
    context.check(counts["errors"] == 0, f"identity replay saw {counts['errors']} errors")
    context.check(
        identity_check(frontend)["identical"],
        "served trace differs from the in-process simulator",
    )
    frontend.service.close()


# -- the server child ------------------------------------------------------


def _serve_main(connection, config, address, traced: bool) -> None:
    tracer = spans.Tracer() if traced else None
    frontend = build_frontend(config)
    if tracer is not None:
        tracer.install(layers.SITES)
    server = FrontendServer(frontend, address)
    server.start()
    connection.send("ready")
    connection.recv()
    server.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {"cpu_s": usage.ru_utime + usage.ru_stime, "rss_kib": usage.ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        report["spans"] = tracer.collect()
        report["work"] = tracer.work
        report["engine"] = engine_counts(tracer.kept["storage.ingest"])
    connection.send(report)
    connection.close()


# -- the client side -------------------------------------------------------


class _Connection:
    """One client thread's tallies."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.uploaded_chunks = 0
        self.restored_chunks = 0
        self.unique_chunks = 0
        self.stored_chunks = 0
        self.logical_bytes = 0
        self.wall_s = 0.0
        self.error: BaseException | None = None


def _send(client: FrontendClient, request, tally: _Connection, tracer) -> None:
    tracer.set_request(request.label)
    started = time.perf_counter()
    if request.kind == UPLOAD:
        kind, payload = client.upload(
            request.tenant, request.round, request.label, request.backup
        )
    else:
        kind, payload = client.restore(request.tenant, request.restore_label)
    tally.latencies.append(time.perf_counter() - started)
    tracer.set_request(None)
    if kind != wire.OK:
        tally.failures.append(f"{request.kind} {request.label}: {payload.get('code')}")
    elif request.kind == UPLOAD:
        tally.uploaded_chunks += payload["total_chunks"]
        tally.unique_chunks += payload["unique_chunks"]
        tally.stored_chunks += payload["stored_chunks"]
        tally.logical_bytes += payload["logical_bytes"]
    else:
        tally.restored_chunks += payload["total_chunks"]


def _connect(address, tracer) -> FrontendClient:
    with tracer.span("client.connect"):
        client = FrontendClient(address)
        client.hello("bench")
    return client


def _drive(address, sessions, bulk: bool, tally: _Connection, tracer) -> None:
    started = time.perf_counter()
    try:
        if bulk:
            with _connect(address, tracer) as client:
                for session in sessions:
                    for request in session:
                        _send(client, request, tally, tracer)
        else:
            for session in sessions:
                with _connect(address, tracer) as client:
                    for request in session:
                        _send(client, request, tally, tracer)
    except BaseException as error:  # noqa: BLE001 - re-raised by iterate()
        tally.error = error
    tally.wall_s = time.perf_counter() - started


def iterate(context: Context, tracer) -> Sample:
    inputs = context.inputs
    address = inputs["address"]
    process_context = multiprocessing.get_context("fork")
    ours, theirs = process_context.Pipe()
    server = process_context.Process(
        target=_serve_main, args=(theirs, inputs["config"], address, tracer.enabled)
    )
    server.start()
    theirs.close()
    try:
        ours.recv()  # "ready"
        tallies = [_Connection() for _ in inputs["plans"]]
        threads = [
            threading.Thread(
                target=_drive, args=(address, sessions, inputs["bulk"], tally, tracer)
            )
            for sessions, tally in zip(inputs["plans"], tallies)
        ]
        with tracer.installed(layers.SITES):
            cpu_started = time.process_time()
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall_s = time.perf_counter() - started
            client_cpu_s = time.process_time() - cpu_started
        for tally in tallies:
            if tally.error is not None:
                raise tally.error
        with FrontendClient(address) as client:
            client.hello("bench-stats")
            stats = client.stats()
        ours.send("stop")
        report = ours.recv()
    finally:
        ours.close()
        server.join(timeout=60)
        if server.is_alive():
            server.kill()
            server.join()

    latencies = [latency for tally in tallies for latency in tally.latencies]
    uploaded = sum(tally.uploaded_chunks for tally in tallies)
    restored = sum(tally.restored_chunks for tally in tallies)
    stored = sum(tally.stored_chunks for tally in tallies)
    logical = sum(tally.logical_bytes for tally in tallies)
    sample = Sample(
        # Uploads and restores interleave on the same connections, so both
        # rates share one wall: chunks/s of each kind under this mix.
        ingest_s=wall_s,
        ingest_chunks=uploaded,
        readout_s=wall_s,
        readout_chunks=restored,
        timed_s=wall_s,
        stored_ratio=stats["stored_bytes"] / logical,
        attempted=len(latencies),
        failures=[message for tally in tallies for message in tally.failures],
        detail={
            "req_per_s": len(latencies) / wall_s,
            "latencies_ms": [latency * 1e3 for latency in latencies],
        },
        busy_s=sum(tally.wall_s for tally in tallies),
        rss_kib=report["rss_kib"],
    )
    sample.check(
        stored == stats["unique_chunks_stored"],
        f"responses stored {stored} chunks, STATS says {stats['unique_chunks_stored']}",
    )
    if tracer.enabled:
        server_table = spans.aggregate(report["spans"])
        ordered = sorted(latencies)
        sample.spans = {"main": tracer.collect(), "server": report["spans"]}
        sample.work = dict(tracer.work)
        for name, amount in report["work"].items():
            sample.work[name] = sample.work.get(name, 0) + amount
        sample.counts = {
            **report["engine"],
            "service.needed_ratio": stored / sum(tally.unique_chunks for tally in tallies),
            "service.stored_ratio": sample.stored_ratio,
            "frontend.cpu_s": report["cpu_s"],
            "frontend.other_s": report["cpu_s"]
            - sum(row["top_s"] for row in server_table.values()),
            "frontend.sessions": stats["sessions_opened"],
            "frontend.frames": stats["frames_in"],
            "frontend.errors": sum(stats["errors"].values()),
            "client.cpu_s": client_cpu_s,
            "client.req_per_s": len(latencies) / wall_s,
            "client.p50_ms": percentile(ordered, 0.50) * 1e3,
            # No percentile with fewer than ten samples beyond it.
            "client.p99_ms": percentile(ordered, 0.99) * 1e3 if len(ordered) >= 1000 else 0.0,
        }
    return sample


def teardown(context: Context) -> None:
    remove_scratch(context.inputs["directory"])
