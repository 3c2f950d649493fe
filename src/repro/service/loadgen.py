"""Blocking protocol client and the multi-process load generator.

Two consumers of the wire protocol live here:

* :class:`FrontendClient` — a small blocking client over a plain
  ``socket``, used by the replay/identity path, the load-generator
  workers, the CLI, the benchmarks, and (via :meth:`send_raw`) the
  protocol-robustness tests.
* :func:`run_loadgen` — replays a :class:`ServiceConfig`'s synthesized
  ``TrafficModel`` stream against a running frontend from N **client
  processes**.  Tenants are partitioned round-robin across workers and
  each worker opens one connection per *(tenant, round)* — a tenant
  session, the unit the acceptance numbers count — measuring
  per-request wall latency.  Workers re-synthesize the (memoised)
  request stream from the config instead of shipping backups through
  pickles, so fan-out cost stays flat in trace size.

:func:`replay_stream` is the other replay mode: one connection sending
the *interleaved* stream in exact order — the serving order the
simulator uses — which is what identity mode needs.
"""

from __future__ import annotations

import math
import socket
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro import faults, obs
from repro.common.errors import StorageError
from repro.datasets.model import Backup
from repro.service import protocol as wire
from repro.service.simulate import ServiceConfig, traffic_requests
from repro.service.traffic import UPLOAD


@dataclass(frozen=True)
class RetryPolicy:
    """Capped-exponential retry for the frame client.

    ``attempts`` is the total number of tries per request; backoff
    before retry *i* is :func:`repro.faults.backoff_delay` of attempt
    ``i`` — capped exponential with jitter drawn deterministically from
    ``(seed, request id, attempt)``, so retried runs stay reproducible.
    """

    attempts: int = 5
    backoff_base: float = 0.01
    backoff_cap: float = 0.25
    seed: int = 0

    def delay(self, attempt: int, key: str) -> float:
        return faults.backoff_delay(
            attempt,
            base=self.backoff_base,
            cap=self.backoff_cap,
            seed=self.seed,
            key=key,
        )


class GaveUpError(StorageError):
    """A request exhausted its retry budget without a final answer."""


class FrontendClient:
    """A blocking client speaking the framed protocol.

    Args:
        address: ``("unix", path)`` or ``("tcp", host, port)``.
        timeout: socket timeout in seconds for connect/send/recv.

    Reads are buffered per connection — one ``recv`` usually brings a
    whole response, header and body — and the buffer lives and dies with
    the socket.  A response may be at most
    ``protocol.DEFAULT_MAX_FRAME_BYTES``; a header claiming more (or
    nothing) is a corrupt stream and raises ``ConnectionError``.

    With a :class:`RetryPolicy` (:meth:`request_with_retry`), a dropped
    connection or fatal transport answer triggers reconnect + re-HELLO
    (sessions are stateless beyond the handshake, so resume is just a
    new handshake) and an idempotent resend: the request carries a
    client-unique ``rid`` the server uses to replay the original
    response if the first send actually executed.  ``retries``,
    ``reconnects`` and ``gave_up`` count the policy's work.
    """

    def __init__(self, address, timeout: float = 30.0):
        self.address = address
        self.timeout = timeout
        self.retries = 0
        self.reconnects = 0
        self.gave_up = 0
        self._hello_client: str | None = None
        self._connect()

    def _connect(self) -> None:
        # The one place a socket is made, so the one place its read
        # buffer is: a new connection never inherits unparsed bytes.
        self._buffer = bytearray()
        address = self.address
        if address[0] == "unix":
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(self.timeout)
            self._sock.connect(address[1])
        elif address[0] == "tcp":
            self._sock = socket.create_connection(
                (address[1], address[2]), timeout=self.timeout
            )
        else:
            raise StorageError(f"unknown address kind {address[0]!r}")

    def reconnect(self) -> None:
        """Tear down the socket and resume: fresh connection, re-HELLO."""
        try:
            self._sock.close()
        except OSError:
            pass
        self._connect()
        self.reconnects += 1
        if self._hello_client is not None:
            self.hello(self._hello_client)

    # -- raw transport (the robustness tests poke the framing layer) --------

    def send_raw(self, data: bytes) -> None:
        """Send arbitrary bytes — deliberately unframed."""
        self._sock.sendall(data)

    def recv_exact(self, count: int) -> bytes:
        buffer = self._buffer
        while len(buffer) < count:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        data = bytes(buffer[:count])
        del buffer[:count]
        return data

    def recv_frame(self) -> tuple[int, dict]:
        """Read one response frame; returns ``(kind, payload)``.

        Raises ``ConnectionError`` for a length outside the protocol's
        bound: the stream is corrupt, and the retry path reconnects.
        """
        (length,) = wire.HEADER.unpack(self.recv_exact(wire.HEADER_BYTES))
        if not 1 <= length <= wire.DEFAULT_MAX_FRAME_BYTES:
            raise ConnectionError(f"server claims a frame of {length} bytes")
        return wire.decode_body(self.recv_exact(length))

    # -- framed requests ----------------------------------------------------

    def request(self, kind: int, payload: dict) -> tuple[int, dict]:
        """Send one frame and read one response."""
        self._sock.sendall(wire.encode_frame(kind, payload))
        return self.recv_frame()

    def request_with_retry(
        self, kind: int, payload: dict, policy: RetryPolicy, rid: str
    ) -> tuple[int, dict]:
        """Send idempotently under ``policy``: retry lost connections.

        The payload is stamped with ``rid`` so a resend after a lost
        *response* replays the server's remembered answer instead of
        re-executing.  A fatal transport answer (the server closes the
        connection after it) also retries — the session is gone either
        way.  Raises :class:`GaveUpError` after the attempt budget.
        """
        payload = dict(payload)
        payload["rid"] = rid
        failure: Exception | None = None
        for attempt in range(max(1, policy.attempts)):
            if attempt:
                self.retries += 1
                time.sleep(policy.delay(attempt - 1, rid))
                try:
                    self.reconnect()
                except (OSError, StorageError) as error:
                    failure = error
                    continue
            try:
                drop = faults.fire("client.drop", rid=rid)
                if drop is not None:
                    # Injected client-side connection loss: kill our
                    # half mid-request, exactly like a flaky network.
                    self._sock.close()
                    raise ConnectionError("injected client-side drop")
                corrupt = faults.fire("client.corrupt", rid=rid)
                if corrupt is not None:
                    # Injected stream corruption: a header claiming an
                    # absurd frame.  The server answers a fatal
                    # oversized_frame and closes; recover by retrying.
                    self.send_raw(wire.HEADER.pack(0xFFFFFFF))
                    self.recv_frame()
                    raise ConnectionError("injected corrupt frame")
                response_kind, response = self.request(kind, payload)
            except (ConnectionError, OSError) as error:
                failure = error
                continue
            if (
                response_kind == wire.ERROR
                and response.get("code") in wire.FATAL_CODES
            ):
                failure = ConnectionError(
                    f"fatal server answer: {response.get('code')}"
                )
                continue
            return response_kind, response
        self.gave_up += 1
        raise GaveUpError(
            f"request {rid} gave up after {policy.attempts} attempts: "
            f"{failure}"
        )

    def hello(self, client: str = "freqdedup-loadgen") -> dict:
        self._hello_client = client
        kind, payload = self.request(wire.HELLO, wire.hello_payload(client))
        if kind != wire.OK:
            raise StorageError(
                f"HELLO refused: {payload.get('code')}: "
                f"{payload.get('message')}"
            )
        return payload

    def hello_with_retry(self, client: str, policy: RetryPolicy) -> dict:
        """HELLO under ``policy``: a dropped handshake reconnects and
        re-greets.  HELLO opens no state worth replaying, so a plain
        resend on a fresh connection is already idempotent."""
        failure: Exception | None = None
        for attempt in range(max(1, policy.attempts)):
            if attempt:
                self.retries += 1
                time.sleep(policy.delay(attempt - 1, "hello"))
                try:
                    self._sock.close()
                except OSError:
                    pass
                try:
                    self._connect()
                    self.reconnects += 1
                except OSError as error:
                    failure = error
                    continue
            try:
                return self.hello(client)
            except (ConnectionError, OSError) as error:
                failure = error
        self.gave_up += 1
        raise GaveUpError(
            f"HELLO gave up after {policy.attempts} attempts: {failure}"
        )

    def upload(
        self, tenant: int, round_index: int, label: str, backup: Backup
    ) -> tuple[int, dict]:
        return self.request(
            wire.UPLOAD_BATCH,
            wire.upload_payload(tenant, round_index, label, backup),
        )

    def restore(self, tenant: int, label: str) -> tuple[int, dict]:
        return self.request(wire.RESTORE, wire.restore_payload(tenant, label))

    def stats(self) -> dict:
        kind, payload = self.request(wire.STATS, {})
        if kind != wire.OK:
            raise StorageError(f"STATS failed: {payload}")
        return payload

    def close(self, polite: bool = True) -> None:
        """Close the session (politely with a CLOSE frame by default)."""
        if polite:
            try:
                self.request(wire.CLOSE, {})
            except OSError:
                pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "FrontendClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(polite=exc_info[0] is None)


def _send_request(
    client: FrontendClient,
    request,
    retry: RetryPolicy | None = None,
    rid: str | None = None,
) -> tuple[int, dict]:
    if request.kind == UPLOAD:
        kind, payload = wire.UPLOAD_BATCH, wire.upload_payload(
            request.tenant, request.round, request.label, request.backup
        )
    else:
        kind, payload = wire.RESTORE, wire.restore_payload(
            request.tenant, request.restore_label
        )
    if retry is None:
        return client.request(kind, payload)
    assert rid is not None
    return client.request_with_retry(kind, payload, retry, rid)


# -- identity replay ----------------------------------------------------------


def replay_stream(
    address, config: ServiceConfig, retry: RetryPolicy | None = None
) -> dict[str, object]:
    """Replay the full interleaved stream, in order, over one connection.

    This is identity mode's client half: the global serving order equals
    the stream order, so the served trace must match the in-process
    simulator byte for byte.  Quota rejections and failed restores are
    counted exactly the way the simulator counts them.

    With a :class:`RetryPolicy`, every request goes through the
    idempotent retry path (reconnect, re-HELLO, rid resend) so injected
    drops and stalls don't break the replay — and because the resends
    are idempotent, the served trace *still* matches the simulator.

    Returns:
        ``{"requests", "uploads", "restores", "rejected_uploads",
        "skipped_restores", "errors"}`` — ``errors`` counts any response
        code other than the two expected rejection codes.  With a retry
        policy, also ``{"retries", "reconnects", "gave_up"}`` (the
        fault-free report shape is unchanged).
    """
    requests = traffic_requests(config)
    counts = {
        "requests": len(requests),
        "uploads": 0,
        "restores": 0,
        "rejected_uploads": 0,
        "skipped_restores": 0,
        "errors": 0,
    }
    with FrontendClient(address) as client:
        if retry is None:
            client.hello("freqdedup-replay")
        else:
            client.hello_with_retry("freqdedup-replay", retry)
        for index, request in enumerate(requests):
            try:
                kind, payload = _send_request(
                    client, request, retry, f"replay-{index}"
                )
            except GaveUpError:
                counts["errors"] += 1
                continue
            if kind == wire.OK:
                counts["uploads" if request.kind == UPLOAD else "restores"] += 1
            elif payload.get("code") == wire.E_QUOTA:
                counts["rejected_uploads"] += 1
            elif payload.get("code") == wire.E_NOT_FOUND:
                counts["skipped_restores"] += 1
            else:
                counts["errors"] += 1
        if retry is not None:
            counts["retries"] = client.retries
            counts["reconnects"] = client.reconnects
            counts["gave_up"] = client.gave_up
    return counts


# -- multi-process load generation --------------------------------------------


@dataclass
class WorkerReport:
    """One worker process's share of a load-generation run."""

    worker: int
    tenants: int
    sessions: int
    requests: int
    ok: int
    errors: dict[str, int] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    # Retry accounting (zero unless the run carried a RetryPolicy).
    retries: int = 0
    reconnects: int = 0
    gave_up: int = 0
    # Client-side metrics snapshot, shipped back for the parent merge
    # (None while metrics are off).
    metrics: dict | None = None


def _replay_worker(
    address,
    config: ServiceConfig,
    worker: int,
    processes: int,
    retry: RetryPolicy | None = None,
) -> WorkerReport:
    """Replay this worker's tenant partition, one session per round.

    Runs in a child process: re-synthesizes the (memoised, deterministic)
    request stream locally and keeps only tenants congruent to
    ``worker`` modulo ``processes``.
    """
    report = WorkerReport(worker=worker, tenants=0, sessions=0, requests=0, ok=0)
    registry = obs.worker_registry()
    by_tenant: dict[int, dict[int, list]] = {}
    for request in traffic_requests(config):
        if request.tenant % processes != worker:
            continue
        by_tenant.setdefault(request.tenant, {}).setdefault(
            request.round, []
        ).append(request)
    report.tenants = len(by_tenant)
    for tenant in sorted(by_tenant):
        for round_index in sorted(by_tenant[tenant]):
            with FrontendClient(address) as client:
                if retry is None:
                    client.hello(f"loadgen-w{worker}")
                else:
                    client.hello_with_retry(f"loadgen-w{worker}", retry)
                report.sessions += 1
                for sequence, request in enumerate(
                    by_tenant[tenant][round_index]
                ):
                    rid = f"w{worker}-t{tenant}-r{round_index}-{sequence}"
                    started = time.perf_counter()
                    try:
                        kind, payload = _send_request(
                            client, request, retry, rid
                        )
                    except GaveUpError:
                        kind = wire.ERROR
                        payload = {"code": "gave_up"}
                    elapsed = time.perf_counter() - started
                    report.latencies.append(elapsed)
                    report.requests += 1
                    if registry is not None:
                        registry.observe(
                            "loadgen.latency_s", elapsed, kind=request.kind
                        )
                    if kind == wire.OK:
                        report.ok += 1
                        if registry is not None:
                            registry.counter("loadgen.ok", kind=request.kind)
                    else:
                        code = str(payload.get("code"))
                        report.errors[code] = report.errors.get(code, 0) + 1
                        if registry is not None:
                            registry.counter(
                                "loadgen.errors",
                                code=code,
                                cls=wire.error_class(code),
                            )
                report.retries += client.retries
                report.reconnects += client.reconnects
                report.gave_up += client.gave_up
                if registry is not None and client.retries:
                    registry.counter("loadgen.retries", client.retries)
    if registry is not None:
        report.metrics = registry.snapshot()
    return report


def percentile(values: list[float], quantile: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be sorted)."""
    if not values:
        return 0.0
    rank = max(1, math.ceil(quantile * len(values)))
    return values[min(rank, len(values)) - 1]


def run_loadgen(
    address,
    config: ServiceConfig,
    processes: int = 2,
    retry: RetryPolicy | None = None,
) -> dict[str, object]:
    """Replay ``config``'s traffic from ``processes`` client processes.

    Tenants are partitioned round-robin across workers; each worker
    opens one connection per (tenant, round) — a *tenant session* — and
    sends that session's requests back to back, timing each.

    Returns:
        A JSON-safe report: processes, tenants, sessions, requests, ok,
        per-code and per-error-class counts, elapsed seconds, sustained
        requests per second, and latency percentiles (p50/p90/p99/max,
        milliseconds).  With metrics enabled, each worker's client-side
        registry snapshot is merged into the process-global registry.
    """
    processes = max(1, int(processes))
    started = time.perf_counter()
    if processes == 1:
        reports = [_replay_worker(address, config, 0, 1, retry)]
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            reports = list(
                pool.map(
                    _replay_worker,
                    [address] * processes,
                    [config] * processes,
                    range(processes),
                    [processes] * processes,
                    [retry] * processes,
                )
            )
    elapsed = time.perf_counter() - started
    latencies = sorted(
        latency for report in reports for latency in report.latencies
    )
    errors: dict[str, int] = {}
    errors_by_class = dict.fromkeys(wire.ERROR_CLASSES, 0)
    for report in reports:
        for code, count in report.errors.items():
            errors[code] = errors.get(code, 0) + count
            errors_by_class[wire.error_class(code)] += count
        obs.merge_snapshot(report.metrics)
    requests = sum(report.requests for report in reports)
    retry_section = (
        {
            "retries": {
                "attempts": retry.attempts,
                "retries": sum(report.retries for report in reports),
                "reconnects": sum(report.reconnects for report in reports),
                "gave_up": sum(report.gave_up for report in reports),
            }
        }
        if retry is not None
        else {}
    )
    return {
        **retry_section,
        "processes": processes,
        "tenants": sum(report.tenants for report in reports),
        "sessions": sum(report.sessions for report in reports),
        "requests": requests,
        "ok": sum(report.ok for report in reports),
        "errors": dict(sorted(errors.items())),
        "errors_by_class": dict(sorted(errors_by_class.items())),
        "elapsed_s": round(elapsed, 6),
        "requests_per_s": round(requests / elapsed, 3) if elapsed > 0 else 0.0,
        "latency_ms": {
            "p50": round(percentile(latencies, 0.50) * 1e3, 3),
            "p90": round(percentile(latencies, 0.90) * 1e3, 3),
            "p99": round(percentile(latencies, 0.99) * 1e3, 3),
            "max": round((latencies[-1] if latencies else 0.0) * 1e3, 3),
        },
    }
