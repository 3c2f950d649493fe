"""Asyncio framed-socket frontend over the multi-tenant dedup service.

This is the serving tier the threat model assumes: a server speaking the
length-prefixed protocol of :mod:`repro.service.protocol` over TCP or a
Unix socket, multiplexing concurrent per-tenant sessions onto one shared
:class:`~repro.service.server.DedupService` (and through it the
:class:`~repro.index.backends.KVBackend` seam — every upload's index
probe is the same single batched ``lookup_batch`` the in-process path
issues).

Concurrency model
-----------------

One event loop serves every connection, and each connection is **one
coroutine**: read the 4-byte header, bound-check the claimed length,
read the body, decode, serve, write the response, drain — then the next
frame.  Requests of one connection are therefore served strictly in the
order they arrived, so a client may pipeline: frames it sent ahead wait
in the kernel socket buffer and in the ``StreamReader`` buffer, which
stops reading the socket (``pause_reading``) once it holds twice its
64 KiB limit — that, plus TCP pushing back on the sender, is the
backpressure; nothing is parsed before its turn.  Engine calls are
synchronous and run on the loop, so *global* request order — the order
that determines every dedup decision — is exactly the order the loop
resumes the connection coroutines.

Every wait is bounded by one per-connection deadline (an
``asyncio.timeout`` timer handle, moved before each wait; no task per
frame): ``idle_timeout`` for a header and again for its body,
``drain_timeout`` for a response the peer is slow to take — and a
response the socket accepted whole waits for nothing.  A peer that
vanishes ends the session whichever side notices: a failed read is an
EOF; a failed write or drain is counted (``serve.disconnects``), logged,
and no further frame of that connection is served.

Admission control
-----------------

Three layers, all in front of the engine:

* per-tenant token-bucket rate limits and a global session cap
  (:mod:`repro.service.admission`) — over-rate requests get a
  ``rate_limited`` error without touching the engine;
* logical-byte quotas, enforced by the service itself
  (``quota_exceeded`` on the wire, nothing stored);
* transport hygiene: oversized frames are refused without reading the
  payload, idle sessions are evicted after ``idle_timeout``, slow
  readers are aborted when a response drain exceeds ``drain_timeout``,
  and malformed frames answer a fatal error then close.

Identity mode
-------------

With admission disabled (``rate_limit=0``) and requests replayed in
stream order over one connection, a served trace must be byte-identical
to the in-process simulator on the same seeded traffic —
:func:`identity_check` proves it by comparing full
:func:`~repro.service.simulate.inline_report` JSON for both.  The server
builds its service through the same
:func:`~repro.service.simulate.build_service`, serves each request
through the same ``DedupService`` methods, and meters through the same
:class:`~repro.service.meter.SideChannelMeter`, so the only degree of
freedom is serving order — which identity mode pins.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from dataclasses import dataclass, field

from repro import faults, obs
from repro.common.errors import (
    ConfigurationError,
    QuotaExceededError,
    StorageError,
)
from repro.service import protocol as wire
from repro.service.admission import AdmissionController
from repro.service.meter import SideChannelMeter
from repro.service.server import DedupService
from repro.service.simulate import (
    ServiceConfig,
    ServiceTrace,
    build_service,
    inline_report,
    simulate,
)
from repro.service.traffic import UPLOAD, Request

# Address tuples: ("unix", path) or ("tcp", host, port).  Plain tuples so
# they pickle into load-generator worker processes unchanged.
Address = tuple

_log = obs.get_logger("serve")


@dataclass(frozen=True)
class FrontendConfig:
    """Transport and admission knobs for one frontend instance.

    Attributes:
        max_frame_bytes: largest accepted frame body; a header claiming
            more is refused (``oversized_frame``) without reading it.
        idle_timeout: seconds a session may sit between frames before
            eviction (also bounds a half-sent frame).
        drain_timeout: seconds a response drain may take before the
            connection is declared a slow reader and aborted.
        rate_limit: per-tenant request rate (req/s); 0 disables —
            identity mode requires 0.
        burst: per-tenant token-bucket capacity.
        max_sessions: global concurrent-session cap (``busy`` beyond).
        shutdown_grace: seconds a graceful shutdown waits for live
            sessions to finish their queued batches before cancelling
            them (:meth:`DedupFrontend.drain`).
    """

    max_frame_bytes: int = wire.DEFAULT_MAX_FRAME_BYTES
    idle_timeout: float = 30.0
    drain_timeout: float = 10.0
    rate_limit: float = 0.0
    burst: float = 32.0
    max_sessions: int = 4096
    shutdown_grace: float = 5.0


@dataclass
class FrontendStats:
    """Serving counters (exposed verbatim in the STATS frame)."""

    sessions_opened: int = 0
    sessions_closed: int = 0
    frames_in: int = 0
    frames_out: int = 0
    uploads: int = 0
    restores: int = 0
    slow_reader_aborts: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    errors_by_class: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(wire.ERROR_CLASSES, 0)
    )

    def count_error(self, code: str) -> None:
        self.errors[code] = self.errors.get(code, 0) + 1
        cls = wire.error_class(code)
        self.errors_by_class[cls] = self.errors_by_class.get(cls, 0) + 1
        obs.counter("serve.errors", code=code, cls=cls)


# What a connection is waiting on.  The two read waits are the messages
# of their ``idle_timeout`` answers.
_HEADER = "session idle timeout"
_BODY = "frame stalled mid-body"
_DRAIN = "response drain"


class DedupFrontend:
    """Serves the framed protocol over one shared :class:`DedupService`.

    Args:
        service: the dedup service to serve (single-node or clustered).
        service_config: the :class:`ServiceConfig` behind ``service``,
            when there is one — required by :meth:`as_trace` and
            :func:`identity_check`, unused for ad-hoc services.
        config: transport/admission knobs.
        clock: monotonic time source for the admission buckets
            (injectable for deterministic rate-limit tests).
    """

    def __init__(
        self,
        service: DedupService,
        service_config: ServiceConfig | None = None,
        config: FrontendConfig | None = None,
        clock=None,
    ):
        self.service = service
        self.service_config = service_config
        self.config = config or FrontendConfig()
        self.meter = SideChannelMeter(scheme=service.scheme)
        self.stats = FrontendStats()
        self.rejected_uploads = 0
        self.skipped_restores = 0
        kwargs = {} if clock is None else {"clock": clock}
        self.admission = AdmissionController(
            rate_limit=self.config.rate_limit,
            burst=self.config.burst,
            max_sessions=self.config.max_sessions,
            **kwargs,
        )
        self._connections: set[asyncio.Task] = set()
        # Idempotent retry support: responses to requests that carried a
        # client-generated ``rid`` are remembered, so a client resending
        # after a lost response gets the original answer verbatim — the
        # engine and meter never see the request twice.  Bounded FIFO;
        # fault-free clients send no rid, so the cache stays empty.
        self._rid_cache: dict[str, tuple[int, dict]] = {}
        self.final_stats: dict[str, object] | None = None

    # -- the served trace ---------------------------------------------------

    def as_trace(self) -> ServiceTrace:
        """The served requests as a :class:`ServiceTrace`.

        The same structure the simulator produces, so every report
        helper (``headline_metrics``, ``evaluate_pair``,
        ``cluster_report``, :func:`inline_report`) runs on a served
        trace unchanged.
        """
        if self.service_config is None:
            raise ConfigurationError(
                "as_trace() needs the frontend built with a service_config"
            )
        return ServiceTrace(
            config=self.service_config,
            service=self.service,
            meter=self.meter,
            rejected_uploads=self.rejected_uploads,
            skipped_restores=self.skipped_restores,
        )

    # -- connection handling ------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection until it ends; release its session."""
        if not self.admission.admit_session():
            self.stats.count_error(wire.E_BUSY)
            with contextlib.suppress(Exception):
                writer.write(
                    wire.encode_frame(
                        wire.ERROR,
                        wire.error_payload(wire.E_BUSY, "session cap reached"),
                    )
                )
                await writer.drain()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            return
        self.stats.sessions_opened += 1
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            refusal = await self._serve_frames(reader, writer)
            if refusal is not None:
                await self._refuse(writer, refusal)
        except TimeoutError:
            # Slow reader: the peer is not consuming responses.  Abort
            # the transport (no lingering send buffer) and bail out.
            writer.transport.abort()
            self.stats.slow_reader_aborts += 1
            _log.warning("slow reader aborted")
        finally:
            writer.close()
            if task is not None:
                self._connections.discard(task)
            self.admission.release_session()
            self.stats.sessions_closed += 1
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def shutdown(self) -> None:
        """Cancel and await every live connection task (server stop)."""
        tasks = [task for task in self._connections if not task.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._connections.clear()

    async def drain(self, grace: float | None = None) -> dict[str, object]:
        """Graceful shutdown: finish queued batches, then stop.

        The caller has already closed the listener (no new sessions);
        live sessions keep serving their pipelined frames for up to
        ``grace`` seconds (``config.shutdown_grace`` by default), then
        stragglers are cancelled.  The final STATS payload is captured
        in :attr:`final_stats`, logged, and returned — the serving
        tier's last words, emitted exactly once per lifetime.
        """
        grace = self.config.shutdown_grace if grace is None else grace
        tasks = [task for task in self._connections if not task.done()]
        if tasks and grace > 0:
            done, pending = await asyncio.wait(tasks, timeout=grace)
            if pending:
                obs.counter("serve.drain_cancelled", len(pending))
                _log.warning(
                    "drain grace expired",
                    extra={"cancelled_sessions": len(pending)},
                )
        await self.shutdown()
        self.final_stats = self.stats_payload()
        obs.counter("serve.drains")
        _log.info(
            "frontend drained",
            extra={
                "sessions_closed": self.stats.sessions_closed,
                "frames_in": self.stats.frames_in,
                "frames_out": self.stats.frames_out,
                "uploads": self.stats.uploads,
                "restores": self.stats.restores,
            },
        )
        return self.final_stats

    async def _serve_frames(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> wire.ProtocolError | None:
        """The connection's loop: read, decode, serve, answer, repeat.

        Returns ``None`` when the session is over — ``CLOSE``, an
        injected drop, a vanished peer — or the transport abuse the
        caller must answer once before closing: an oversized frame, an
        idle session, a fatal decode error.  A well-delimited frame
        whose payload merely fails to decode is answered here and the
        session kept: framing is still in sync.  Raises ``TimeoutError``
        when a response drain outlasts ``drain_timeout``.
        """
        config, stats = self.config, self.stats
        now = asyncio.get_running_loop().time
        transport = writer.transport
        try:
            # One deadline per connection, moved before each wait.
            async with asyncio.timeout(None) as deadline:
                while True:
                    waiting = _HEADER
                    deadline.reschedule(now() + config.idle_timeout)
                    try:
                        header = await reader.readexactly(wire.HEADER_BYTES)
                        (length,) = wire.HEADER.unpack(header)
                        if length < 1 or length > config.max_frame_bytes:
                            # Refused from the header alone, body unread.
                            return wire.ProtocolError(
                                f"frame of {length} bytes exceeds the "
                                f"{config.max_frame_bytes}-byte limit",
                                wire.E_OVERSIZED,
                            )
                        waiting = _BODY
                        deadline.reschedule(now() + config.idle_timeout)
                        body = await reader.readexactly(length)
                    except (asyncio.IncompleteReadError, OSError):
                        # A disconnect, clean or abrupt, possibly
                        # mid-frame: nobody is left to answer.
                        return None
                    try:
                        kind, payload = wire.decode_body(body)
                    except wire.ProtocolError as error:
                        if error.code in wire.FATAL_CODES:
                            return error
                        stats.count_error(error.code)
                        response_kind, close_after = wire.ERROR, False
                        response = wire.error_payload(error.code, str(error))
                    else:
                        served = await self._serve_frame(
                            kind, payload, deadline, transport
                        )
                        if served is None:
                            return None
                        response_kind, response, close_after = served
                    writer.write(wire.encode_frame(response_kind, response))
                    stats.frames_out += 1
                    # A response the socket took whole waits for nothing.
                    # A transport already closing means the write failed:
                    # drain() is what reports it.
                    if (
                        transport.get_write_buffer_size()
                        or transport.is_closing()
                    ):
                        waiting = _DRAIN
                        deadline.reschedule(now() + config.drain_timeout)
                        if not await self._drain(writer):
                            return None
                    if close_after:
                        return None
        except TimeoutError:
            if waiting is _DRAIN:
                raise
            return wire.ProtocolError(waiting, wire.E_IDLE)

    async def _serve_frame(
        self,
        kind: int,
        payload: dict,
        deadline: asyncio.Timeout,
        transport: asyncio.Transport,
    ) -> tuple[int, dict, bool] | None:
        """Count, fault and serve one decoded request.

        Returns :meth:`_serve`'s ``(kind, payload, close_after)``, or
        ``None`` when an injected drop aborted the connection.
        """
        self.stats.frames_in += 1
        frame_name = wire.FRAME_NAMES[kind]
        obs.counter("serve.frames", kind=frame_name)
        # Injected server-side faults: a drop abruptly aborts the
        # connection (before serving by default, so the request never
        # executed — or after, exercising the rid-replay path); a stall
        # delays the response without touching it.
        drop = faults.fire("serve.drop", kind=frame_name)
        if drop is not None and drop.get("when", "before") == "before":
            _log.warning("injected drop", extra={"kind": frame_name})
            transport.abort()
            return None
        stall = faults.fire("serve.stall", kind=frame_name)
        if stall is not None:
            deadline.reschedule(None)
            await asyncio.sleep(float(stall.get("delay_s", 0.05)))
        started = time.perf_counter()
        with obs.span("serve.frame", kind=frame_name):
            served = self._serve(kind, payload)
        obs.observe(
            "serve.latency_s", time.perf_counter() - started, kind=frame_name
        )
        if drop is not None:
            # when == "after": the request was served (and its rid
            # response remembered) but the answer is lost in flight.
            _log.warning(
                "injected drop after serve", extra={"kind": frame_name}
            )
            transport.abort()
            return None
        return served

    async def _drain(self, writer: asyncio.StreamWriter) -> bool:
        """Wait for buffered responses to leave; ``False`` if they cannot.

        A failed write or drain is a disconnect — the peer vanished with
        responses unread: counted, logged, and the session ends like an
        EOF (the caller serves nothing further).
        """
        try:
            await writer.drain()
        except OSError as error:
            obs.counter("serve.disconnects")
            _log.warning("peer vanished", extra={"detail": repr(error)})
            return False
        return True

    async def _refuse(
        self, writer: asyncio.StreamWriter, refusal: wire.ProtocolError
    ) -> None:
        """Answer transport abuse once; the caller then closes."""
        self.stats.count_error(refusal.code)
        _log.warning(
            "fatal transport error",
            extra={"code": refusal.code, "detail": str(refusal)},
        )
        writer.write(
            wire.encode_frame(
                wire.ERROR, wire.error_payload(refusal.code, str(refusal))
            )
        )
        self.stats.frames_out += 1
        async with asyncio.timeout(self.config.drain_timeout):
            await self._drain(writer)

    # -- request dispatch (synchronous, ordered by the event loop) ----------

    def _serve(self, kind: int, payload: dict) -> tuple[int, dict, bool]:
        """Serve one request; returns (kind, payload, close_after)."""
        try:
            if kind == wire.HELLO:
                return self._serve_hello(payload)
            if kind == wire.UPLOAD_BATCH:
                return self._serve_upload(payload)
            if kind == wire.RESTORE:
                return self._serve_restore(payload)
            if kind == wire.STATS:
                return wire.OK, self.stats_payload(), False
            if kind == wire.CLOSE:
                return wire.OK, {"closed": True}, True
            # Unreachable for wire traffic (decode_body refuses unknown
            # kinds before they are served), kept for in-process callers.
            self.stats.count_error(wire.E_UNKNOWN_KIND)
            return (
                wire.ERROR,
                wire.error_payload(
                    wire.E_UNKNOWN_KIND, f"unknown frame kind 0x{kind:02x}"
                ),
                True,
            )
        except wire.ProtocolError as error:
            # A malformed payload in a well-framed message: answer the
            # error and keep the session — framing is still in sync.
            self.stats.count_error(error.code)
            return wire.ERROR, wire.error_payload(error.code, str(error)), False

    def _serve_hello(self, payload: dict) -> tuple[int, dict, bool]:
        version = payload.get("protocol")
        if version != wire.PROTOCOL_VERSION:
            self.stats.count_error(wire.E_PROTOCOL)
            return (
                wire.ERROR,
                wire.error_payload(
                    wire.E_PROTOCOL,
                    f"protocol {version!r} unsupported "
                    f"(server speaks {wire.PROTOCOL_VERSION})",
                ),
                True,
            )
        return (
            wire.OK,
            {
                "server": "freqdedup-frontend",
                "protocol": wire.PROTOCOL_VERSION,
                "scheme": self.service.scheme.value,
            },
            False,
        )

    # Bounded FIFO over remembered rid responses; old enough entries can
    # only belong to requests whose retries have long since resolved.
    _RID_CACHE_LIMIT = 4096

    def _replayed(self, payload: dict) -> tuple[int, dict] | None:
        """The remembered response for a retried rid, if any."""
        rid = payload.get("rid")
        if isinstance(rid, str) and rid in self._rid_cache:
            obs.counter("serve.rid_replays")
            return self._rid_cache[rid]
        return None

    def _remember(self, payload: dict, kind: int, response: dict) -> None:
        """Remember a rid request's final response for idempotent replay.

        Admission rejections are deliberately *not* remembered — a retry
        should re-attempt admission, not replay the rejection.
        """
        rid = payload.get("rid")
        if not isinstance(rid, str):
            return
        if len(self._rid_cache) >= self._RID_CACHE_LIMIT:
            self._rid_cache.pop(next(iter(self._rid_cache)))
        self._rid_cache[rid] = (kind, response)

    def _serve_upload(self, payload: dict) -> tuple[int, dict, bool]:
        tenant, round_index, label, backup = wire.parse_upload(payload)
        replayed = self._replayed(payload)
        if replayed is not None:
            return (*replayed, False)
        if not self.admission.admit_request(tenant):
            self.stats.count_error(wire.E_RATE_LIMITED)
            return (
                wire.ERROR,
                wire.error_payload(
                    wire.E_RATE_LIMITED,
                    f"tenant {tenant} exceeded "
                    f"{self.config.rate_limit:g} req/s",
                ),
                False,
            )
        request = Request(
            kind=UPLOAD,
            tenant=tenant,
            round=round_index,
            label=label,
            backup=backup,
        )
        try:
            result = self.service.upload(tenant, backup, label=label)
        except QuotaExceededError as error:
            self.rejected_uploads += 1
            self.stats.count_error(wire.E_QUOTA)
            response = wire.error_payload(wire.E_QUOTA, str(error))
            self._remember(payload, wire.ERROR, response)
            return wire.ERROR, response, False
        except ConfigurationError as error:
            self.stats.count_error(wire.E_CONFLICT)
            response = wire.error_payload(wire.E_CONFLICT, str(error))
            self._remember(payload, wire.ERROR, response)
            return wire.ERROR, response, False
        self.meter.observe_upload(request, result)
        self.stats.uploads += 1
        response = wire.observables_payload(result.observables)
        self._remember(payload, wire.OK, response)
        return wire.OK, response, False

    def _serve_restore(self, payload: dict) -> tuple[int, dict, bool]:
        tenant, label = wire.parse_restore(payload)
        replayed = self._replayed(payload)
        if replayed is not None:
            return (*replayed, False)
        if not self.admission.admit_request(tenant):
            self.stats.count_error(wire.E_RATE_LIMITED)
            return (
                wire.ERROR,
                wire.error_payload(
                    wire.E_RATE_LIMITED,
                    f"tenant {tenant} exceeded "
                    f"{self.config.rate_limit:g} req/s",
                ),
                False,
            )
        try:
            observables, _ = self.service.restore(tenant, label)
        except StorageError as error:
            # The in-process simulator skips restores whose upload was
            # quota-rejected; over the wire the same condition surfaces
            # as not_found — counted identically (skipped_restores).
            self.skipped_restores += 1
            self.stats.count_error(wire.E_NOT_FOUND)
            response = wire.error_payload(wire.E_NOT_FOUND, str(error))
            self._remember(payload, wire.ERROR, response)
            return wire.ERROR, response, False
        self.meter.observe_restore(observables)
        self.stats.restores += 1
        response = wire.observables_payload(observables)
        self._remember(payload, wire.OK, response)
        return wire.OK, response, False

    def stats_payload(self) -> dict[str, object]:
        """The STATS response: serving counters + store totals."""
        stats = self.stats
        payload: dict[str, object] = {
            "sessions_opened": stats.sessions_opened,
            "sessions_closed": stats.sessions_closed,
            "active_sessions": self.admission.active_sessions,
            "frames_in": stats.frames_in,
            "frames_out": stats.frames_out,
            "uploads": stats.uploads,
            "restores": stats.restores,
            "rejected_uploads": self.rejected_uploads,
            "skipped_restores": self.skipped_restores,
            "slow_reader_aborts": stats.slow_reader_aborts,
            "errors": dict(sorted(stats.errors.items())),
            "errors_by_class": dict(sorted(stats.errors_by_class.items())),
            "admission": self.admission.snapshot(),
            "tenants": len(self.service.tenants()),
            "stored_bytes": self.service.stored_bytes,
            "unique_chunks_stored": self.service.unique_chunks_stored(),
        }
        if obs.enabled():
            # Telemetry rides in the STATS frame only while metrics are
            # on, so the disabled-mode payload stays byte-identical.
            self.service.publish_metrics()
            payload["metrics"] = obs.snapshot()
        return payload


# -- running a frontend -------------------------------------------------------


async def start_frontend(
    frontend: DedupFrontend, address: Address
) -> tuple[asyncio.AbstractServer, Address]:
    """Bind ``frontend`` on ``address`` inside the running loop.

    Args:
        frontend: the frontend to serve.
        address: ``("unix", path)`` or ``("tcp", host, port)`` — port 0
            binds an ephemeral port, returned in the resolved address.

    Returns:
        The asyncio server plus the resolved (bound) address.
    """
    if address[0] == "unix":
        server = await asyncio.start_unix_server(
            frontend.handle_connection, path=address[1]
        )
        return server, ("unix", address[1])
    if address[0] == "tcp":
        host, port = address[1], address[2]
        server = await asyncio.start_server(
            frontend.handle_connection, host, port
        )
        bound = server.sockets[0].getsockname()
        return server, ("tcp", bound[0], bound[1])
    raise ConfigurationError(f"unknown address kind {address[0]!r}")


class FrontendServer:
    """Runs a :class:`DedupFrontend` on a background thread's event loop.

    The engine underneath is synchronous, so the serving loop lives on
    one dedicated thread; client processes (the load generator, the
    CLI, benchmarks) talk to it over the socket like any remote peer.
    Use as a context manager, or ``start()``/``stop()`` explicitly::

        with FrontendServer(frontend, ("unix", path)) as address:
            client = FrontendClient(address)

    ``stop()`` shuts the listener down and joins the thread; it does not
    close the underlying service (the caller may still want to inspect
    or report on the served trace first).
    """

    def __init__(self, frontend: DedupFrontend, address: Address):
        self.frontend = frontend
        self.requested = address
        self.address: Address | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Future | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None

    def start(self) -> Address:
        """Start serving; returns the bound address."""
        self._thread = threading.Thread(
            target=self._run, name="freqdedup-frontend", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise StorageError("frontend server failed to start in 30s")
        if self._error is not None:
            raise StorageError(
                f"frontend server failed to start: {self._error}"
            )
        assert self.address is not None
        return self.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as error:  # surface bind failures to start()
            self._error = error
            self._started.set()
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._stop = loop.create_future()
        server, self.address = await start_frontend(
            self.frontend, self.requested
        )
        self._started.set()
        try:
            await self._stop
        finally:
            # Graceful drain: the listener is closed first (no new
            # sessions), live sessions finish their queued batches up
            # to the grace period, and the final STATS snapshot lands
            # in ``frontend.final_stats``.
            server.close()
            await server.wait_closed()
            await self.frontend.drain()

    def stop(self) -> None:
        """Stop the listener and join the serving thread."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            def _finish() -> None:
                if not stop.done():
                    stop.set_result(None)

            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(_finish)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> Address:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def build_frontend(
    service_config: ServiceConfig, config: FrontendConfig | None = None
) -> DedupFrontend:
    """A frontend over a freshly built service for ``service_config``."""
    return DedupFrontend(
        build_service(service_config),
        service_config=service_config,
        config=config,
    )


# -- identity mode ------------------------------------------------------------


def identity_check(frontend: DedupFrontend) -> dict[str, object]:
    """Compare a served trace with the in-process simulator, byte-for-byte.

    Both traces render through :func:`inline_report` — config echo,
    traffic totals, headline metrics, per-tenant usage, the bandwidth
    side-channel series, the full cross-tenant attack table, and (when
    clustered) the per-node load/skew and partial-view sections — and
    the two JSON documents are compared for equality.

    Returns:
        ``{"identical": bool, "served": report, "expected": report}``.
    """
    served = inline_report(frontend.as_trace())
    expected = inline_report(simulate(frontend.service_config))
    return {
        "identical": json.dumps(served, sort_keys=True)
        == json.dumps(expected, sort_keys=True),
        "served": served,
        "expected": expected,
    }
