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
protocol object** (an ``asyncio.Protocol``; no stream pair, no task):
``data_received`` appends to the connection's buffer and serves, then
and there, every whole frame the buffer holds — bound-check the length
from the header alone, cut the body, decode, serve, write the response —
until only an incomplete frame is left.  Requests of one connection are
therefore served strictly in the order they arrived, so a client may
pipeline.  Two things *hold* a session, and a held session does not
read its socket (``pause_reading``): the transport reporting its write
buffer over the 64 KiB high-water mark (the peer is not taking
responses), and an injected stall.  Frames sent ahead then wait in the
kernel socket buffer and in the connection's buffer, which is bounded by
one incomplete frame (at most ``max_frame_bytes``) plus one 256 KiB
read — that, plus TCP pushing back on the sender, is the backpressure;
nothing is parsed before its turn.  Engine calls are synchronous and run
on the loop, so *global* request order — the order that determines every
dedup decision — is exactly the order the selector reports the sockets
readable.

Every wait is bounded by one per-connection deadline: ``idle_timeout``
for a header and again for its body, ``drain_timeout`` for responses the
peer is slow to take — and a response the socket accepted whole waits
for nothing.  The deadline moves when a wait *begins* (a header
completed, a frame answered), never while it continues, so bytes
trickling in do not keep a session alive; its one timer handle per
connection is lazy — it re-arms itself when it fires before a deadline
that has since moved on, and is replaced only for a deadline earlier
than the one it was set for.  A peer that vanishes ends the session
whichever side notices: a failed read or an EOF just ends it; a failed
write is counted (``serve.disconnects``), logged, and no further frame
of that connection is served.

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
# What serving one request comes to: (frame kind, payload, close_after).
Answer = tuple[int, dict, bool]

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
            sessions to finish their queued batches before aborting
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
        self._connections: set[_Session] = set()
        # Set by the last ``connection_lost`` while someone waits for it.
        self._idle: asyncio.Event | None = None
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

    # -- connection lifetime (the per-connection work is _Session's) --------

    async def shutdown(self) -> None:
        """Abort every live connection and wait them out (server stop)."""
        for session in list(self._connections):
            session.transport.abort()
        await self._quiesced(None)

    async def _quiesced(self, timeout: float | None) -> bool:
        """Wait for the last ``connection_lost``; ``False`` on timeout."""
        if self._connections:
            self._idle = asyncio.Event()
            try:
                async with asyncio.timeout(timeout):
                    await self._idle.wait()
            except TimeoutError:
                return False
            finally:
                self._idle = None
        return True

    async def drain(self, grace: float | None = None) -> dict[str, object]:
        """Graceful shutdown: finish queued batches, then stop.

        The caller has already closed the listener (no new sessions);
        live sessions keep serving their pipelined frames for up to
        ``grace`` seconds (``config.shutdown_grace`` by default), then
        stragglers are aborted.  The final STATS payload is captured
        in :attr:`final_stats`, logged, and returned — the serving
        tier's last words, emitted exactly once per lifetime.
        """
        grace = self.config.shutdown_grace if grace is None else grace
        if grace > 0 and not await self._quiesced(grace):
            obs.counter("serve.drain_cancelled", len(self._connections))
            _log.warning(
                "drain grace expired",
                extra={"cancelled_sessions": len(self._connections)},
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

    # -- request dispatch (synchronous, ordered by the event loop) ----------

    def _serve(self, kind: int, payload: dict) -> Answer:
        """Serve one request."""
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
            # A response kind (OK / ERROR) sent as a request: decode_body
            # accepts every kind the protocol defines, so it arrives here.
            raise wire.ProtocolError(
                f"unknown frame kind 0x{kind:02x}", wire.E_UNKNOWN_KIND
            )
        except wire.ProtocolError as error:
            # A malformed payload in a well-framed message keeps the
            # session (framing is still in sync); a fatal code ends it.
            self.stats.count_error(error.code)
            fatal = error.code in wire.FATAL_CODES
            return wire.ERROR, wire.error_payload(error.code, str(error)), fatal

    def _serve_hello(self, payload: dict) -> Answer:
        version = payload.get("protocol")
        if version != wire.PROTOCOL_VERSION:
            raise wire.ProtocolError(
                f"protocol {version!r} unsupported "
                f"(server speaks {wire.PROTOCOL_VERSION})",
                wire.E_PROTOCOL,
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

    def _preempted(self, payload: dict, tenant: int) -> Answer | None:
        """The answer that stands in for serving a parsed request, if
        any: the remembered response of a retried rid, or a rate limit."""
        rid = payload.get("rid")
        if isinstance(rid, str) and rid in self._rid_cache:
            obs.counter("serve.rid_replays")
            return (*self._rid_cache[rid], False)
        if self.admission.admit_request(tenant):
            return None
        self.stats.count_error(wire.E_RATE_LIMITED)
        return (
            wire.ERROR,
            wire.error_payload(
                wire.E_RATE_LIMITED,
                f"tenant {tenant} exceeded {self.config.rate_limit:g} req/s",
            ),
            False,
        )

    def _final(self, payload: dict, kind: int, response: dict) -> Answer:
        """A request's final answer, remembered under its rid (if it
        carries one) for idempotent replay.

        Admission rejections are deliberately *not* remembered — a retry
        should re-attempt admission, not replay the rejection.
        """
        rid = payload.get("rid")
        if isinstance(rid, str):
            if len(self._rid_cache) >= self._RID_CACHE_LIMIT:
                self._rid_cache.pop(next(iter(self._rid_cache)))
            self._rid_cache[rid] = (kind, response)
        return kind, response, False

    def _failed(self, payload: dict, code: str, error: Exception) -> Answer:
        """The final answer of a request the engine refused."""
        self.stats.count_error(code)
        return self._final(
            payload, wire.ERROR, wire.error_payload(code, str(error))
        )

    def _serve_upload(self, payload: dict) -> Answer:
        tenant, round_index, label, backup = wire.parse_upload(payload)
        preempted = self._preempted(payload, tenant)
        if preempted is not None:
            return preempted
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
            return self._failed(payload, wire.E_QUOTA, error)
        except ConfigurationError as error:
            return self._failed(payload, wire.E_CONFLICT, error)
        self.meter.observe_upload(request, result)
        self.stats.uploads += 1
        return self._final(
            payload, wire.OK, wire.observables_payload(result.observables)
        )

    def _serve_restore(self, payload: dict) -> Answer:
        tenant, label = wire.parse_restore(payload)
        preempted = self._preempted(payload, tenant)
        if preempted is not None:
            return preempted
        try:
            observables, _ = self.service.restore(tenant, label)
        except StorageError as error:
            # The in-process simulator skips restores whose upload was
            # quota-rejected; over the wire the same condition surfaces
            # as not_found — counted identically (skipped_restores).
            self.skipped_restores += 1
            return self._failed(payload, wire.E_NOT_FOUND, error)
        self.meter.observe_restore(observables)
        self.stats.restores += 1
        return self._final(
            payload, wire.OK, wire.observables_payload(observables)
        )

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


# -- one connection -----------------------------------------------------------


class _Session(asyncio.Protocol):
    """One connection: frames reassembled, served and answered in place.

    Everything runs in loop callbacks — ``data_received``, the deadline
    timer, the continuation of a hold — so there is no task to cancel
    and nothing to await; the transport's own callbacks are the events.
    """

    def __init__(self, frontend: DedupFrontend):
        self.frontend = frontend
        self.loop = asyncio.get_running_loop()
        self.transport: asyncio.Transport | None = None  # None: refused
        self.buffer = bytearray()
        # Reading is paused: an injected stall, or a full write buffer.
        self.held = False
        # One lazy timer: ``deadline`` bounds ``waiting`` (None: nothing
        # to bound).  Both move freely; the handle is replaced only to
        # fire earlier, and re-arms itself when it fires too early.
        self.waiting: str | None = None
        self.deadline = 0.0
        self.timer: asyncio.TimerHandle | None = None

    # -- transport callbacks ------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        frontend = self.frontend
        if not frontend.admission.admit_session():
            frontend.stats.count_error(wire.E_BUSY)
            busy = wire.error_payload(wire.E_BUSY, "session cap reached")
            transport.write(wire.encode_frame(wire.ERROR, busy))
            transport.close()
            return
        self.transport = transport
        frontend.stats.sessions_opened += 1
        frontend._connections.add(self)
        self._begin(_HEADER, frontend.config.idle_timeout)

    def connection_lost(self, exc: Exception | None) -> None:
        if self.transport is None:
            return
        if self.timer is not None:
            self.timer.cancel()
        if exc is not None and self.waiting is _DRAIN:
            # A write failed with responses unread: the peer vanished.
            obs.counter("serve.disconnects")
            _log.warning("peer vanished", extra={"detail": repr(exc)})
        frontend = self.frontend
        frontend._connections.discard(self)
        frontend.admission.release_session()
        frontend.stats.sessions_closed += 1
        if frontend._idle is not None and not frontend._connections:
            frontend._idle.set()

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._pump()

    def eof_received(self) -> None:
        # Possibly mid-frame, never with a whole frame unserved (a held
        # session does not read): nobody is left to answer.
        self._close()

    def pause_writing(self) -> None:
        # The peer is not taking responses: serve nothing until it does.
        self.held = True
        self.transport.pause_reading()
        self._begin(_DRAIN, self.frontend.config.drain_timeout)

    def resume_writing(self) -> None:
        # Not from inside the transport's write callback, which reports
        # a connection closed while it runs as lost twice.
        self.loop.call_soon(self._resume)

    def _resume(self, *stalled) -> None:
        """End a hold; serve the frame a stall held back, then the rest."""
        if not self.transport.is_closing():
            self.held = False
            self.transport.resume_reading()
            self._pump(*stalled)

    # -- the deadline -------------------------------------------------------

    def _begin(self, waiting: str, timeout: float) -> None:
        """A wait begins: what it is for, and when it has lasted too long."""
        self.waiting = waiting
        self.deadline = deadline = self.loop.time() + timeout
        timer = self.timer
        if timer is None or deadline < timer.when():
            if timer is not None:
                timer.cancel()
            self.timer = self.loop.call_at(deadline, self._expired)

    def _expired(self) -> None:
        self.timer = None
        waiting = self.waiting
        if waiting is None:
            return
        if self.loop.time() < self.deadline:
            self.timer = self.loop.call_at(self.deadline, self._expired)
        elif waiting is _DRAIN:
            # Slow reader: the peer is not consuming responses.  Abort
            # the transport (no lingering send buffer).
            self.transport.abort()
            self.frontend.stats.slow_reader_aborts += 1
            _log.warning("slow reader aborted")
        else:
            self._refuse(wire.ProtocolError(waiting, wire.E_IDLE))

    # -- the frame loop -----------------------------------------------------

    def _pump(self, *stalled) -> None:
        """Serve every whole frame buffered, in order, until the buffer
        holds none, the session is held, or the connection is closing.

        Cutting a frame ends the wait it arrived in (``waiting`` is
        ``None`` while it is served); a read wait begins when the loop
        runs out of bytes in a state other than the one it waits in —
        so bytes that complete nothing leave the deadline where it was.
        """
        transport, buffer = self.transport, self.buffer
        config = self.frontend.config
        next_wait = _HEADER
        try:
            if stalled:
                self._serve(*stalled)
            while not (self.held or transport.is_closing()):
                if len(buffer) < wire.HEADER_BYTES:
                    break
                (length,) = wire.HEADER.unpack_from(buffer)
                if length < 1 or length > config.max_frame_bytes:
                    # Refused from the header alone, body unread.
                    self._refuse(
                        wire.ProtocolError(
                            f"frame of {length} bytes exceeds the "
                            f"{config.max_frame_bytes}-byte limit",
                            wire.E_OVERSIZED,
                        )
                    )
                    return
                end = wire.HEADER_BYTES + length
                if len(buffer) < end:
                    next_wait = _BODY
                    break
                body = buffer[wire.HEADER_BYTES : end]
                del buffer[:end]
                self.waiting = None
                self._frame(body)
            else:
                return
        except Exception as error:
            # Nothing above a loop callback would both report this and
            # end the connection.
            self.loop.call_exception_handler(
                {
                    "message": "Unhandled exception serving a connection",
                    "exception": error,
                    "protocol": self,
                }
            )
            transport.abort()
            return
        if self.waiting is not next_wait:
            self._begin(next_wait, config.idle_timeout)

    def _frame(self, body: bytearray) -> None:
        """Decode, count and fault one frame, then serve it."""
        try:
            kind, payload = wire.decode_body(body)
        except wire.ProtocolError as error:
            self._refuse(error)
            return
        self.frontend.stats.frames_in += 1
        frame_name = wire.FRAME_NAMES[kind]
        obs.counter("serve.frames", kind=frame_name)
        # Injected server-side faults: a drop abruptly aborts the
        # connection (before serving by default, so the request never
        # executed — or after, exercising the rid-replay path); a stall
        # delays the response without touching it.
        drop = faults.fire("serve.drop", kind=frame_name)
        if drop is not None and drop.get("when", "before") == "before":
            _log.warning("injected drop", extra={"kind": frame_name})
            self.transport.abort()
            return
        stall = faults.fire("serve.stall", kind=frame_name)
        if stall is None:
            self._serve(kind, payload, drop)
        else:
            # Held, with no deadline; the continuation serves this frame.
            self.held = True
            self.transport.pause_reading()
            delay = float(stall.get("delay_s", 0.05))
            self.loop.call_later(delay, self._resume, kind, payload, drop)

    def _serve(self, kind: int, payload: dict, drop: dict | None) -> None:
        """Serve one request and answer it — unless a drop takes the answer."""
        frame_name = wire.FRAME_NAMES[kind]
        started = time.perf_counter()
        with obs.span("serve.frame", kind=frame_name):
            served = self.frontend._serve(kind, payload)
        obs.observe(
            "serve.latency_s", time.perf_counter() - started, kind=frame_name
        )
        if drop is None:
            self._answer(*served)
        else:
            # when == "after": the request was served (and its rid
            # response remembered) but the answer is lost in flight.
            _log.warning(
                "injected drop after serve", extra={"kind": frame_name}
            )
            self.transport.abort()

    def _answer(self, kind: int, payload: dict, close_after: bool) -> None:
        """Write one response; ``close_after`` makes it the last."""
        self.transport.write(wire.encode_frame(kind, payload))
        self.frontend.stats.frames_out += 1
        if self.transport.is_closing():
            # The write failed: nothing further of this connection is
            # served, and ``connection_lost`` brings the reason.
            self.waiting = _DRAIN
        elif close_after:
            self._close()

    def _refuse(self, refusal: wire.ProtocolError) -> None:
        """Answer a frame the protocol rejects.

        Transport abuse and a stream out of sync (the fatal codes) are
        answered once and the connection closed; a well-delimited frame
        whose payload merely fails to decode keeps the session — framing
        is still in sync.
        """
        fatal = refusal.code in wire.FATAL_CODES
        self.frontend.stats.count_error(refusal.code)
        if fatal:
            _log.warning(
                "fatal transport error",
                extra={"code": refusal.code, "detail": str(refusal)},
            )
        self._answer(
            wire.ERROR, wire.error_payload(refusal.code, str(refusal)), fatal
        )

    def _close(self) -> None:
        """Serve nothing further; what is buffered has ``drain_timeout``
        to leave before ``connection_lost``."""
        self.transport.close()
        if self.transport.get_write_buffer_size():
            self._begin(_DRAIN, self.frontend.config.drain_timeout)
        else:
            self.waiting = None


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
    loop = asyncio.get_running_loop()

    def session() -> _Session:
        return _Session(frontend)

    if address[0] == "unix":
        server = await loop.create_unix_server(session, path=address[1])
        return server, ("unix", address[1])
    if address[0] == "tcp":
        server = await loop.create_server(session, address[1], address[2])
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
