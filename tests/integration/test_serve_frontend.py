"""Socket-frontend integration tests: identity, robustness, concurrency.

Three layers, matching the serving tier's three claims:

* **differential identity** — the same seeded trace served over a real
  socket is byte-identical to the in-process simulator: dedup decisions,
  quota outcomes, meter observables, and the full attack report;
* **protocol robustness** — malformed/truncated/oversized frames, abrupt
  disconnects mid-batch, idle-timeout eviction, and version mismatches
  each leave the engine consistent and never wedge the server;
* **concurrency** — ~100 concurrent tenant sessions multiplex onto one
  engine with no cross-tenant session-state bleed, and per-tenant
  token-bucket rate limits hold (exactly on a virtual clock, within
  tolerance under real-clock contention).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager

import pytest

from repro import faults, obs
from repro.datasets.model import Backup
from repro.faults import FaultPlan
from repro.service import protocol as wire
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.frontend import (
    DedupFrontend,
    FrontendConfig,
    FrontendServer,
    build_frontend,
    identity_check,
    start_frontend,
)
from repro.service.loadgen import FrontendClient, RetryPolicy, replay_stream
from repro.service.simulate import (
    ServiceConfig,
    build_service,
    inline_report,
    service_report,
    simulate,
)

pytestmark = [pytest.mark.integration, pytest.mark.frontend]


def make_backup(label: str, tokens: list[str], size: int = 1024) -> Backup:
    fingerprints = [token.encode().ljust(8, b"\0") for token in tokens]
    return Backup(
        label=label, fingerprints=fingerprints, sizes=[size] * len(tokens)
    )


def wait_until(condition, timeout: float = 5.0) -> None:
    """Poll ``condition`` until it holds or ``timeout`` passes (the
    caller asserts the outcome)."""
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)


def assert_quiescent(frontend: DedupFrontend, loop, timeout: float = 5.0):
    """Every handler ended by itself: no session held, no task pending.

    Checked while the server still runs — so nothing here was reaped by
    the shutdown cancel — and polled, because a handler outlives its
    client's ``close()`` by a few loop iterations.  The one task left is
    whatever drives the server (``FrontendServer._main``, or the test's
    own coroutine).
    """
    wait_until(
        lambda: not frontend._connections
        and len(asyncio.all_tasks(loop)) == 1,
        timeout,
    )
    assert not frontend._connections
    assert len(asyncio.all_tasks(loop)) == 1
    assert frontend.admission.active_sessions == 0
    assert frontend.stats.sessions_closed == frontend.stats.sessions_opened


@contextmanager
def served(
    config: ServiceConfig,
    frontend_config: FrontendConfig = None,
    *,
    frontend: DedupFrontend = None,
    address=None,
):
    """A frontend for ``config`` served on a scratch Unix socket.

    Leaving the block without an exception asserts the server quiescent
    (:func:`assert_quiescent`), so every test using it checks that its
    handlers ended and released their sessions.
    """
    if frontend is None:
        frontend = build_frontend(config, frontend_config)
    scratch = tempfile.mkdtemp(prefix="fe-test-")
    try:
        if address is None:
            address = ("unix", os.path.join(scratch, "frontend.sock"))
        server = FrontendServer(frontend, address)
        bound = server.start()
        try:
            yield frontend, bound
            assert_quiescent(frontend, server._loop)
        finally:
            server.stop()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# -- differential identity ----------------------------------------------------


class TestIdentity:
    def test_served_trace_byte_identical_to_simulator(self):
        config = ServiceConfig(tenants=6, rounds=3, seed=5)
        with served(config) as (frontend, address):
            counts = replay_stream(address, config)
            assert counts["errors"] == 0
            check = identity_check(frontend)
        assert check["identical"], "served trace diverged from simulator"
        # The reports really carry the full adversary view, not stubs.
        assert check["served"]["attack"]["pairs"]
        assert check["served"]["side_channel"]["bandwidth_signal"]

    def test_quota_outcomes_identical(self):
        """Quota rejections and the restores they void match exactly."""
        config = ServiceConfig(
            tenants=6, rounds=4, quota_bytes=2_000_000, seed=5
        )
        expected = simulate(config)
        assert expected.rejected_uploads > 0, "config must trip quotas"
        with served(config) as (frontend, address):
            counts = replay_stream(address, config)
            assert counts["rejected_uploads"] == expected.rejected_uploads
            assert counts["skipped_restores"] == expected.skipped_restores
            assert counts["errors"] == 0
            assert identity_check(frontend)["identical"]

    def test_meter_observables_identical_per_request(self):
        """Every served wire observable equals the simulator's, in order."""
        from dataclasses import asdict

        config = ServiceConfig(tenants=5, rounds=2, seed=9)
        with served(config) as (frontend, address):
            replay_stream(address, config)
            served_obs = [asdict(o) for o in frontend.meter.observables]
        expected_obs = [asdict(o) for o in simulate(config).meter.observables]
        assert served_obs == expected_obs

    def test_inline_report_matches_service_report(self):
        """The inline attack-pair path is the runner path, byte for byte."""
        config = ServiceConfig(tenants=5, rounds=2, seed=3)
        via_runner = service_report(config, jobs=2)
        via_inline = inline_report(simulate(config))
        assert json.dumps(via_inline, sort_keys=True) == json.dumps(
            via_runner, sort_keys=True
        )

    def test_identity_over_tcp(self):
        config = ServiceConfig(tenants=4, rounds=2, seed=2)
        with served(
            config, address=("tcp", "127.0.0.1", 0)
        ) as (frontend, address):
            assert address[0] == "tcp" and address[2] > 0
            counts = replay_stream(address, config)
            assert counts["errors"] == 0
            assert identity_check(frontend)["identical"]


# The server half of the cross-process check: its own interpreter, so
# its own copy of the codec module; serves until its stdin closes.
_SERVER_PROCESS = """
import sys
from repro.service.frontend import FrontendServer, build_frontend
from repro.service.simulate import ServiceConfig

frontend = build_frontend(ServiceConfig(tenants=2, rounds=3, seed=int(sys.argv[2])))
with FrontendServer(frontend, ("unix", sys.argv[1])):
    print("listening", flush=True)
    sys.stdin.read()
frontend.service.close()
"""


def test_cross_process_replay_matches_the_simulator(tmp_path):
    """Bytes written by one interpreter's codec and read by another's:
    the served totals are the in-process simulator's."""
    config = ServiceConfig(tenants=2, rounds=3, seed=8)
    path = str(tmp_path / "wire.sock")
    with subprocess.Popen(
        [sys.executable, "-c", _SERVER_PROCESS, path, str(config.seed)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        text=True,
    ) as server:
        try:
            assert server.stdout.readline() == "listening\n"
            counts = replay_stream(("unix", path), config)
            with FrontendClient(("unix", path)) as client:
                stats = client.stats()
        finally:
            server.stdin.close()  # the server stops; leaving the block waits
    assert server.returncode == 0
    expected = simulate(config)
    assert counts["errors"] == 0 and counts["uploads"] > 0
    assert {
        key: stats[key]
        for key in (
            "uploads", "restores", "rejected_uploads", "skipped_restores",
            "tenants", "stored_bytes", "unique_chunks_stored", "errors",
        )
    } == {
        "uploads": counts["uploads"],
        "restores": counts["restores"],
        "rejected_uploads": expected.rejected_uploads,
        "skipped_restores": expected.skipped_restores,
        "tenants": len(expected.service.tenants()),
        "stored_bytes": expected.service.stored_bytes,
        "unique_chunks_stored": expected.service.unique_chunks_stored(),
        "errors": {},
    }


# -- protocol robustness ------------------------------------------------------


def upload_ok(address, tenant: int, label: str) -> dict:
    """One well-formed upload; asserts it is served and returns the payload."""
    with FrontendClient(address) as client:
        client.hello()
        kind, payload = client.upload(
            tenant, 0, label, make_backup(label, [f"{label}-{i}" for i in range(4)])
        )
    assert kind == wire.OK, payload
    return payload


def upload_frame(tenant: int, label: str) -> bytes:
    """One well-formed single-chunk UPLOAD_BATCH frame, encoded."""
    return wire.encode_frame(
        wire.UPLOAD_BATCH,
        wire.upload_payload(tenant, 0, label, make_backup(label, [label])),
    )


def raw_frame(kind: int, meta: bytes, tail: bytes = b"", meta_len=None) -> bytes:
    """A frame assembled by hand: any meta bytes, any tail, and a meta
    length that may lie — what ``encode_frame`` cannot be made to say."""
    meta_len = len(meta) if meta_len is None else meta_len
    body = bytes([kind]) + meta_len.to_bytes(4, "big") + meta + tail
    return wire.HEADER.pack(len(body)) + body


def raw_upload(tail: bytes = b"", **fields) -> bytes:
    """An UPLOAD_BATCH whose meta and tail need not agree."""
    meta = {"tenant": 0, "round": 0, "label": "raw", **fields}
    return raw_frame(wire.UPLOAD_BATCH, json.dumps(meta).encode(), tail)


class TestProtocolRobustness:
    @pytest.fixture()
    def frontend_address(self):
        config = ServiceConfig(tenants=4, rounds=2, seed=1)
        with served(config) as (frontend, address):
            yield frontend, address

    def test_malformed_json_keeps_session(self, frontend_address):
        """Bad payload in a well-framed message: error, session survives."""
        _, address = frontend_address
        with FrontendClient(address) as client:
            client.hello()
            for frame in (
                raw_frame(wire.UPLOAD_BATCH, b"{not json"),
                raw_frame(wire.UPLOAD_BATCH, b"[1,2]"),
                # Only an upload has a tail.
                raw_frame(wire.STATS, b"{}", tail=b"\0"),
            ):
                client.send_raw(frame)
                kind, payload = client.recv_frame()
                assert kind == wire.ERROR
                assert payload["code"] == wire.E_BAD_REQUEST
            # Framing stayed in sync: the session still serves requests.
            kind, payload = client.upload(
                0, 0, "after-garbage", make_backup("after-garbage", ["a", "b"])
            )
            assert kind == wire.OK

    def test_invalid_upload_fields_keep_session(self, frontend_address):
        _, address = frontend_address
        with FrontendClient(address) as client:
            client.hello()
            kind, payload = client.request(
                wire.UPLOAD_BATCH, {"tenant": "zero", "round": 0}
            )
            assert kind == wire.ERROR
            assert payload["code"] == wire.E_BAD_REQUEST
            kind, _ = client.request(wire.STATS, {})
            assert kind == wire.OK

    @pytest.mark.parametrize(
        "frame, message",
        [
            # A size the wire has no room for cannot even be spelled; the
            # nearest lies are a tail one size short or one byte long.
            (
                raw_upload(b"f" * 8 + b"\xff" * 3, chunks=1, fingerprint_bytes=8),
                "1 chunks of 8-byte fingerprints (1..32) do not make a 11-byte tail",
            ),
            (
                raw_upload(b"f" * 8 + b"\xff" * 16, chunks=1, fingerprint_bytes=8),
                "do not make a 24-byte tail",
            ),
            # A zero-length fingerprint is not a chunk ...
            (
                raw_upload(b"\0" * 4, chunks=1, fingerprint_bytes=0),
                "1 chunks of 0-byte fingerprints (1..32)",
            ),
            # ... nor is one longer than any digest this system cuts.
            (
                raw_upload(b"f" * 37, chunks=1, fingerprint_bytes=33),
                "1 chunks of 33-byte fingerprints (1..32)",
            ),
            # Two widths in one batch: whichever the meta claims, the
            # tail is the wrong length for it.
            (
                raw_upload(b"a" * 8 + b"b" * 6 + b"\0" * 8, chunks=2, fingerprint_bytes=8),
                "2 chunks of 8-byte fingerprints (1..32) do not make a 22-byte tail",
            ),
            (raw_upload(chunks=-1, fingerprint_bytes=8), "invalid field 'chunks'"),
            (raw_upload(chunks=10**30, fingerprint_bytes=8), "do not make a 0-byte tail"),
            (raw_upload(tenant=-5, chunks=0, fingerprint_bytes=0), "invalid field 'tenant'"),
            (raw_upload(round=-1, chunks=0, fingerprint_bytes=0), "invalid field 'round'"),
            (
                raw_frame(wire.RESTORE, b'{"tenant":-5,"label":"raw"}'),
                "invalid field 'tenant'",
            ),
        ],
        ids=[
            "tail-short", "tail-long", "width-0", "width-33", "mixed-widths",
            "chunks-negative", "chunks-huge", "tenant-negative",
            "round-negative", "restore-tenant-negative",
        ],
    )
    def test_upload_the_tail_contradicts_is_refused(
        self, frontend_address, frame, message
    ):
        """Each was answered ``OK`` by protocol 1 (as a 10**30-byte size,
        an empty or odd-width hex fingerprint, a negative tenant)."""
        frontend, address = frontend_address
        with FrontendClient(address) as client:
            client.hello()
            client.send_raw(frame)
            kind, payload = client.recv_frame()
            assert (kind, payload["code"]) == (wire.ERROR, wire.E_BAD_REQUEST)
            assert message in payload["message"]
            # Nothing was stored, no namespace opened, the session serves on.
            stats = client.stats()
            assert (stats["tenants"], stats["stored_bytes"]) == (0, 0)
            assert client.upload(0, 0, "after", make_backup("after", ["a"]))[0] == wire.OK
        assert frontend.stats.errors == {wire.E_BAD_REQUEST: 1}

    @pytest.mark.parametrize(
        "backup",
        [
            Backup("mixed", [b"12345678", b"123456"], [512, 512]),
            # Equal in total to two 8-byte fingerprints: only a per-chunk
            # look tells.
            Backup("mixed-same-sum", [b"1234567", b"123456789"], [512, 512]),
            Backup("huge", [b"12345678"], [2**32]),
            Backup("negative", [b"12345678"], [-1]),
        ],
        ids=lambda backup: backup.label,
    )
    def test_client_refuses_a_backup_with_no_wire_form(self, backup):
        with pytest.raises(wire.ProtocolError):
            wire.upload_payload(0, 0, backup.label, backup)

    def test_version_1_peer_gets_one_answer_then_eof(self, frontend_address):
        """A v1 frame is ``kind | JSON``: its first four JSON bytes read
        as a meta length far beyond the body."""
        frontend, address = frontend_address
        body = b'\x01{"client":"freqdedup-client","protocol":1}'
        with FrontendClient(address, timeout=5.0) as client:
            client.send_raw(wire.HEADER.pack(len(body)) + body)
            kind, payload = client.recv_frame()
            assert (kind, payload["code"]) == (wire.ERROR, wire.E_PROTOCOL)
            assert f"the frame body has {len(body)}" in payload["message"]
            with pytest.raises(ConnectionError):
                client.recv_frame()
        assert frontend.stats.errors == {wire.E_PROTOCOL: 1}
        assert frontend.stats.errors_by_class[wire.CLASS_TRANSPORT] == 1
        assert frontend.stats.frames_in == 0

    def test_body_shorter_than_its_prefix_is_fatal(self, frontend_address):
        frontend, address = frontend_address
        with FrontendClient(address, timeout=5.0) as client:
            client.hello()
            client.send_raw(wire.HEADER.pack(3) + bytes([wire.STATS]) + b"{}")
            kind, payload = client.recv_frame()
            assert (kind, payload["code"]) == (wire.ERROR, wire.E_PROTOCOL)
            with pytest.raises(ConnectionError):
                client.recv_frame()
        assert frontend.stats.errors_by_class[wire.CLASS_TRANSPORT] == 1

    def test_unknown_frame_kind_is_fatal(self, frontend_address):
        # An undefined kind byte means the stream is garbage (corrupt,
        # or not this protocol at all): dedicated code, fatal, and
        # classed as "garbage" rather than generic transport abuse.
        frontend, address = frontend_address
        with FrontendClient(address) as client:
            client.hello()
            kind, payload = client.request(0x7F, {})
            assert kind == wire.ERROR
            assert payload["code"] == wire.E_UNKNOWN_KIND
            with pytest.raises(ConnectionError):
                client.request(wire.STATS, {})
        assert frontend.stats.errors_by_class[wire.CLASS_GARBAGE] == 1

    def test_response_kind_sent_as_request_is_garbage(self, frontend_address):
        # decode_body accepts every kind the protocol defines, so OK /
        # ERROR sent by a client reach the dispatcher, which has no
        # request of that kind: answered as garbage, then closed.
        frontend, address = frontend_address
        with FrontendClient(address) as client:
            client.hello()
            kind, payload = client.request(wire.OK, {})
            assert kind == wire.ERROR
            assert payload["code"] == wire.E_UNKNOWN_KIND
            with pytest.raises(ConnectionError):
                client.request(wire.STATS, {})
        assert frontend.stats.errors_by_class[wire.CLASS_GARBAGE] == 1

    def test_oversized_frame_refused_without_reading(self):
        config = ServiceConfig(tenants=4, rounds=2, seed=1)
        with served(
            config, FrontendConfig(max_frame_bytes=512)
        ) as (frontend, address):
            with FrontendClient(address) as client:
                client.hello()
                client.send_raw(wire.HEADER.pack(100_000))
                kind, payload = client.recv_frame()
                assert kind == wire.ERROR
                assert payload["code"] == wire.E_OVERSIZED
                with pytest.raises(ConnectionError):
                    client.recv_frame()
            assert frontend.stats.errors[wire.E_OVERSIZED] == 1
            # The refusal never touched the engine.
            assert frontend.service.stored_bytes == 0

    def test_truncated_frame_then_disconnect(self, frontend_address):
        """A frame cut off by disconnect is an EOF, not a wedge."""
        frontend, address = frontend_address
        client = FrontendClient(address)
        client.hello()
        # Claim 500 body bytes, deliver 10, vanish.
        client.send_raw(wire.HEADER.pack(500) + b"x" * 10)
        client.close(polite=False)
        # The server still serves new sessions afterwards.
        upload_ok(address, 0, "after-truncation")
        assert frontend.stats.uploads == 1

    def test_abrupt_disconnect_mid_batch_keeps_engine_consistent(self):
        """Dropping dead between pipelined uploads loses nothing served."""
        config = ServiceConfig(tenants=4, rounds=2, seed=1)
        with served(config) as (frontend, address):
            client = FrontendClient(address)
            client.hello()
            kind, first = client.upload(
                1, 0, "kept", make_backup("kept", ["k1", "k2", "k3"])
            )
            assert kind == wire.OK
            # Fire a second upload and slam the connection before reading
            # the response (mid-batch abort).
            client.send_raw(
                wire.encode_frame(
                    wire.UPLOAD_BATCH,
                    wire.upload_payload(
                        1, 0, "maybe", make_backup("maybe", ["m1", "m2"])
                    ),
                )
            )
            client.close(polite=False)
            # Served state is still coherent: the first upload is
            # restorable on a fresh session, and the engine serves on.
            wait_until(lambda: frontend.stats.sessions_closed >= 1)
            with FrontendClient(address) as probe:
                probe.hello()
                kind, payload = probe.restore(1, "kept")
                assert kind == wire.OK
                assert payload["logical_bytes"] == first["logical_bytes"]
                usage = probe.stats()
                assert usage["active_sessions"] == 1

    def test_idle_timeout_evicts_session(self):
        config = ServiceConfig(tenants=4, rounds=2, seed=1)
        with served(
            config, FrontendConfig(idle_timeout=0.2)
        ) as (frontend, address):
            with FrontendClient(address) as client:
                client.hello()
                kind, payload = client.recv_frame()  # blocks until eviction
                assert kind == wire.ERROR
                assert payload["code"] == wire.E_IDLE
                assert payload["message"] == "session idle timeout"
                with pytest.raises(ConnectionError):
                    client.recv_frame()
            assert frontend.stats.errors[wire.E_IDLE] == 1
            assert frontend.stats.errors_by_class[wire.CLASS_TRANSPORT] == 1
            # Eviction released the session; new connections serve fine.
            upload_ok(address, 0, "after-idle")

    def test_half_sent_frame_stalls_out(self):
        """A header, half a body, then silence: evicted mid-body, once."""
        config = ServiceConfig(tenants=4, rounds=2, seed=1)
        with served(
            config, FrontendConfig(idle_timeout=0.2)
        ) as (frontend, address):
            with FrontendClient(address) as client:
                client.hello()
                frame = upload_frame(0, "half")
                client.send_raw(frame[: wire.HEADER_BYTES + len(frame) // 2])
                kind, payload = client.recv_frame()
                assert kind == wire.ERROR
                assert payload["code"] == wire.E_IDLE
                assert payload["message"] == "frame stalled mid-body"
                with pytest.raises(ConnectionError):
                    client.recv_frame()
            assert frontend.stats.errors == {wire.E_IDLE: 1}
            assert frontend.stats.errors_by_class[wire.CLASS_TRANSPORT] == 1
            assert frontend.stats.uploads == 0

    def test_hello_version_mismatch_closes(self, frontend_address):
        _, address = frontend_address
        with FrontendClient(address) as client:
            kind, payload = client.request(wire.HELLO, {"protocol": 99})
            assert kind == wire.ERROR
            assert payload["code"] == wire.E_PROTOCOL
            with pytest.raises(ConnectionError):
                client.request(wire.STATS, {})

    def test_label_conflict_and_not_found_errors(self, frontend_address):
        _, address = frontend_address
        with FrontendClient(address) as client:
            client.hello()
            backup = make_backup("dup", ["d1", "d2"])
            assert client.upload(2, 0, "dup", backup)[0] == wire.OK
            kind, payload = client.upload(2, 1, "dup", backup)
            assert (kind, payload["code"]) == (wire.ERROR, wire.E_CONFLICT)
            # Cross-tenant restore: namespaces share chunks, never recipes.
            kind, payload = client.restore(3, "dup")
            assert (kind, payload["code"]) == (wire.ERROR, wire.E_NOT_FOUND)
            kind, _ = client.restore(2, "dup")
            assert kind == wire.OK

    def test_session_cap_refuses_with_busy(self):
        config = ServiceConfig(tenants=4, rounds=2, seed=1)
        with served(
            config, FrontendConfig(max_sessions=1)
        ) as (frontend, address):
            with FrontendClient(address) as first:
                first.hello()
                second = FrontendClient(address)
                kind, payload = second.recv_frame()
                assert kind == wire.ERROR
                assert payload["code"] == wire.E_BUSY
                second.close(polite=False)
                # The admitted session is unaffected.
                assert first.request(wire.STATS, {})[0] == wire.OK
            assert frontend.admission.refused_sessions == 1


# -- the client trusts neither the length header nor a dead connection ---------


@contextmanager
def scripted_peer(*answers: bytes, hang_up: bool = True):
    """A plain-socket server, no frontend: whatever the i-th connection
    sends first is answered with ``answers[i]`` verbatim."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5.0)
    kept_open = []

    def run():
        for answer in answers:
            connection, _ = listener.accept()
            connection.recv(65536)
            connection.sendall(answer)
            if hang_up:
                connection.close()
            else:
                kept_open.append(connection)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield ("tcp", *listener.getsockname())
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    finally:
        listener.close()
        for connection in kept_open:
            connection.close()


class TestClientAgainstABadPeer:
    def test_absurd_length_header_is_a_connection_error(self):
        # The peer stays connected: a client that believed the header
        # would sit in recv until its socket timeout.
        with scripted_peer(wire.HEADER.pack(2**31), hang_up=False) as address:
            client = FrontendClient(address, timeout=2.0)
            with pytest.raises(ConnectionError, match="2147483648 bytes"):
                client.request(wire.STATS, {})
            client.close(polite=False)

    def test_retry_does_not_parse_a_dead_connections_leftovers(self):
        answer = wire.encode_frame(wire.OK, {"answer": "x" * 64})
        with scripted_peer(answer[: len(answer) // 2], answer) as address:
            client = FrontendClient(address, timeout=2.0)
            kind, payload = client.request_with_retry(
                wire.STATS, {}, RetryPolicy(backoff_base=0.001), rid="r0"
            )
            client.close(polite=False)
        assert (kind, payload) == (wire.OK, {"answer": "x" * 64})
        assert (client.retries, client.reconnects) == (1, 1)


# -- one protocol object per connection ---------------------------------------


@pytest.fixture()
def serve_log(caplog):
    """Captures ``repro.serve`` (which does not propagate) next to asyncio."""
    logger = logging.getLogger("repro")
    logger.addHandler(caplog.handler)
    try:
        yield caplog
    finally:
        logger.removeHandler(caplog.handler)


def unhandled(log) -> list[str]:
    """asyncio's reports of an exception nobody caught."""
    return [
        record.getMessage()
        for record in log.records
        if "Unhandled exception" in record.getMessage() or record.exc_info
    ]


def stall_first_upload(delay_s: float) -> None:
    """Install a fault plan holding the first upload served for ``delay_s``."""
    faults.install(
        FaultPlan.from_dict(
            {
                "seed": 0,
                "rules": [
                    {
                        "site": "serve.stall",
                        "match": {"kind": "upload_batch"},
                        "times": 1,
                        "delay_s": delay_s,
                    }
                ],
            }
        )
    )


class TestConnectionLoop:
    @pytest.fixture(autouse=True)
    def _no_leaked_plan(self):
        faults.clear()
        yield
        faults.clear()

    def test_pipelined_frames_answered_in_order_then_garbage_once(self):
        """One write of N frames: N answers in order, the bad one last."""
        count = 24
        config = ServiceConfig(tenants=4, rounds=2, seed=1)
        with served(config) as (frontend, address):
            with FrontendClient(address) as client:
                client.hello()
                garbage = bytes([0x7F]) + b"{}"
                client.send_raw(
                    b"".join(upload_frame(1, f"p{i}") for i in range(count))
                    + wire.HEADER.pack(len(garbage))
                    + garbage
                    # Never served: the stream is dead past the garbage.
                    + upload_frame(1, "beyond")
                )
                answers = [client.recv_frame() for _ in range(count)]
                assert [kind for kind, _ in answers] == [wire.OK] * count
                assert [p["label"] for _, p in answers] == [
                    f"p{i}" for i in range(count)
                ]
                indices = [p["request_index"] for _, p in answers]
                assert all(a < b for a, b in zip(indices, indices[1:]))
                kind, payload = client.recv_frame()
                assert (kind, payload["code"]) == (
                    wire.ERROR,
                    wire.E_UNKNOWN_KIND,
                )
                with pytest.raises(ConnectionError):
                    client.recv_frame()
            assert frontend.stats.uploads == count
            assert frontend.stats.errors == {wire.E_UNKNOWN_KIND: 1}

    def test_client_that_never_reads_is_aborted_as_slow_reader(self):
        config = ServiceConfig(tenants=4, rounds=2, seed=1)
        with served(
            config, FrontendConfig(drain_timeout=0.2)
        ) as (frontend, address):
            client = FrontendClient(address, timeout=10.0)
            client.hello()
            started = time.monotonic()
            try:
                # Far more responses than the socket and the transport
                # buffer hold; the abort surfaces here as a failed send.
                for batch in range(40):
                    client.send_raw(
                        b"".join(
                            upload_frame(2, f"s{batch}-{i}") for i in range(100)
                        )
                    )
                    if frontend.stats.slow_reader_aborts:
                        break
            except OSError:
                pass
            wait_until(lambda: frontend.stats.sessions_closed)
            assert frontend.stats.slow_reader_aborts == 1
            # drain_timeout after the write buffer filled, not the (30 s)
            # idle_timeout the connection's timer was first set for.
            assert 0.2 <= time.monotonic() - started < 3.0
            client.close(polite=False)
            # The session was released; the server serves on.
            upload_ok(address, 0, "after-slow-reader")

    def test_slow_reader_that_catches_up_loses_nothing(self):
        """A full write buffer holds the session; draining it resumes it."""
        count = 3000
        config = ServiceConfig(tenants=4, rounds=2, seed=1)
        with served(config) as (frontend, address):
            client = FrontendClient(address, timeout=10.0)
            client.hello()
            # More responses than the socket and the transport buffer
            # hold: the server stops reading, so the send blocks until
            # the answers are read — hence the thread.
            sender = threading.Thread(
                target=client.send_raw,
                args=(b"".join(upload_frame(2, f"c{i}") for i in range(count)),),
                daemon=True,
            )
            sender.start()

            def held():
                return any(s.held for s in list(frontend._connections))

            wait_until(held)
            assert held()
            answers = [client.recv_frame() for _ in range(count)]
            sender.join(timeout=10.0)
            assert not sender.is_alive()
            client.close()
            assert [kind for kind, _ in answers] == [wire.OK] * count
            assert [p["label"] for _, p in answers] == [
                f"c{i}" for i in range(count)
            ]
            assert frontend.stats.uploads == count
            assert frontend.stats.slow_reader_aborts == 0

    @pytest.mark.parametrize("stalled", [False, True], ids=["direct", "stalled"])
    def test_engine_failure_is_reported_and_ends_the_connection(
        self, serve_log, monkeypatch, stalled
    ):
        """Neither entry into the frame loop may swallow an engine error
        or leave its session held: from ``data_received``, and from the
        continuation of a stall."""
        if stalled:
            stall_first_upload(0.01)
        config = ServiceConfig(tenants=4, rounds=2, seed=1)
        with served(config) as (frontend, address):

            def on_fire(*args, **kwargs):
                raise OSError("disk on fire")

            monkeypatch.setattr(frontend.service, "upload", on_fire)
            with FrontendClient(address) as client:
                client.hello()
                with pytest.raises(ConnectionError):
                    client.upload(0, 0, "doomed", make_backup("doomed", ["d"]))
            monkeypatch.undo()
            upload_ok(address, 0, "after-the-fire")
        (report,) = [r for r in serve_log.records if r.exc_info]
        assert "Unhandled exception" in report.getMessage()
        assert str(report.exc_info[1]) == "disk on fire"

    def test_vanished_peer_ends_the_session_at_the_failed_write(
        self, serve_log
    ):
        """Pipelined uploads, no reads, gone: a counted disconnect."""
        # The stall holds the first upload until the client is gone, so
        # its response is the write that fails.
        stall_first_upload(0.3)
        config = ServiceConfig(tenants=4, rounds=2, seed=1)
        obs.enable(metrics=True)
        try:
            with served(config) as (frontend, address):
                client = FrontendClient(address)
                client.hello()
                client.send_raw(
                    b"".join(upload_frame(3, f"v{i}") for i in range(18))
                )
                client.close(polite=False)
                wait_until(lambda: frontend.stats.sessions_closed)
                # Nothing of that connection was served past the write
                # that failed: HELLO and one upload in, two answers out.
                assert frontend.stats.uploads == 1
                assert frontend.stats.frames_in == 2
                assert frontend.stats.frames_out == 2
                counters = obs.snapshot()["counters"]
            assert counters["serve.disconnects"] == 1
        finally:
            obs.disable()
            obs.reset()
        assert unhandled(serve_log) == []
        assert "peer vanished" in [r.getMessage() for r in serve_log.records]

    def test_vanishing_peers_never_leak_a_traceback(self, serve_log):
        """The same, free-running: how far each got is timing; the
        bookkeeping (checked on leaving ``served``) and the log are not."""
        config = ServiceConfig(tenants=4, rounds=2, seed=1)
        with served(config) as (frontend, address):
            for round_index in range(8):
                client = FrontendClient(address)
                client.send_raw(
                    b"".join(
                        upload_frame(round_index % 4, f"g{round_index}-{i}")
                        for i in range(18)
                    )
                )
                client.close(polite=False)
            wait_until(lambda: frontend.stats.sessions_closed == 8)
            assert frontend.stats.frames_in == frontend.stats.frames_out
        assert unhandled(serve_log) == []

    @staticmethod
    def loop_work(frames: int) -> dict[str, int]:
        """Tasks created and timer handles scheduled by a loop in which
        ``frames`` uploads are served on one connection.  The driver
        itself schedules no timer (it polls with bare yields)."""
        config = ServiceConfig(tenants=2, rounds=1, seed=1)
        frontend = build_frontend(config)
        scratch = tempfile.mkdtemp(prefix="fe-tasks-")
        path = os.path.join(scratch, "frontend.sock")
        work = {"tasks": 0, "timers": 0}

        def counting(loop, coro, **kwargs):
            work["tasks"] += 1
            return asyncio.Task(coro, loop=loop, **kwargs)

        async def drive():
            loop = asyncio.get_running_loop()
            loop.set_task_factory(counting)
            call_at = loop.call_at

            def counting_call_at(*args, **kwargs):
                work["timers"] += 1
                return call_at(*args, **kwargs)

            loop.call_at = counting_call_at  # call_later goes through it
            server, _ = await start_frontend(frontend, ("unix", path))
            try:
                reader, writer = await asyncio.open_unix_connection(path)
                for i in range(frames):
                    writer.write(upload_frame(0, f"t{i}"))
                    await writer.drain()
                    header = await reader.readexactly(wire.HEADER_BYTES)
                    (length,) = wire.HEADER.unpack(header)
                    kind, _ = wire.decode_body(await reader.readexactly(length))
                    assert kind == wire.OK
                writer.close()
                await writer.wait_closed()
                deadline = time.monotonic() + 5.0
                while frontend._connections and time.monotonic() < deadline:
                    await asyncio.sleep(0)
                assert not frontend._connections
            finally:
                server.close()
                await server.wait_closed()
                await frontend.shutdown()

        try:
            asyncio.run(drive())
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        assert frontend.stats.uploads == frames
        return work

    def test_tasks_per_connection_do_not_grow_with_frames(self):
        """Serving 50 frames creates exactly the tasks serving 1 does."""
        assert self.loop_work(50)["tasks"] == self.loop_work(1)["tasks"]

    def test_one_timer_per_connection_however_many_frames(self):
        """The deadline moves with every wait; its timer handle does not."""
        assert self.loop_work(50)["timers"] == self.loop_work(1)["timers"]

    @pytest.mark.parametrize(
        "head, message",
        [
            # Three header bytes never complete a header ...
            (b"", "session idle timeout"),
            # ... and a whole header begins the wait for its body.
            (wire.HEADER.pack(64), "frame stalled mid-body"),
        ],
        ids=["header", "body"],
    )
    def test_trickled_bytes_do_not_postpone_the_deadline(self, head, message):
        """The deadline is set when a wait begins, not when bytes arrive."""
        idle = 0.2
        config = ServiceConfig(tenants=4, rounds=2, seed=1)
        with served(
            config, FrontendConfig(idle_timeout=idle)
        ) as (frontend, address):
            began = time.monotonic()
            client = FrontendClient(address)
            client.send_raw(head or b"\0")
            for _ in range(2):
                time.sleep(0.08)
                # A late third byte may find the session already evicted.
                with contextlib.suppress(OSError):
                    client.send_raw(b"\0")
            last_byte = time.monotonic()
            kind, payload = client.recv_frame()
            answered = time.monotonic()
            client.close(polite=False)
            assert (kind, payload["code"]) == (wire.ERROR, wire.E_IDLE)
            assert payload["message"] == message
            # Evicted ``idle`` after the wait began: a deadline pushed
            # back by each byte would answer ``idle`` after the last.
            assert answered - began >= idle - 0.01
            assert answered - last_byte < idle - 0.05
            assert frontend.stats.errors == {wire.E_IDLE: 1}


# -- concurrency --------------------------------------------------------------


async def _tenant_session(path: str, tenant: int) -> dict:
    """One tenant's session: hello, upload own data, restore it back."""
    reader, writer = await asyncio.open_unix_connection(path)

    async def call(kind: int, payload: dict) -> tuple[int, dict]:
        writer.write(wire.encode_frame(kind, payload))
        await writer.drain()
        (length,) = wire.HEADER.unpack(await reader.readexactly(4))
        return wire.decode_body(await reader.readexactly(length))

    label = f"own-{tenant}"
    backup = make_backup(
        label, [f"t{tenant}-c{i}" for i in range(6)], size=512
    )
    try:
        kind, _ = await call(wire.HELLO, wire.hello_payload())
        assert kind == wire.OK
        kind, up = await call(
            wire.UPLOAD_BATCH, wire.upload_payload(tenant, 0, label, backup)
        )
        assert kind == wire.OK, up
        kind, down = await call(
            wire.RESTORE, wire.restore_payload(tenant, label)
        )
        assert kind == wire.OK, down
        await call(wire.CLOSE, {})
    finally:
        writer.close()
    return {"tenant": tenant, "upload": up, "restore": down}


class TestConcurrency:
    def test_hundred_concurrent_sessions_no_state_bleed(self):
        """~100 tenants at once: every session sees only its own state."""
        tenants = 100
        config = ServiceConfig(tenants=tenants, rounds=1, seed=1)
        frontend = DedupFrontend(
            build_service(config), service_config=config
        )
        scratch = tempfile.mkdtemp(prefix="fe-stress-")
        path = os.path.join(scratch, "frontend.sock")

        async def drive():
            server, _ = await start_frontend(frontend, ("unix", path))
            try:
                results = await asyncio.gather(
                    *(_tenant_session(path, t) for t in range(tenants))
                )
                # Every handler ends by itself once its client closed.
                async with asyncio.timeout(5.0):
                    while frontend._connections:
                        await asyncio.sleep(0.005)
                assert len(asyncio.all_tasks()) == 1
                return results
            finally:
                server.close()
                await server.wait_closed()
                await frontend.shutdown()

        try:
            results = asyncio.run(drive())
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

        assert len(results) == tenants
        for result in results:
            tenant = result["tenant"]
            # The response belongs to this tenant's request — not another
            # session's — and the restore round-trips this tenant's own
            # upload exactly (same logical stream, all 6 chunks).
            assert result["upload"]["tenant"] == tenant
            assert result["upload"]["label"] == f"own-{tenant}"
            assert result["upload"]["total_chunks"] == 6
            assert result["restore"]["tenant"] == tenant
            assert result["restore"]["label"] == f"own-{tenant}"
            assert (
                result["restore"]["logical_bytes"]
                == result["upload"]["logical_bytes"]
            )
            assert result["restore"]["total_chunks"] == 6
        # Serving order is nondeterministic under concurrency, but the
        # request indices are a permutation — every request serialized
        # through the engine exactly once.
        indices = sorted(
            r[key]["request_index"]
            for r in results
            for key in ("upload", "restore")
        )
        assert indices == list(range(2 * tenants))
        assert frontend.service.tenants() == list(range(tenants))
        for tenant in range(tenants):
            usage = frontend.service.tenant_usage(tenant)
            assert usage["uploads"] == 1
            assert usage["restores"] == 1
        assert frontend.stats.sessions_opened == tenants

    def test_rate_limit_exact_on_virtual_clock(self):
        """Token buckets admit exactly burst + rate x elapsed requests."""
        now = [1000.0]
        config = ServiceConfig(tenants=2, rounds=1, seed=1)
        frontend = DedupFrontend(
            build_service(config),
            service_config=config,
            config=FrontendConfig(rate_limit=1.0, burst=2.0),
            clock=lambda: now[0],
        )
        with served(config, frontend=frontend) as (_, address):
            with FrontendClient(address) as client:
                client.hello()

                def attempt(i: int) -> str:
                    kind, payload = client.upload(
                        0, 0, f"r{i}", make_backup(f"r{i}", [f"c{i}"])
                    )
                    return "ok" if kind == wire.OK else payload["code"]

                # Frozen clock: exactly `burst` admissions.
                outcomes = [attempt(i) for i in range(4)]
                assert outcomes == [
                    "ok", "ok", wire.E_RATE_LIMITED, wire.E_RATE_LIMITED
                ]
                # +3 virtual seconds at 1 req/s refills min(3, burst).
                now[0] += 3.0
                outcomes = [attempt(10 + i) for i in range(3)]
                assert outcomes == [
                    "ok", "ok", wire.E_RATE_LIMITED
                ]
                # Other tenants have their own buckets: tenant 1 is
                # untouched by tenant 0's exhaustion.
                kind, _ = client.upload(
                    1, 0, "other", make_backup("other", ["oc"])
                )
                assert kind == wire.OK
        assert frontend.admission.throttled_requests == 3

    def test_rate_limit_holds_under_real_contention(self):
        """Hammering tenants stay within bucket math, within tolerance."""
        tenants, attempts = 4, 25
        rate, burst = 20.0, 3.0
        config = ServiceConfig(tenants=tenants, rounds=1, seed=1)
        frontend_config = FrontendConfig(rate_limit=rate, burst=burst)
        with served(config, frontend_config) as (frontend, address):
            started = time.monotonic()

            def hammer(tenant: int) -> int:
                admitted = 0
                with FrontendClient(address) as client:
                    client.hello()
                    for i in range(attempts):
                        kind, _ = client.upload(
                            tenant,
                            0,
                            f"h{tenant}-{i}",
                            make_backup(f"h{tenant}-{i}", ["x"]),
                        )
                        admitted += kind == wire.OK
                return admitted

            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=tenants) as pool:
                admitted = list(pool.map(hammer, range(tenants)))
            elapsed = time.monotonic() - started
        # Each tenant's bucket guarantees its burst and bounds its rate:
        # admitted in [burst, burst + rate x elapsed] (+1 slack for a
        # refill racing the last probe).  Loose on purpose — real clock.
        ceiling = burst + rate * elapsed + 1
        for count in admitted:
            assert burst <= count <= ceiling
        assert frontend.admission.throttled_requests > 0


# -- admission units (virtual clock) -----------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=5.0, clock=lambda: now[0])
        assert sum(bucket.try_acquire() for _ in range(7)) == 5
        now[0] += 1.0  # 2 tokens back
        assert [bucket.try_acquire() for _ in range(3)] == [True, True, False]
        now[0] += 100.0  # refill caps at burst
        assert sum(bucket.try_acquire() for _ in range(10)) == 5

    def test_zero_rate_is_unlimited(self):
        bucket = TokenBucket(rate=0.0, burst=1.0, clock=lambda: 0.0)
        assert all(bucket.try_acquire() for _ in range(1000))

    def test_controller_isolates_tenants_and_caps_sessions(self):
        now = [0.0]
        controller = AdmissionController(
            rate_limit=1.0, burst=1.0, max_sessions=2, clock=lambda: now[0]
        )
        assert controller.admit_request(0)
        assert not controller.admit_request(0)
        assert controller.admit_request(1)  # separate bucket
        assert controller.throttled_requests == 1
        assert controller.admit_session()
        assert controller.admit_session()
        assert not controller.admit_session()
        controller.release_session()
        assert controller.admit_session()
        assert controller.refused_sessions == 1
