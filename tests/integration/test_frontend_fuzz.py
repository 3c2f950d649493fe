"""Seeded frame-mutation search against a live frontend (ROADMAP 4(c)).

Valid HELLO / UPLOAD / RESTORE / STATS frames are mutated — bit flips,
truncation, length-field lies up and down, kind-byte swaps, duplicated
and spliced frames, a meta length that lies, invalid UTF-8 and JSON in
the meta, wrong field types, a tail with a record dropped or appended,
``chunks`` / ``fingerprint_bytes`` that contradict the tail — and each
mutant is written to a fresh connection of one running
:class:`~repro.service.frontend.DedupFrontend`.  Whatever the bytes:

* the exchange ends (the client socket timeout turns a hang into a
  failure);
* every answer is ``OK`` or an ``ERROR`` carrying a code the protocol
  defines, and a fatal code is the last thing on the connection;
* a stream that earned no ``OK`` left the store exactly as it was;
* nothing reached asyncio's "Unhandled exception" handler.

The search is a pure function of :data:`SEED`, which every failure
message carries.

The frontend reassembles frames itself, so a second, differential test
sends a sample of the same mutants and two well-formed sessions once
whole and once in seeded pieces — cut inside headers, at header|body,
inside the meta length, inside the meta, between an upload's
fingerprints and its sizes, one byte before a frame's end, in runs of
1–7 bytes — to two frontends:
how the bytes were delivered must change nothing either of them
answers, counts or stores.
"""

from __future__ import annotations

import json
import random
import socket
import time

import pytest

from repro.service import protocol as wire
from repro.service.frontend import FrontendConfig
from repro.service.loadgen import FrontendClient
from repro.service.simulate import ServiceConfig

from tests.integration.test_serve_frontend import (
    make_backup,
    raw_frame,
    serve_log,  # noqa: F401 - fixture
    served,
    unhandled,
    upload_frame,
    upload_ok,
)

pytestmark = [pytest.mark.integration, pytest.mark.frontend]

SEED = 1404
MUTATIONS = 320
# Long enough that a slow host does not evict a client between connect
# and send, short enough that the few mutants left waiting cost little.
IDLE_TIMEOUT = 0.25
# Mutations 1, 40, 79, … — truncations all — are not half-closed.
WAIT_OUT_EVERY = 39
# The fragmentation differential resends every 8th mutant in pieces, this
# far apart: long enough that an idle server wakes for each piece (the
# kernel coalescing two of them only lowers coverage, never fails).
FRAGMENT_EVERY = 8
PIECE_PAUSE = 0.002

KNOWN_CODES = {
    value
    for name, value in vars(wire).items()
    if name.startswith("E_") and isinstance(value, str)
}
STORE_TOTALS = ("stored_bytes", "unique_chunks_stored", "uploads", "tenants")
COUNTERS = ("frames_in", "frames_out", "errors", "errors_by_class")
WRONG_VALUES = (None, True, -1, 2**70, 1.5, "seven", "", [], [1], {}, {"a": 1})


def base_frames() -> list[tuple[int, dict]]:
    backup = make_backup("fuzz", [f"fz{i}" for i in range(5)])
    return [
        (wire.HELLO, wire.hello_payload("fuzz")),
        (wire.UPLOAD_BATCH, wire.upload_payload(1, 0, "fuzz", backup)),
        (wire.RESTORE, wire.restore_payload(0, "seeded")),
        (wire.STATS, {}),
    ]


def meta_and_tail(payload: dict) -> tuple[dict, bytes]:
    """A payload as it crosses the wire: the JSON fields, the tail."""
    meta = {key: value for key, value in payload.items() if key != wire.TAIL}
    return meta, bytes(payload.get(wire.TAIL, b""))


def dumped(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()


# -- mutation operators: (rng, kind, payload, every base frame) -> bytes ------


def bit_flips(rng, kind, payload, _):
    data = bytearray(wire.encode_frame(kind, payload))
    for _ in range(rng.randint(1, 3)):
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return bytes(data)


def truncation(rng, kind, payload, _):
    data = wire.encode_frame(kind, payload)
    return data[: rng.randrange(1, len(data))]


def length_lie_up(rng, kind, payload, _):
    data = wire.encode_frame(kind, payload)
    (length,) = wire.HEADER.unpack(data[: wire.HEADER_BYTES])
    lie = length + rng.choice((1, 7, 1000, 2**20, 2**31))
    return wire.HEADER.pack(lie) + data[wire.HEADER_BYTES :]


def length_lie_down(rng, kind, payload, _):
    data = wire.encode_frame(kind, payload)
    (length,) = wire.HEADER.unpack(data[: wire.HEADER_BYTES])
    return wire.HEADER.pack(rng.randrange(0, length)) + data[wire.HEADER_BYTES :]


def kind_swap(rng, kind, payload, _):
    other = rng.choice(
        [k for k in wire.FRAME_NAMES if k != kind] + [0x00, 0x7F, 0xFF]
    )
    return wire.encode_frame(other, payload)


def duplicated(rng, kind, payload, _):
    return wire.encode_frame(kind, payload) * rng.randint(2, 4)


def spliced(rng, kind, payload, bases):
    first = wire.encode_frame(kind, payload)
    second = wire.encode_frame(*rng.choice(bases))
    return (
        first[: rng.randrange(1, len(first))]
        + second[rng.randrange(0, len(second)) :]
    )


def meta_length_lie(rng, kind, payload, _):
    meta, tail = meta_and_tail(payload)
    meta = dumped(meta)
    body = 5 + len(meta) + len(tail)
    lie = rng.choice(
        (0, 1, len(meta) - 1, len(meta) + 1, body - 1, body, body + 1, 2**32 - 1)
    )
    return raw_frame(kind, meta, tail, meta_len=lie)


def invalid_utf8(rng, kind, payload, _):
    meta, tail = meta_and_tail(payload)
    meta = bytearray(dumped(meta))
    at = rng.randrange(len(meta))
    meta[at:at] = rng.choice((b"\xff\xfe", b"\xc3", b"\xed\xa0\x80"))
    return raw_frame(kind, bytes(meta), tail)


def invalid_json(rng, kind, payload, _):
    meta, tail = meta_and_tail(payload)
    meta = dumped(meta)
    return raw_frame(
        kind,
        rng.choice(
            (
                meta[:-1],
                meta + b"}",
                b"[1,2]",
                b"null",
                b'"text"',
                b"",
                b"{'tenant': 1}",
                b"[" * 5000,
                b'{"a":' * 5000,
            )
        ),
        tail,
    )


def wrong_types(rng, kind, payload, _):
    meta, tail = meta_and_tail(payload)
    field = rng.choice(sorted(meta) + ["rid", wire.TAIL])
    meta[field] = rng.choice(WRONG_VALUES)
    return raw_frame(kind, dumped(meta), tail)


def tail_record_lost_or_gained(rng, kind, payload, _):
    """One record more or fewer than the meta announces — a whole one
    (fingerprint and size), or only one of its halves; on a kind that
    has no tail, any tail at all."""
    meta, tail = meta_and_tail(payload)
    chunks, width = meta.get("chunks"), meta.get("fingerprint_bytes")
    if not chunks:
        return raw_frame(kind, dumped(meta), rng.choice((b"\0", b"\0" * 12)))
    fingerprints, sizes = tail[: chunks * width], tail[chunks * width :]
    fingerprints, sizes = rng.choice(
        (
            (fingerprints[width:], sizes[4:]),
            (fingerprints[width:], sizes),
            (fingerprints, sizes[4:]),
            (fingerprints + b"x" * width, sizes + b"\0\x04\0\0"),
            (fingerprints + b"x" * width, sizes),
            (fingerprints, sizes + b"\0\x04\0\0"),
            (b"", b""),
        )
    )
    return raw_frame(kind, dumped(meta), fingerprints + sizes)


def meta_contradicts_tail(rng, _kind, _payload, bases):
    """``chunks`` or ``fingerprint_bytes`` off by a little or a lot (some
    pairs still satisfy the length equation: a different, valid upload).
    Always of the upload: no other base frame has a tail to contradict."""
    kind, payload = next(b for b in bases if b[0] == wire.UPLOAD_BATCH)
    meta, tail = meta_and_tail(payload)
    field = rng.choice(("chunks", "fingerprint_bytes"))
    was = meta.get(field, 0)
    meta[field] = rng.choice((0, was - 1, was + 1, 33, 2**32, 10**30))
    if rng.random() < 0.25:
        meta["chunks"], meta["fingerprint_bytes"] = 3, 16  # 3 x 20 == 5 x 12
    return raw_frame(kind, dumped(meta), tail)


OPERATORS = (
    bit_flips,
    truncation,
    length_lie_up,
    length_lie_down,
    kind_swap,
    duplicated,
    spliced,
    meta_length_lie,
    invalid_utf8,
    invalid_json,
    wrong_types,
    tail_record_lost_or_gained,
    meta_contradicts_tail,
)


def store_totals(address) -> dict:
    with FrontendClient(address, timeout=5.0) as client:
        stats = client.stats()
    return {key: stats[key] for key in STORE_TOTALS}


def exchange(
    address, data: bytes, half_close: bool, cuts=()
) -> list[tuple[int, dict]]:
    """Write ``data`` to a fresh connection; every answer up to EOF.

    With ``half_close`` the server sees EOF behind the bytes, so a
    mutant that leaves it waiting for more ends at once; without, it
    must be the idle timeout that ends the wait.  ``cuts`` (ascending
    offsets) sends the bytes in that many pieces more, a pause apart.
    """
    client = FrontendClient(address, timeout=5.0)
    answers = []
    try:
        try:
            for start, end in zip((0, *cuts), (*cuts, len(data))):
                if start:
                    time.sleep(PIECE_PAUSE)
                client.send_raw(data[start:end])
            if half_close:
                client._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # refused from the header alone, the rest unread
        while True:
            try:
                answers.append(client.recv_frame())
            except socket.timeout:
                raise
            except OSError:
                return answers
    finally:
        client.close(polite=False)


def mutants():
    """``(index, operator name, base kind, bytes)`` of every mutation."""
    rng = random.Random(SEED)
    bases = base_frames()
    for index in range(MUTATIONS):
        operator = OPERATORS[index % len(OPERATORS)]
        kind, payload = bases[(index // len(OPERATORS)) % len(bases)]
        yield index, operator.__name__, kind, operator(rng, kind, payload, bases)


def test_mutated_frames_never_wedge_crash_or_corrupt(serve_log):  # noqa: F811
    config = ServiceConfig(tenants=4, rounds=2, seed=1)
    frontend_config = FrontendConfig(idle_timeout=IDLE_TIMEOUT)
    with served(config, frontend_config) as (frontend, address):
        upload_ok(address, 0, "seeded")
        for index, operator, kind, data in mutants():
            context = (
                f"seed {SEED}, mutation {index} ({operator} of "
                f"{wire.FRAME_NAMES[kind]}): {data[:96].hex()}"
            )
            before = store_totals(address)
            try:
                answers = exchange(
                    address, data, half_close=index % WAIT_OUT_EVERY != 1
                )
            except socket.timeout:
                pytest.fail(f"server hung: {context}")
            for position, (answer_kind, answer) in enumerate(answers):
                assert answer_kind in (wire.OK, wire.ERROR), context
                if answer_kind == wire.OK:
                    continue
                # A code the protocol defines, hence one of its classes.
                assert answer["code"] in KNOWN_CODES, context
                if answer["code"] in wire.FATAL_CODES:
                    assert position == len(answers) - 1, context
            if all(answer_kind == wire.ERROR for answer_kind, _ in answers):
                assert store_totals(address) == before, context
        assert sum(frontend.stats.errors_by_class.values()) == sum(
            frontend.stats.errors.values()
        )
    assert unhandled(serve_log) == [], f"seed {SEED}"


# -- delivery in pieces changes nothing ---------------------------------------


def cut_points(rng, frames: list[bytes]) -> list[int]:
    """Seeded offsets at which to cut the stream ``b"".join(frames)``.

    For the first frame and three seeded others: inside the header (1|3
    and 3|1), at header|body, inside the meta length, inside the meta,
    between the fingerprints and the sizes of an upload, and one byte
    before the frame's end; plus two runs of 1-7-byte pieces starting
    anywhere.
    """
    spans, at = [], 0
    for frame in frames:
        spans.append((at, at + len(frame), frame))
        at += len(frame)
    cuts = set()
    for start, end, frame in [spans[0]] + rng.sample(spans, min(3, len(spans))):
        body = start + wire.HEADER_BYTES
        cuts.update((start + 1, start + 3, body, body + 3, body + 12, end - 1))
        try:
            kind, payload = wire.decode_body(frame[wire.HEADER_BYTES :])
        except wire.ProtocolError:
            continue
        if kind == wire.UPLOAD_BATCH and isinstance(payload.get("chunks"), int):
            cuts.add(end - 4 * payload["chunks"])
    for _ in range(2):
        cut = rng.randrange(at)
        for _ in range(rng.randint(3, 6)):
            cut += rng.randint(1, 7)
            cuts.add(cut)
    return sorted(cut for cut in cuts if 0 < cut < at)


def fragmentation_streams() -> list[tuple[str, list[bytes]]]:
    """``(name, frames)``: two well-formed sessions, then the mutants."""
    garbage = bytes([0x7F]) + b"{}"
    backup = make_backup("whole", [f"w{i}" for i in range(5)])
    streams = [
        (
            "24 pipelined uploads, a garbage kind, one frame more",
            [upload_frame(1, f"p{i}") for i in range(24)]
            + [wire.HEADER.pack(len(garbage)) + garbage]
            + [upload_frame(1, "beyond")],
        ),
        (
            "hello, upload, restore, stats, close",
            [
                wire.encode_frame(wire.HELLO, wire.hello_payload("pieces")),
                wire.encode_frame(
                    wire.UPLOAD_BATCH, wire.upload_payload(2, 0, "whole", backup)
                ),
                wire.encode_frame(wire.RESTORE, wire.restore_payload(2, "whole")),
                wire.encode_frame(wire.STATS, {}),
                wire.encode_frame(wire.CLOSE, {}),
            ],
        ),
    ]
    streams += [
        (f"mutation {index} ({operator} of {wire.FRAME_NAMES[kind]})", [data])
        for index, operator, kind, data in mutants()
        if index % FRAGMENT_EVERY == 0
    ]
    return streams


def outcome(address, data: bytes, cuts) -> dict:
    """What one stream was answered, and the server's counters after it
    (running totals: equal after every stream is equal stream by stream)."""
    answers = exchange(address, data, half_close=True, cuts=cuts)
    with FrontendClient(address, timeout=5.0) as client:
        stats = client.stats()
    return {
        "answers": [
            (kind, *(answer.get(key) for key in ("code", "label", "request_index")))
            for kind, answer in answers
        ],
        **{key: stats[key] for key in COUNTERS + STORE_TOTALS},
    }


def test_delivery_in_pieces_changes_nothing(serve_log):  # noqa: F811
    rng = random.Random(SEED)
    config = ServiceConfig(tenants=4, rounds=2, seed=1)
    # Every stream is half-closed, so nothing waits a timeout out; a
    # long one keeps a slow host's pauses from evicting a session.
    patient = FrontendConfig(idle_timeout=30.0)
    with served(config, patient) as (_, whole_address), served(
        config, patient
    ) as (_, pieces_address):
        for address in (whole_address, pieces_address):
            upload_ok(address, 0, "seeded")
        for name, frames in fragmentation_streams():
            data, cuts = b"".join(frames), cut_points(rng, frames)
            assert outcome(pieces_address, data, cuts) == outcome(
                whole_address, data, ()
            ), f"seed {SEED}, {name}, cut at {cuts}: {data[:96].hex()}"
    assert unhandled(serve_log) == [], f"seed {SEED}"


def test_encode_frame_bytes_are_pinned():
    """The reused encoder and the packed prefix write the same bytes."""
    config = ServiceConfig(tenants=4, rounds=2, seed=1)
    with served(config) as (frontend, address):
        upload_ok(address, 0, "seeded")
        stats = frontend.stats_payload()
    for kind, payload in base_frames() + [(wire.OK, stats)]:
        meta, tail = meta_and_tail(payload)
        assert wire.encode_frame(kind, payload) == raw_frame(
            kind, dumped(meta), tail
        )
    assert wire.encode_frame(wire.HELLO, wire.hello_payload("fuzz")) == (
        b"\x00\x00\x00\x23\x01\x00\x00\x00\x1e"
        b'{"client":"fuzz","protocol":2}'
    )
    backup = make_backup("pin", ["a", "bc", "def"], size=4096)
    backup.sizes[2] = 2**32 - 1
    payload = wire.upload_payload(7, 1, "pin", backup)
    payload["rid"] = "r-0"
    assert wire.encode_frame(wire.UPLOAD_BATCH, payload) == (
        b"\x00\x00\x00\x7a\x02\x00\x00\x00\x51"
        b'{"chunks":3,"fingerprint_bytes":8,"label":"pin","rid":"r-0",'
        b'"round":1,"tenant":7}'
        b"a\0\0\0\0\0\0\0bc\0\0\0\0\0\0def\0\0\0\0\0"
        b"\x00\x10\x00\x00\x00\x10\x00\x00\xff\xff\xff\xff"
    )
