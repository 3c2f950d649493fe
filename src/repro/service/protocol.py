"""The framed wire protocol the socket frontend speaks (version 2).

Every frame is a 4-byte big-endian length and a body of that many bytes::

    length:u32 | kind:u8 | meta_len:u32 | meta | tail

``meta`` is a compact JSON object (UTF-8, sorted keys) of ``meta_len``
bytes; ``tail`` is whatever the body holds beyond it, and is empty for
every kind except ``UPLOAD_BATCH``.  There the chunk stream crosses the
wire as bytes: ``chunks`` fingerprints of ``fingerprint_bytes`` bytes
each, packed back to back, then ``chunks`` little-endian ``uint32``
sizes (the byte order of :mod:`repro.datasets.columnar`) — so
``len(tail) == chunks * (fingerprint_bytes + 4)``, the one equation a
receiver checks before it reads a record.  ``python3 -m bench`` reports
the price as ``protocol.bytes_per_chunk``.

In Python a payload is a ``dict``: the meta fields plus, for an upload,
the tail under the key :data:`TAIL` (which is never part of the meta).

Request kinds (client → server):

* ``HELLO`` — opens a session; carries the protocol version and is
  rejected (``protocol`` error) on a mismatch.
* ``UPLOAD_BATCH`` — one upload session: tenant, label, traffic round,
  and the plaintext chunk stream (fingerprints + sizes) in the tail.
  The server runs the client-assisted dedup protocol of
  :meth:`~repro.service.server.DedupService.upload` — encrypt under the
  service scheme, one pipelined batched index probe, transfer only the
  needed-set — and answers with the request's
  :class:`~repro.service.server.RequestObservables`.
* ``RESTORE`` — read one upload back from the tenant's own namespace.
* ``STATS`` — server counters (sessions, frames, errors, store totals).
* ``CLOSE`` — polite shutdown of the session.

Responses are ``OK`` (result payload) or ``ERROR`` (``code`` +
``message``).  Error codes are module constants: admission errors
(``rate_limited``, ``quota_exceeded``, ``busy``), session errors
(``not_found``, ``label_conflict``, ``bad_request``), and transport
errors (``oversized_frame``, ``idle_timeout``, ``protocol``) — the
transport class is fatal (the server closes the connection after
answering), the rest leave the session usable.  A body whose first five
bytes do not describe it (shorter than the prefix, or a ``meta_len``
beyond its end — what a version-1 peer's ``kind | JSON`` reads as) is a
``protocol`` error; a well-delimited body with a bad meta, a tail where
none belongs, or fields that disagree with the tail is ``bad_request``.

The codec is deliberately symmetric and dependency-free so the asyncio
server (:mod:`repro.service.frontend`), the blocking client
(:mod:`repro.service.loadgen`), and the protocol-robustness tests all
share one source of framing truth.
"""

from __future__ import annotations

import json
import struct
from array import array

from repro.common.errors import ReproError
from repro.common.units import MiB
from repro.datasets.columnar import U32_TYPECODE, u32_array, u32_bytes
from repro.datasets.model import Backup

PROTOCOL_VERSION = 2

# Frame kinds: requests 0x01-0x0f, responses 0x81-0x8f.
HELLO = 0x01
UPLOAD_BATCH = 0x02
RESTORE = 0x03
STATS = 0x04
CLOSE = 0x05
OK = 0x81
ERROR = 0x82

FRAME_NAMES = {
    HELLO: "hello",
    UPLOAD_BATCH: "upload_batch",
    RESTORE: "restore",
    STATS: "stats",
    CLOSE: "close",
    OK: "ok",
    ERROR: "error",
}

HEADER = struct.Struct(">I")
HEADER_BYTES = HEADER.size
# What a body opens with (kind, meta length), and the same behind the
# frame length, packed in one call; one encoder for every frame
# (``json.dumps`` with non-default arguments builds one per call).
_BODY_PREFIX = struct.Struct(">BI")
_FRAME_PREFIX = struct.Struct(">IBI")
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
DEFAULT_MAX_FRAME_BYTES = 4 * MiB

# The payload key of an UPLOAD_BATCH's binary tail; never in the meta.
TAIL = "tail"
# A fingerprint is at most a whole SHA-256 (``DefensePipeline``'s bound).
MAX_FINGERPRINT_BYTES = 32

# Error codes carried in ERROR payloads.  The transport class
# (FATAL_CODES) desyncs or abuses the framing layer, so the server
# answers once and closes; every other code leaves the session open.
E_BAD_REQUEST = "bad_request"
E_RATE_LIMITED = "rate_limited"
E_QUOTA = "quota_exceeded"
E_CONFLICT = "label_conflict"
E_NOT_FOUND = "not_found"
E_BUSY = "busy"
E_OVERSIZED = "oversized_frame"
E_IDLE = "idle_timeout"
E_PROTOCOL = "protocol"
E_UNKNOWN_KIND = "unknown_frame_kind"

FATAL_CODES = frozenset({E_OVERSIZED, E_IDLE, E_PROTOCOL, E_UNKNOWN_KIND})

# Every error code falls into exactly one class: admission rejections
# (the token bucket, quota, or queue said no — retry later), garbage
# (a frame kind outside the protocol — a corrupted stream or a peer
# speaking something else entirely; fatal, and classed on its own so
# corruption is distinguishable from protocol-aware transport abuse),
# transport violations (fatal, connection closed after the answer),
# and session errors (the request was wrong but the session survives).
ADMISSION_CODES = frozenset({E_RATE_LIMITED, E_QUOTA, E_BUSY})
GARBAGE_CODES = frozenset({E_UNKNOWN_KIND})

CLASS_ADMISSION = "admission"
CLASS_GARBAGE = "garbage"
CLASS_SESSION = "session"
CLASS_TRANSPORT = "transport"

ERROR_CLASSES = (CLASS_ADMISSION, CLASS_GARBAGE, CLASS_SESSION, CLASS_TRANSPORT)


def error_class(code: str) -> str:
    """The class an error code belongs to (unknown codes count as
    session errors — survivable and visible, never silently fatal)."""
    if code in ADMISSION_CODES:
        return CLASS_ADMISSION
    if code in GARBAGE_CODES:
        return CLASS_GARBAGE
    if code in FATAL_CODES:
        return CLASS_TRANSPORT
    return CLASS_SESSION


class ProtocolError(ReproError):
    """A frame or payload violated the wire protocol.

    ``code`` is the ERROR-payload code the server answers with (one of
    the ``E_*`` constants).
    """

    def __init__(self, message: str, code: str = E_BAD_REQUEST):
        super().__init__(message)
        self.code = code


def encode_frame(kind: int, payload: dict) -> bytes:
    """Serialize one frame: length, kind, meta length, JSON meta, tail."""
    tail = b""
    if TAIL in payload:
        payload = dict(payload)
        tail = payload.pop(TAIL)
    meta = _ENCODER.encode(payload).encode("utf-8")
    length = _BODY_PREFIX.size + len(meta) + len(tail)
    return b"".join((_FRAME_PREFIX.pack(length, kind, len(meta)), meta, tail))


def decode_body(body: bytes | bytearray) -> tuple[int, dict]:
    """Decode a frame body (everything after the length header).

    An ``UPLOAD_BATCH`` payload carries its tail under :data:`TAIL` as a
    view of ``body`` — nothing is copied until the records are parsed.

    Raises:
        ProtocolError: the kind byte is not a frame kind this protocol
            defines (``unknown_frame_kind`` — the stream is corrupt or
            the peer speaks something else, so the code is fatal and
            classed as garbage); the body is shorter than its prefix or
            than the meta it announces (``protocol``, fatal: a peer of
            another version); the meta is not a JSON object, or a kind
            other than ``UPLOAD_BATCH`` has a tail (``bad_request``).
    """
    if body and body[0] not in FRAME_NAMES:
        raise ProtocolError(
            f"unknown frame kind 0x{body[0]:02x}", code=E_UNKNOWN_KIND
        )
    start = end = _BODY_PREFIX.size
    if len(body) >= start:
        kind, meta_len = _BODY_PREFIX.unpack_from(body)
        end += meta_len
    if end > len(body):
        raise ProtocolError(
            f"prefix and meta need {end} bytes, the frame body has {len(body)}",
            code=E_PROTOCOL,
        )
    try:
        payload = json.loads(body[start:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        # RecursionError: nesting deeper than the interpreter's stack.
        raise ProtocolError(f"malformed frame meta: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("frame meta must be a JSON object")
    if kind == UPLOAD_BATCH:
        payload[TAIL] = memoryview(body)[end:]
    elif end != len(body):
        raise ProtocolError(f"a {FRAME_NAMES[kind]} frame has no tail")
    return kind, payload


def error_payload(code: str, message: str) -> dict:
    return {"code": code, "message": message}


def hello_payload(client: str = "freqdedup-client") -> dict:
    return {"protocol": PROTOCOL_VERSION, "client": client}


def upload_payload(
    tenant: int, round_index: int, label: str, backup: Backup
) -> dict:
    """The UPLOAD_BATCH payload for one plaintext chunk stream.

    Raises:
        ProtocolError: the stream has no wire form — fingerprints of
            more than one width, or a size that is not a ``uint32``.
    """
    fingerprints = backup.fingerprints
    widths = set(map(len, fingerprints)) or {0}
    if len(widths) > 1:
        raise ProtocolError(f"fingerprints of mixed widths {sorted(widths)}")
    try:
        sizes = u32_bytes(array(U32_TYPECODE, backup.sizes))
    except (OverflowError, TypeError):
        raise ProtocolError("sizes must be integers in 0..2**32-1") from None
    return {
        "tenant": tenant,
        "round": round_index,
        "label": label,
        "chunks": len(fingerprints),
        "fingerprint_bytes": widths.pop(),
        TAIL: b"".join(fingerprints) + sizes,
    }


def restore_payload(tenant: int, label: str) -> dict:
    return {"tenant": tenant, "label": label}


def _require(payload: dict, field: str, kind: type) -> object:
    """A field of exactly this type (so no ``bool`` for an ``int``); an
    integer — a tenant, a round, a count, a width — is never negative."""
    value = payload.get(field)
    if type(value) is not kind or (kind is int and value < 0):
        raise ProtocolError(f"missing or invalid field {field!r}")
    return value


def parse_upload(payload: dict) -> tuple[int, int, str, Backup]:
    """Validate an UPLOAD_BATCH payload into ``(tenant, round, label,
    plaintext backup)``.

    Raises:
        ProtocolError: a field is missing, mistyped or negative, or
            ``chunks`` records of ``fingerprint_bytes`` (1..32) plus 4
            bytes each are not exactly the tail.
    """
    tenant = _require(payload, "tenant", int)
    round_index = _require(payload, "round", int)
    label = _require(payload, "label", str)
    chunks = _require(payload, "chunks", int)
    width = _require(payload, "fingerprint_bytes", int)
    tail = payload.get(TAIL, b"")
    if len(tail) != chunks * (width + 4) or (
        chunks and not 1 <= width <= MAX_FINGERPRINT_BYTES
    ):
        raise ProtocolError(
            f"{chunks} chunks of {width}-byte fingerprints (1.."
            f"{MAX_FINGERPRINT_BYTES}) do not make a {len(tail)}-byte tail"
        )
    # One C call cuts every fingerprint; the format is built per frame
    # (``struct.unpack`` would cache a compiled copy of each length).
    records = struct.Struct(f"{width}s" * chunks)
    return tenant, round_index, label, Backup(
        label=label,
        fingerprints=list(records.unpack_from(tail)),
        sizes=u32_array(tail[records.size :]).tolist(),
    )


def parse_restore(payload: dict) -> tuple[int, str]:
    """Validate a RESTORE payload into ``(tenant, label)``."""
    return _require(payload, "tenant", int), _require(payload, "label", str)


def observables_payload(observables) -> dict:
    """A :class:`~repro.service.server.RequestObservables` as a JSON-safe
    response payload (all primitive fields).

    The instance dict of the frozen dataclass *is* its fields in
    declaration order — what ``dataclasses.asdict`` returns, without the
    recursive deep copy that costs more than encoding the frame.
    """
    return dict(vars(observables))
