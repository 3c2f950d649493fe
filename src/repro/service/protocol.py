"""The framed wire protocol the socket frontend speaks.

Frames are length-prefixed: a 4-byte big-endian unsigned length, then a
1-byte frame kind, then a JSON payload (UTF-8, sorted keys).  The length
covers the kind byte plus the payload, so an empty-payload frame is 3
bytes of body behind a 4-byte header.  Fingerprints cross the wire as
lowercase hex strings (the shared chunk space uses short fingerprints,
so hex costs 2x — ``python3 -m bench`` reports the real price as
``protocol.bytes_per_chunk``).

Request kinds (client → server):

* ``HELLO`` — opens a session; carries the protocol version and is
  rejected (``protocol`` error) on a mismatch.
* ``UPLOAD_BATCH`` — one upload session: tenant, label, traffic round,
  and the plaintext chunk stream (fingerprints + sizes).  The server
  runs the client-assisted dedup protocol of
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
answering), the rest leave the session usable.

The codec is deliberately symmetric and dependency-free so the asyncio
server (:mod:`repro.service.frontend`), the blocking client
(:mod:`repro.service.loadgen`), and the protocol-robustness tests all
share one source of framing truth.
"""

from __future__ import annotations

import json
import struct

from repro.common.errors import ReproError
from repro.common.units import MiB
from repro.datasets.model import Backup

PROTOCOL_VERSION = 1

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
# Length and kind byte packed in one call; one encoder for every frame
# (``json.dumps`` with non-default arguments builds one per call).
_PREFIX = struct.Struct(">IB")
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
DEFAULT_MAX_FRAME_BYTES = 4 * MiB

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
    """Serialize one frame: header + kind byte + JSON payload."""
    body = _ENCODER.encode(payload).encode("utf-8")
    return _PREFIX.pack(1 + len(body), kind) + body


def decode_body(body: bytes | bytearray) -> tuple[int, dict]:
    """Decode a frame body (everything after the length header).

    Raises:
        ProtocolError: the body is empty, the kind byte is not a frame
            kind this protocol defines (``unknown_frame_kind`` — the
            stream is corrupt or the peer speaks something else, so the
            code is fatal and classed as garbage), the payload is not
            valid JSON, or the payload is not a JSON object.
    """
    if not body:
        raise ProtocolError("empty frame body", code=E_PROTOCOL)
    kind = body[0]
    if kind not in FRAME_NAMES:
        raise ProtocolError(
            f"unknown frame kind 0x{kind:02x}", code=E_UNKNOWN_KIND
        )
    try:
        payload = json.loads(body[1:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        # RecursionError: nesting deeper than the interpreter's stack.
        raise ProtocolError(
            f"malformed frame payload: {error}", code=E_BAD_REQUEST
        ) from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            "frame payload must be a JSON object", code=E_BAD_REQUEST
        )
    return kind, payload


def error_payload(code: str, message: str) -> dict:
    return {"code": code, "message": message}


def hello_payload(client: str = "freqdedup-client") -> dict:
    return {"protocol": PROTOCOL_VERSION, "client": client}


def upload_payload(
    tenant: int, round_index: int, label: str, backup: Backup
) -> dict:
    """The UPLOAD_BATCH payload for one plaintext chunk stream."""
    return {
        "tenant": tenant,
        "round": round_index,
        "label": label,
        "fingerprints": [fp.hex() for fp in backup.fingerprints],
        "sizes": list(backup.sizes),
    }


def restore_payload(tenant: int, label: str) -> dict:
    return {"tenant": tenant, "label": label}


def _require(payload: dict, field: str, kinds) -> object:
    value = payload.get(field)
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ProtocolError(f"missing or invalid field {field!r}")
    return value


def parse_upload(payload: dict) -> tuple[int, int, str, Backup]:
    """Validate an UPLOAD_BATCH payload into ``(tenant, round, label,
    plaintext backup)``.

    Raises:
        ProtocolError: a field is missing, mistyped, or the fingerprint
            and size lists disagree in length.
    """
    tenant = _require(payload, "tenant", int)
    round_index = _require(payload, "round", int)
    label = _require(payload, "label", str)
    fingerprints = _require(payload, "fingerprints", list)
    sizes = _require(payload, "sizes", list)
    if len(fingerprints) != len(sizes):
        raise ProtocolError(
            f"{len(fingerprints)} fingerprints but {len(sizes)} sizes"
        )
    try:
        raw = [bytes.fromhex(fp) for fp in fingerprints]
    except (TypeError, ValueError):
        raise ProtocolError("fingerprints must be hex strings") from None
    for size in sizes:
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
            raise ProtocolError("sizes must be non-negative integers")
    return tenant, round_index, label, Backup(
        label=label, fingerprints=raw, sizes=list(sizes)
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
