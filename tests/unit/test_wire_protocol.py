"""The version-2 frame codec, without a socket: an upload survives the
wire exactly, and a frame is exactly as long as its layout says."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.model import Backup
from repro.service import protocol as wire

U32_MAX = 2**32 - 1


@st.composite
def backups(draw):
    width = draw(st.integers(1, wire.MAX_FINGERPRINT_BYTES))
    chunks = draw(st.integers(0, 40))
    fingerprint = st.binary(min_size=width, max_size=width)
    size = st.one_of(st.sampled_from((0, 1, 4096, U32_MAX)), st.integers(0, U32_MAX))
    return Backup(
        label=draw(st.text(max_size=12)),
        fingerprints=draw(st.lists(fingerprint, min_size=chunks, max_size=chunks)),
        sizes=draw(st.lists(size, min_size=chunks, max_size=chunks)),
    )


@settings(max_examples=150, deadline=None)
@given(
    backup=backups(),
    tenant=st.integers(0, 2**40),
    round_index=st.integers(0, 1000),
    rid=st.one_of(st.none(), st.text(max_size=8)),
)
def test_an_upload_round_trips_and_is_as_long_as_its_layout(
    backup, tenant, round_index, rid
):
    payload = wire.upload_payload(tenant, round_index, backup.label, backup)
    if rid is not None:
        payload["rid"] = rid
    frame = wire.encode_frame(wire.UPLOAD_BATCH, payload)

    (length,) = wire.HEADER.unpack_from(frame)
    assert length == len(frame) - wire.HEADER_BYTES
    meta_len = int.from_bytes(frame[5:9], "big")
    meta = json.loads(frame[9 : 9 + meta_len])
    width = len(backup.fingerprints[0]) if len(backup) else 0
    assert meta["chunks"] == len(backup)
    assert meta["fingerprint_bytes"] == width
    assert meta.get("rid") == rid
    assert len(frame) == 4 + 1 + 4 + meta_len + len(backup) * (width + 4)

    # The server hands decode_body a bytearray, the client bytes.
    for body in (frame[wire.HEADER_BYTES :], bytearray(frame[wire.HEADER_BYTES :])):
        kind, decoded = wire.decode_body(body)
        assert kind == wire.UPLOAD_BATCH
        assert decoded.get("rid") == rid
        got_tenant, got_round, label, got = wire.parse_upload(decoded)
        assert (got_tenant, got_round, label) == (tenant, round_index, backup.label)
        assert got == backup
        assert all(type(fp) is bytes for fp in got.fingerprints)
        assert all(type(size) is int for size in got.sizes)


@pytest.mark.parametrize("width", range(1, wire.MAX_FINGERPRINT_BYTES + 1))
def test_every_width_round_trips(width):
    backup = Backup(
        "w",
        [bytes([i]) * width for i in range(3)],
        [0, 4096, U32_MAX],
    )
    frame = wire.encode_frame(
        wire.UPLOAD_BATCH, wire.upload_payload(0, 0, "w", backup)
    )
    _, payload = wire.decode_body(frame[wire.HEADER_BYTES :])
    assert wire.parse_upload(payload)[3] == backup


def test_an_empty_backup_is_an_empty_tail():
    frame = wire.encode_frame(
        wire.UPLOAD_BATCH, wire.upload_payload(1, 0, "empty", Backup("empty"))
    )
    _, payload = wire.decode_body(frame[wire.HEADER_BYTES :])
    assert len(payload[wire.TAIL]) == 0
    assert wire.parse_upload(payload) == (1, 0, "empty", Backup("empty"))


def test_a_tail_key_in_the_meta_is_not_the_tail():
    """Only bytes behind the meta are the tail, whatever the meta says."""
    meta = b'{"chunks":0,"fingerprint_bytes":0,"label":"x","round":0,"tail":"abc","tenant":0}'
    body = bytes([wire.UPLOAD_BATCH]) + len(meta).to_bytes(4, "big") + meta
    _, payload = wire.decode_body(body)
    assert bytes(payload[wire.TAIL]) == b""


@pytest.mark.parametrize(
    "body, code",
    [
        (b"", wire.E_PROTOCOL),
        (b"\x04", wire.E_PROTOCOL),
        (b"\x04\x00\x00\x00", wire.E_PROTOCOL),
        (b"\x04\x00\x00\x00\x03{}", wire.E_PROTOCOL),
        (b'\x01{"protocol":1}', wire.E_PROTOCOL),
        (b"\x7f\x00\x00\x00\x02{}", wire.E_UNKNOWN_KIND),
        (b"\x7f", wire.E_UNKNOWN_KIND),
        (b"\x04\x00\x00\x00\x02{}x", wire.E_BAD_REQUEST),
        (b"\x04\x00\x00\x00\x02[]", wire.E_BAD_REQUEST),
        (b"\x04\x00\x00\x00\x02{x", wire.E_BAD_REQUEST),
        (b"\x04\x00\x00\x00\x02\xff\xfe", wire.E_BAD_REQUEST),
        (b"\x04\x00\x00\x00\x00", wire.E_BAD_REQUEST),
    ],
)
def test_what_a_bad_body_is_answered_with(body, code):
    with pytest.raises(wire.ProtocolError) as refusal:
        wire.decode_body(body)
    assert refusal.value.code == code
    assert (code in wire.FATAL_CODES) == (code != wire.E_BAD_REQUEST)
