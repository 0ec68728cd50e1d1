"""Wire-format roundtrips and malformed-datagram rejection."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import protocol
from repro.service.server import ServiceConfig, StreamingService


class TestRoundtrips:
    def test_hello(self):
        frame = protocol.decode(
            protocol.encode_hello(7, {"want": "video"}))
        assert frame == protocol.HelloFrame(7, {"want": "video"})

    def test_welcome(self):
        frame = protocol.decode(
            protocol.encode_welcome(3, {"layer_rate": 2500.0}))
        assert frame == protocol.WelcomeFrame(3, {"layer_rate": 2500.0})

    def test_data(self):
        wire = protocol.encode_data(3, 41, 2, 5, 1.25, 500)
        assert len(wire) == 500
        frame = protocol.decode(wire)
        assert frame == protocol.DataFrame(3, 41, 2, 5, 1.25, size=500)

    def test_ack(self):
        frame = protocol.decode(protocol.encode_ack(3, 41, 1.25))
        assert frame == protocol.AckFrame(3, 41, 1.25)

    def test_fin(self):
        assert protocol.decode(
            protocol.encode_fin(9)) == protocol.FinFrame(9)

    def test_fin_ack(self):
        frame = protocol.decode(
            protocol.encode_fin_ack(9, {"adds": [[1.0, 1]]}))
        assert frame == protocol.FinAckFrame(9, {"adds": [[1.0, 1]]})

    def test_reject(self):
        frame = protocol.decode(protocol.encode_reject("server full"))
        assert frame == protocol.RejectFrame("server full")


class TestDataPadding:
    def test_padded_to_nominal_size(self):
        for size in (protocol.MIN_PACKET_SIZE, 100, 1000):
            assert len(protocol.encode_data(1, 0, 0, 1, 0.0, size)) \
                == size

    def test_size_below_overhead_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_data(1, 0, 0, 1, 0.0,
                                 protocol.DATA_OVERHEAD - 1)


#: sha256 of encoded hot-path frames: the bytes on the wire never move.
PINNED_FRAMES = {
    "data_overhead": (
        lambda: protocol.encode_data(1, 0, 0, 1, 0.0,
                                     protocol.DATA_OVERHEAD),
        "58a53034ded6dd379639cde38833d61ef609b45554e3d4666fdbc6c8cabc10de"),
    "data_400": (
        lambda: protocol.encode_data(3, 41, 2, 5, 1.25, 400),
        "dc2cf558275ecc1f854c73e9799978ad0232d010cc1f82eb8bcad850d5cc7cb3"),
    "data_widest_fields": (
        lambda: protocol.encode_data(0xFFFFFFFF, 0xFFFFFFFF, 255, 255,
                                     -2.5e-7, 1000),
        "79fc69bd55333066ef355606d556e227e3086fccc3877c4c0e2c56918cc38435"),
    "ack": (
        lambda: protocol.encode_ack(3, 41, 1.25),
        "d1b57734246506f7573809b08e898f42272331ffc3abca6d345c6ba766a50b52"),
    "ack_widest_fields": (
        lambda: protocol.encode_ack(0xFFFFFFFF, 0xFFFFFFFF, 1e300),
        "fcbc403c402fb98f346b5dc294477b657c771b33ad928fa0c8201b3589a406fe"),
}


@pytest.mark.parametrize("name", sorted(PINNED_FRAMES))
def test_hot_path_bytes_are_pinned(name):
    encode, sha256 = PINNED_FRAMES[name]
    assert hashlib.sha256(encode()).hexdigest() == sha256


PACKET_SIZE = 400
DATA_WIRE = protocol.encode_data(3, 41, 2, 5, 1.25, PACKET_SIZE)
ACK_WIRE = protocol.encode_ack(3, 41, 1.25)


class TestLengthBoundaries:
    """Which lengths decode and which raise; DATA takes any padding."""

    @pytest.mark.parametrize("length", [
        protocol.DATA_OVERHEAD, protocol.DATA_OVERHEAD + 1, PACKET_SIZE])
    def test_data_accepted(self, length):
        frame = protocol.decode(DATA_WIRE[:length])
        assert frame == protocol.DataFrame(3, 41, 2, 5, 1.25, length)

    def test_data_one_byte_short_raises(self):
        with pytest.raises(protocol.ProtocolError, match="truncated DATA"):
            protocol.decode(DATA_WIRE[:protocol.DATA_OVERHEAD - 1])

    def test_data_trailing_bytes_count_as_padding(self):
        frame = protocol.decode(DATA_WIRE + b"\xff\xff")
        assert frame.size == PACKET_SIZE + 2 and frame.seq == 41

    def test_ack_exact_length_accepted(self):
        assert len(ACK_WIRE) == protocol.ACK_SIZE == 20
        assert protocol.decode(ACK_WIRE) == protocol.AckFrame(3, 41, 1.25)

    @pytest.mark.parametrize("datagram", [
        ACK_WIRE[:-1], ACK_WIRE + b"\x00"], ids=["short", "trailing"])
    def test_ack_off_by_one_raises(self, datagram):
        with pytest.raises(protocol.ProtocolError, match="malformed ACK"):
            protocol.decode(datagram)

    def test_encode_below_overhead_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(protocol.ProtocolError):
                protocol.encode_data(1, 0, 0, 1, 0.0,
                                     protocol.DATA_OVERHEAD - 1)

    def test_frames_are_immutable(self):
        with pytest.raises(AttributeError):
            protocol.decode(ACK_WIRE).acked_seq = 0


U32 = st.integers(0, 0xFFFFFFFF)
U8 = st.integers(0, 255)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(U32, U32, U8, U8, FINITE,
       st.integers(protocol.DATA_OVERHEAD, 1500))
def test_data_roundtrip(session_id, seq, layer, active, send_ts, size):
    wire = protocol.encode_data(session_id, seq, layer, active, send_ts,
                                size)
    assert len(wire) == size
    frame = protocol.decode(wire)
    assert type(frame) is protocol.DataFrame
    assert frame == (session_id, seq, layer, active, send_ts, size)
    assert math.copysign(1.0, frame.send_ts) == math.copysign(1.0, send_ts)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(U32, U32, FINITE)
def test_ack_roundtrip(session_id, acked_seq, echo_ts):
    frame = protocol.decode(protocol.encode_ack(session_id, acked_seq,
                                                echo_ts))
    assert type(frame) is protocol.AckFrame
    assert frame == (session_id, acked_seq, echo_ts)


class TestMalformed:
    @pytest.mark.parametrize("datagram", [
        b"",
        b"\x00",
        b"garbage-not-a-frame",
        b"\x00\x00\x01\x03",               # wrong magic
        b"\x52\x41\x02\x03",               # wrong version
        b"\x52\x41\x01\x63",               # unknown frame type
        b"\x52\x41\x01\x03\x00\x00",       # truncated DATA
        b"\x52\x41\x01\x04\x00\x00\x00\x01",  # malformed ACK
        protocol.encode_hello(1, {})[:6],  # truncated HELLO
    ])
    def test_raises_protocol_error(self, datagram):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(datagram)

    def test_non_object_json_body_rejected(self):
        wire = (protocol.encode_welcome(1, {})[:8] + b"[1,2]")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(wire)

    def test_reject_without_reason_rejected(self):
        wire = (protocol.encode_reject("x")[:4] + b"{}")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(wire)


#: JSON bodies ``json.loads`` rejects with something other than a
#: ``JSONDecodeError``: too deep to parse, and an integer past Python's
#: 4 300-digit conversion limit.
HOSTILE_BODIES = [b"[" * 30_000, b'{"n": ' + b"9" * 5_000 + b"}"]
HOSTILE_HELLOS = [protocol.encode_hello(1, {})[:8] + body
                  for body in HOSTILE_BODIES]


class TestHostileBodies:
    @pytest.mark.parametrize("body", HOSTILE_BODIES, ids=["deep", "digits"])
    @pytest.mark.parametrize("head", [
        protocol.encode_hello(1, {})[:8],
        protocol.encode_fin_ack(1, {})[:8],
        protocol.encode_reject("x")[:4],
    ], ids=["hello", "fin_ack", "reject"])
    def test_raises_protocol_error(self, head, body):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(head + body)

    @pytest.mark.parametrize("datagram", HOSTILE_HELLOS,
                             ids=["deep", "digits"])
    def test_service_counts_it_and_opens_no_session(self, datagram):
        service = StreamingService(ServiceConfig())
        service.datagram_received(datagram, ("10.0.0.9", 5009))
        assert service.counters["malformed_frames"] == 1
        assert service.sessions == {}
