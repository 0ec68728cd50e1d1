"""Wire-format roundtrips and malformed-datagram rejection."""

import pytest

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
