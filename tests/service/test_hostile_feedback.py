"""Forged and spoofed feedback: what a UDP port on the Internet receives.

Session ids are sequential, so anyone can address a frame to a
neighbour's session. Two defences are exercised here, both counted
under ``malformed_frames``: the shared AIMD law refuses ACKs no honest
receiver could have sent, and the service drops ACK/FIN frames that do
not come from the session's own address.

Everything runs on the benchmark harness's virtual-time loop (no
sockets, no sleeping), which makes whole-session outcomes repeatable to
the last digit.
"""

import asyncio
import importlib.util
import math
import pathlib

import pytest

from repro.core.config import QAConfig
from repro.service import protocol
from repro.service.client import LoadFleet
from repro.service.server import ServiceConfig, StreamingService

from tests.service.census import close_and_census

_SUITE = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "suite"
_spec = importlib.util.spec_from_file_location(
    "virtual_loop", _SUITE / "virtual_loop.py")
virtual_loop = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(virtual_loop)

QA = QAConfig(layer_rate=4000.0, max_layers=3, packet_size=200,
              startup_delay=0.5, max_buffer_seconds=4.0)
OWNER = ("10.0.0.1", 5000)
STRANGER = ("10.0.0.66", 6666)


@pytest.fixture
def loop():
    loop = virtual_loop.VirtualLoop()
    yield loop
    loop.close()


@pytest.fixture
def streaming(loop):
    """A service with one session, owned by OWNER, with packets out.

    Nobody ACKs, so stop short of the first timeout (rto is 0.6 s).
    """
    service = loop.run_until_complete(StreamingService.start(
        ServiceConfig(qa=QA, collect_metrics=True)))
    service.datagram_received(protocol.encode_hello(1, {}), OWNER)
    loop.run_until_complete(asyncio.sleep(0.5))
    (session,) = service.sessions.values()
    assert len(session.pacer.outstanding) >= 3
    yield service, session
    loop.run_until_complete(close_and_census(service))


def pacer_state(pacer):
    return (pacer.rate, pacer.srtt, pacer.highest_acked,
            pacer.packets_lost, pacer.backoffs, len(pacer.outstanding))


class TestForgedAcks:
    def test_ack_for_an_unsent_seq_is_counted_and_ignored(self, streaming):
        service, session = streaming
        before = pacer_state(session.pacer)
        service.datagram_received(
            protocol.encode_ack(session.session_id, 0xFFFFFFFF, 0.5), OWNER)
        assert service.counters["malformed_frames"] == 1
        assert pacer_state(session.pacer) == before
        assert service.feedback_latencies == []

    @pytest.mark.parametrize("echo_ts", [math.nan, math.inf, -math.inf])
    def test_non_finite_echo_is_counted_and_not_measured(
            self, streaming, echo_ts):
        service, session = streaming
        srtt = session.pacer.srtt
        service.datagram_received(
            protocol.encode_ack(session.session_id, 0, echo_ts), OWNER)
        assert session.pacer.acks_received == 1
        assert service.counters["malformed_frames"] == 1
        assert session.pacer.srtt == srtt
        assert service.feedback_latencies == []
        # The packet itself is acknowledged, not left to time out.
        assert 0 not in session.pacer.outstanding


class TestSpoofedFeedback:
    def test_ack_from_another_address_is_dropped(self, streaming):
        service, session = streaming
        before = pacer_state(session.pacer)
        service.datagram_received(
            protocol.encode_ack(session.session_id, 0, 0.5), STRANGER)
        assert service.counters["malformed_frames"] == 1
        assert service.counters["acks_received"] == 0
        assert pacer_state(session.pacer) == before

    def test_fin_from_another_address_does_not_end_the_session(
            self, streaming):
        service, session = streaming
        service.datagram_received(
            protocol.encode_fin(session.session_id), STRANGER)
        assert service.counters["malformed_frames"] == 1
        assert service.counters["sessions_completed"] == 0
        assert not session.done
        service.datagram_received(
            protocol.encode_fin(session.session_id), OWNER)
        assert service.counters["sessions_completed"] == 1


class _Attacker(asyncio.DatagramProtocol):
    pass


def _honest_summary(attacked):
    """One honest client's server-side outcome, with or without a
    stranger aiming forged frames at its session.

    Each run gets its own loop so both start at virtual time zero.
    """
    loop = virtual_loop.VirtualLoop()

    async def attack(port):
        transport, _ = await loop.create_datagram_endpoint(
            _Attacker, remote_addr=("127.0.0.1", port))
        await asyncio.sleep(0.3)
        while True:
            for frame in (protocol.encode_ack(1, 0xFFFFFFFF, 0.0),
                          protocol.encode_ack(1, 0, math.nan),
                          protocol.encode_ack(1, 0, -math.inf),
                          protocol.encode_fin(1)):
                transport.sendto(frame)
            await asyncio.sleep(0.05)

    async def run():
        service = await StreamingService.start(ServiceConfig(qa=QA))
        attacker = (asyncio.ensure_future(attack(service.port))
                    if attacked else None)
        fleet = LoadFleet("127.0.0.1", service.port, sessions=1,
                          duration=3.0, spread=0.0, seed=7)
        (result,) = await fleet.run()
        if attacker is not None:
            attacker.cancel()
            await asyncio.gather(attacker, return_exceptions=True)
        await close_and_census(service)
        return service, result

    try:
        return loop.run_until_complete(run())
    finally:
        loop.close()


def test_attacked_session_finishes_with_an_unchanged_summary():
    quiet_service, quiet = _honest_summary(attacked=False)
    service, attacked = _honest_summary(attacked=True)
    assert attacked.ok and quiet.ok
    assert attacked.server_summary == quiet.server_summary
    assert attacked.server_summary["acks_received"] > 50
    assert quiet_service.counters["malformed_frames"] == 0
    assert service.counters["malformed_frames"] > 100
