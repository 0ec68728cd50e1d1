"""The idle reaper against a peer that says HELLO and then nothing.

``AckLedger.check_timeout`` restarts ``last_ack_time`` whenever the RTO
backstop fires (that is the law's clock: time since the last feedback
*event*), and ``rto <= 5 s``, so a reaper reading it never sees a gap
longer than one RTO: at the default ``session_timeout`` of 10 s a single
spoofed HELLO bought an unbounded DATA stream. The session keeps its own
``last_heard`` for the reaper.

Runs on the benchmark harness's virtual-time loop (the one
``test_hostile_feedback.py`` loads): default ``ServiceConfig``, no
sockets.
"""

import asyncio

from repro.service import protocol
from repro.service.client import LoadFleet
from repro.service.server import ServiceConfig, StreamingService

from tests.service.test_hostile_feedback import virtual_loop

SILENT = ("10.0.0.9", 5009)


def test_a_silent_peer_is_reaped_and_its_stream_stops():
    loop = virtual_loop.VirtualLoop()
    sent = []

    async def run():
        service = await StreamingService.start(ServiceConfig())
        timeout = service.config.session_timeout
        transmit = service.sendto

        def counted(frame, addr):
            sent.append(addr)
            transmit(frame, addr)

        service.sendto = counted
        service.datagram_received(protocol.encode_hello(1, {}), SILENT)
        (session,) = service.sessions.values()
        await asyncio.sleep(timeout)
        assert session.pacer.timeouts >= 2  # the ledger's clock restarted
        await asyncio.sleep(session.pacer.rto)
        expired, sent_by_then = service.counters["sessions_expired"], len(sent)
        await asyncio.sleep(10 * timeout)
        await service.close()
        return service, session, expired, sent_by_then

    try:
        service, session, expired, sent_by_then = loop.run_until_complete(
            run())
    finally:
        loop.close()
    assert expired == 1
    assert service.counters["sessions_expired"] == 1
    assert service.sessions == {} and session.done
    # WELCOME + the DATA of one timeout's worth of backed-off pacing...
    assert 1 < sent_by_then < 1000
    # ...and not one datagram after the reaper fired.
    assert len(sent) == sent_by_then
    assert set(sent) == {SILENT}


def test_a_client_that_keeps_acking_is_not_reaped():
    loop = virtual_loop.VirtualLoop()

    async def run():
        service = await StreamingService.start(ServiceConfig())
        fleet = LoadFleet("127.0.0.1", service.port, sessions=1,
                          duration=3 * service.config.session_timeout,
                          spread=0.0, seed=5)
        (result,) = await fleet.run()
        await service.close()
        return service, result

    try:
        service, result = loop.run_until_complete(run())
    finally:
        loop.close()
    assert result.ok
    assert service.counters["sessions_expired"] == 0
    assert service.counters["sessions_completed"] == 1
    assert result.server_summary["acks_received"] > 100
