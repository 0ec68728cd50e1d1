"""A session is never driven after it ends: by expiry, FIN, close() or
a step that raised.

The idle reaper against a peer that says HELLO and then nothing:
``AckLedger.check_timeout`` restarts ``last_ack_time`` whenever the RTO
backstop fires (that is the law's clock: time since the last feedback
*event*), and ``rto <= 5 s``, so a reaper reading it never sees a gap
longer than one RTO: at the default ``session_timeout`` of 10 s a single
spoofed HELLO bought an unbounded DATA stream. The session keeps its own
``last_heard`` for the reaper.

FIN and ``close()`` end a session too; from then on its heap entry is
dropped unstepped, so ten session timeouts later it has sent nothing.
A step that raises is reported to the loop's exception handler and
expires that session alone; the others keep sending.

Runs on the benchmark harness's virtual-time loop (the one
``test_hostile_feedback.py`` loads): default ``ServiceConfig``, no
sockets.
"""

import asyncio

import pytest

from repro.service import protocol
from repro.service.client import LoadFleet
from repro.service.server import ServiceConfig, StreamingService

from tests.service.census import close_and_census
from tests.service.test_hostile_feedback import virtual_loop

SILENT = ("10.0.0.9", 5009)


def _count_sends(service, sent):
    transmit = service.sendto

    def counted(frame, addr):
        sent.append((frame, addr))
        transmit(frame, addr)

    service.sendto = counted


def test_a_silent_peer_is_reaped_and_its_stream_stops():
    loop = virtual_loop.VirtualLoop()
    sent = []

    async def run():
        service = await StreamingService.start(ServiceConfig())
        timeout = service.config.session_timeout
        _count_sends(service, sent)
        service.datagram_received(protocol.encode_hello(1, {}), SILENT)
        (session,) = service.sessions.values()
        await asyncio.sleep(timeout)
        assert session.pacer.timeouts >= 2  # the ledger's clock restarted
        await asyncio.sleep(session.pacer.rto)
        expired, sent_by_then = service.counters["sessions_expired"], len(sent)
        await asyncio.sleep(10 * timeout)
        await close_and_census(service)
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
    assert {addr for _, addr in sent} == {SILENT}


async def _fin(service, session):
    service.datagram_received(protocol.encode_fin(session.session_id),
                              SILENT)


async def _close(service, session):
    await service.close()


@pytest.mark.parametrize("teardown", [_fin, _close], ids=["fin", "close"])
def test_a_torn_down_session_is_never_driven_again(teardown):
    loop = virtual_loop.VirtualLoop()
    sent, steps = [], []

    async def run():
        service = await StreamingService.start(ServiceConfig())
        _count_sends(service, sent)
        service.datagram_received(protocol.encode_hello(1, {}), SILENT)
        (session,) = service.sessions.values()
        step = session.step
        session.step = lambda now: steps.append(now) or step(now)
        await asyncio.sleep(0.97)  # mid-stream, between two deadlines
        await teardown(service, session)
        marks = len(sent), len(steps)
        await asyncio.sleep(10 * service.config.session_timeout)
        await close_and_census(service)
        return session, marks

    try:
        session, (sent_by_then, steps_by_then) = loop.run_until_complete(
            run())
    finally:
        loop.close()
    kinds = [type(protocol.decode(frame)) for frame, _ in sent]
    assert protocol.DataFrame in kinds and steps_by_then > 0
    if teardown is _fin:
        assert session.done and kinds[-1] is protocol.FinAckFrame
    assert len(sent) == sent_by_then
    assert len(steps) == steps_by_then


def test_a_step_that_raises_ends_only_its_own_session():
    loop = virtual_loop.VirtualLoop()
    reported, sent, steps = [], [], []
    loop.set_exception_handler(lambda _, context: reported.append(context))
    other = ("10.0.0.8", 5008)

    async def run():
        service = await StreamingService.start(ServiceConfig())
        _count_sends(service, sent)
        service.datagram_received(protocol.encode_hello(1, {}), SILENT)
        service.datagram_received(protocol.encode_hello(1, {}), other)
        broken = service.sessions[service._by_addr[SILENT]]

        def step(now):
            steps.append(now)
            raise RuntimeError("boom")

        await asyncio.sleep(0.5)
        broken.step = step
        await asyncio.sleep(0.5)
        marks = len(sent), len(steps)
        await asyncio.sleep(2.0)
        await close_and_census(service)
        return service, broken, marks

    try:
        service, broken, (sent_by_then, steps_by_then) = (
            loop.run_until_complete(run()))
    finally:
        loop.close()
    assert len(steps) == steps_by_then == 1 and broken.done
    assert [type(c["exception"]) for c in reported] == [RuntimeError]
    assert broken.session_id not in service.sessions
    assert service.counters["sessions_expired"] == 1
    later = [addr for frame, addr in sent[sent_by_then:]
             if frame[3] == protocol.DATA]
    assert later and set(later) == {other}


def test_a_client_that_keeps_acking_is_not_reaped():
    loop = virtual_loop.VirtualLoop()

    async def run():
        service = await StreamingService.start(ServiceConfig())
        fleet = LoadFleet("127.0.0.1", service.port, sessions=1,
                          duration=3 * service.config.session_timeout,
                          spread=0.0, seed=5)
        (result,) = await fleet.run()
        await close_and_census(service)
        return service, result

    try:
        service, result = loop.run_until_complete(run())
    finally:
        loop.close()
    assert result.ok
    assert service.counters["sessions_expired"] == 0
    assert service.counters["sessions_completed"] == 1
    assert result.server_summary["acks_received"] > 100
