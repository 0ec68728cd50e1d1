"""A session woken only to send does what one woken at every deadline did.

:class:`~repro.service.server.ServiceSession` is stepped at its send
slots only; the additive steps, timeout polls and adapter ticks between
two slots run in :meth:`~repro.service.server.ServiceSession.settle`,
each at its own instant, when the session is next stepped or read.
``EagerSession`` is the oracle: the same session stepped at every
deadline, as the scheduler once did. Both run on one scripted clock and
a scripted wire (a fixed round trip, every 13th DATA lost and an ACK
blackout long enough to fire the timeout backstop) with every signal
on. The readers settle first: the introspection snapshot and
``close()``, which also finishes each live session so reference
counting frees it.
"""

import asyncio
import gc
import heapq
import weakref

from repro.service import protocol
from repro.service.introspect import IntrospectionServer
from repro.service.server import (ServiceConfig, ServiceSession,
                                  StreamingService, session_summary)

from tests.service.census import close_and_census
from tests.service.test_hostile_feedback import virtual_loop
from tests.service.test_scheduler_budget import SUITE_QA

ADDR = ("10.0.0.1", 7001)
#: Off every deadline grid, so no ACK ties a step, poll or tick.
ROUND_TRIP = 0.0742
BLACKOUT = (3.0, 4.6)


class EagerSession(ServiceSession):
    """Stepped at every step, poll and tick deadline too."""

    def step(self, now):
        self._clock.now = now
        if self.pacer.send_due(now):
            self._send_data(now)
        self._run_due(now)
        return min(self.pacer.next_deadline(now), self._next_tick)


def drive(session_cls, until, settle=True):
    """Run one session to ``until``; returns the service, the session
    and its ``(wakes, send slots)``."""
    service = StreamingService(ServiceConfig(
        qa=SUITE_QA, record_decisions=True, trace_spans=True))
    clock = [0.0]
    service.now = lambda: clock[0]
    acks = []

    def wire(frame, addr):
        data = protocol.decode(frame)
        arrival = clock[0] + ROUND_TRIP
        if data.seq % 13 != 5 and not (
                BLACKOUT[0] <= arrival < BLACKOUT[1]):
            heapq.heappush(acks, (arrival, data.seq, clock[0]))

    service.sendto = wire
    session = session_cls(service, 1, ADDR)
    wake, wakes, slots = 0.0, 0, 0
    while True:
        if acks and acks[0][0] < wake:
            arrival, seq, echo = heapq.heappop(acks)
            if arrival >= until:
                break
            clock[0] = arrival
            session.handle_ack(protocol.AckFrame(1, seq, echo), arrival)
        else:
            if wake >= until:
                break
            clock[0] = wake
            wakes += 1
            slots += session.pacer.send_due(wake)
            wake = session.step(wake)
    clock[0] = until
    if settle:
        session.settle(until)
    return service, session, (wakes, slots)


def signals(service):
    return ([r.to_json() for r in service.recorder],
            [s.to_json() for s in service.spans])


def test_lazy_session_matches_the_eager_oracle():
    until = 8.0
    eager, eager_session, (eager_wakes, _) = drive(EagerSession, until)
    lazy, session, (wakes, slots) = drive(ServiceSession, until)
    assert session.pacer.timeouts >= 1 and session.pacer.backoffs > 1
    assert (session_summary(session.core, session.pacer)
            == session_summary(eager_session.core, eager_session.pacer))
    assert session.data_sent == eager_session.data_sent
    assert signals(lazy) == signals(eager)
    # One wake per send slot (some idle at the receiver's cap); the
    # oracle also woke for every step, poll and tick.
    assert wakes == slots < eager_wakes
    assert session.data_sent < slots


def test_a_timeout_lands_at_its_poll_instant():
    lazy, _, _ = drive(ServiceSession, 8.0)
    timeouts = [s for s in lazy.spans.spans_of(name="pacer.backoff")
                if s.fields["timeout"]]
    assert timeouts
    sends = {r.time for r in lazy.recorder.records_of("pick")}
    for span in timeouts:
        # Between two send slots, inside the blackout, not at the slot
        # that settled it.
        assert span.start not in sends
        assert BLACKOUT[0] < span.start < BLACKOUT[1] + ROUND_TRIP


def test_the_snapshot_settles_before_it_reads():
    # Mid-blackout, after an additive step that no slot has settled.
    at = 3.85
    _, eager_session, _ = drive(EagerSession, at)
    service, session, _ = drive(ServiceSession, at, settle=False)
    assert session.pacer.rate != eager_session.pacer.rate
    service.sessions[1] = session
    (entry,) = IntrospectionServer(service).sessions_snapshot()["sessions"]
    assert entry["rate"] == round(eager_session.pacer.rate, 3)
    assert entry["srtt"] == round(eager_session.pacer.srtt, 6)
    adapter = eager_session.core.adapter
    assert entry["buffered_bytes"] == round(
        adapter.buffers.total(adapter.active_layers), 3)
    assert session.pacer.timeouts == eager_session.pacer.timeouts >= 1


def test_close_settles_and_frees_every_live_session():
    loop = virtual_loop.VirtualLoop()

    async def run():
        service = await StreamingService.start(
            ServiceConfig(qa=SUITE_QA, trace_spans=True))
        service.datagram_received(protocol.encode_hello(1, {}), ADDR)
        (session,) = service.sessions.values()
        # Unheard, the backstop halves the rate towards one packet per
        # 2 s. Close just before the next slot: the ticks since the last
        # one are left for close() to settle.
        await asyncio.sleep(5.0)
        await asyncio.sleep(session.pacer.next_send - service.now() - 1e-3)
        ticks = len(service.spans.spans_of(name="qa.tick"))
        due = int(service.now() / SUITE_QA.drain_period)
        ref = weakref.ref(session)
        del session
        await close_and_census(service)
        return service, ref, ticks, due

    enabled = gc.isenabled()
    gc.disable()
    try:
        service, ref, ticks, due = loop.run_until_complete(run())
        assert ref() is None
    finally:
        loop.close()
        if enabled:
            gc.enable()
    assert len(service.spans.spans_of(name="qa.tick")) == due > ticks
