"""The scheduler's work per DATA frame, pinned on the virtual loop.

Every session is a stepper on one ``(deadline, seq, session)`` heap
that one scheduler task drives: each wake-up (``_wake``) steps every
session that is due, once. A session is due only at its next send slot
(or, unheard for ``session_timeout``, at the reaper's deadline); the
additive steps, timeout polls and adapter ticks in between run when it
is next stepped or read. So every step is a send slot, and a wake-up
that steps nothing pops the heap entry of a session that has since
ended: at most one per session. Both per DATA frame are exact counts
for a seed. This run is a small ``service_virtual``: the benchmark
suite's QA and impairment profiles, 16 sessions for 2 s (64 for 10 s
read 1.003 wake-ups per DATA frame; 1.45 when each step, poll and tick
woke its session). The fleet's clients ride one ``FleetTimers`` heap,
so it never holds more than one live loop timer.
"""

from repro.core.config import QAConfig
from repro.service import protocol
from repro.service.client import FleetTimers, LoadFleet
from repro.service.impairment import ImpairmentConfig
from repro.service.server import (ServiceConfig, ServiceSession,
                                  StreamingService)

from tests.service.census import close_and_census
from tests.service.test_hostile_feedback import virtual_loop

#: ``benchmarks/suite/service_workloads.py``'s SERVICE_QA and IMPAIRMENT.
SUITE_QA = QAConfig(layer_rate=4000, max_layers=4, packet_size=400,
                    startup_delay=0.5, max_buffer_seconds=4.0)
SUITE_IMPAIRMENT = ImpairmentConfig(
    loss_rate=0.005, delay=0.02, jitter=0.005, rate_limit=11_000,
    bucket_depth=4000, max_backlog=0.3)


class FleetTimerCensus(virtual_loop.VirtualLoop):
    """Counts the fleet's loop timers that are armed and not yet run."""

    def __init__(self):
        super().__init__()
        self.fleet_timers = []
        self.fired = set()
        self.most_live = 0

    def live(self):
        return [h for h in self.fleet_timers
                if not h.cancelled() and id(h) not in self.fired]

    def call_at(self, when, callback, *args, context=None):
        if getattr(callback, "__func__", None) is not FleetTimers._fire:
            return super().call_at(when, callback, *args, context=context)

        def fire():
            self.fired.add(id(handle))
            callback(*args)
            self.most_live = max(self.most_live, len(self.live()))

        handle = super().call_at(when, fire, context=context)
        self.fleet_timers.append(handle)
        self.most_live = max(self.most_live, len(self.live()))
        return handle


def test_steps_and_wakeups_per_data_frame(monkeypatch):
    counts = {"step": 0, "slot": 0, "wake": 0, "data": 0}
    step, wake = ServiceSession.step, StreamingService._wake

    def counted_step(self, now):
        counts["step"] += 1
        counts["slot"] += self.pacer.send_due(now)
        return step(self, now)

    def counted_wake(self):
        counts["wake"] += 1
        wake(self)

    monkeypatch.setattr(ServiceSession, "step", counted_step)
    monkeypatch.setattr(StreamingService, "_wake", counted_wake)
    loop = FleetTimerCensus()

    async def run():
        service = await StreamingService.start(ServiceConfig(qa=SUITE_QA))
        transmit = service.sendto

        def counted_send(frame, addr):
            counts["data"] += frame[3] == protocol.DATA
            transmit(frame, addr)

        service.sendto = counted_send
        fleet = LoadFleet("127.0.0.1", service.port, sessions=16,
                          duration=2.0, spread=1.0, seed=0,
                          impairment=SUITE_IMPAIRMENT)
        results = await fleet.run()
        await close_and_census(service)
        return results

    try:
        results = loop.run_until_complete(run())
    finally:
        loop.close()
    assert all(r.ok for r in results)
    assert counts["step"] == counts["slot"]
    assert counts["wake"] <= counts["step"] + len(results)
    # One step per DATA frame (no slot idles here) and 1.011 wake-ups;
    # 2055 steps and 1942 wake-ups when each step, poll and tick woke
    # its session.
    assert counts == {"step": 1317, "slot": 1317, "wake": 1332,
                      "data": 1317}
    assert loop.fleet_timers and loop.most_live == 1
    assert loop.live() == []
