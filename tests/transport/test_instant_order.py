"""What happens first when RAP's deadlines share an instant.

:class:`~repro.transport.law.RapLaw` owns the send-slot, additive-step
and timeout-poll deadlines, and both of its clocks (the simulator's
:class:`~repro.transport.rap.RapSource` and the service's
:class:`~repro.service.pacing.RapPacer` under a
:class:`~repro.service.server.ServiceSession`) run one order within an
instant: send slot, additive step(s), timeout poll, adapter tick,
periodic samplers. A packet due at a step's instant therefore leaves at
the rate before the increase.

The two clocks differ only in their start phase. The simulator sends,
steps and polls at ``start``, which every golden output rests on. The
pacer sends at ``now`` but waits one srtt for its first step and
``rto / 2`` for its first poll, as the service did before the law owned
the deadlines. The loopback reason once given for that (stepping at
``now`` read 6.2-8.5 CPU ms per stream second on ``service_loopback``
against 4.4-5.4) did not reproduce from checkouts of equal path length,
where both phases read alike over 8 alternated pairs.
"""

from __future__ import annotations

import pytest

from repro.service.pacing import RapPacer
from repro.service.server import ServiceConfig, ServiceSession, StreamingService
from repro.sim.trace import PeriodicSampler
from repro.sim.topology import Dumbbell, DumbbellConfig
from repro.transport.law import RapLaw
from repro.transport.rap import RapSource

P = 500


def test_simulated_packet_leaves_before_the_step_it_ties(sim):
    net = Dumbbell(sim, DumbbellConfig(n_pairs=1))
    src, dst = net.pair(0)
    picks = []  # (instant, rate) at each transmission opportunity
    source = RapSource(
        sim, src, dst.name, packet_size=P,
        payload_picker=lambda seq: picks.append((sim.now, source.rate))
        or {})
    sim.run(until=0.35)
    (t0, r0), (t1, r1), (t2, r2) = picks[:3]
    # Sent, then stepped at 0: the next slot is one srtt_init later,
    # where it ties with the second step.
    assert (t0, r0) == (0.0, P / 0.2)
    assert t1 == source.law.next_step - source.srtt == 0.2
    assert r1 == P / 0.2 + P / 0.2
    # That packet's gap uses the rate before the step at its instant.
    assert t2 == t1 + P / r1
    assert r2 == r1 + P / 0.2


def test_service_packet_leaves_before_the_step_it_ties():
    service = StreamingService(ServiceConfig(rate_headroom=100.0))
    clock = [0.0]
    service.now = lambda: clock[0]
    sent = []
    service.sendto = lambda frame, addr: sent.append(clock[0])
    session = ServiceSession(service, 1, ("127.0.0.1", 9))
    pacer = session.pacer
    now = 0.0
    while not (pacer.send_due(now) and now >= pacer.next_step):
        clock[0] = now
        now = session.step(now)
    assert now == pacer.next_send == pacer.next_step == 0.2
    rate, gap = pacer.rate, pacer.ipg
    clock[0] = now
    session.step(now)
    assert sent[-1] == now
    assert pacer.rate > rate
    assert pacer.next_send == now + gap


def test_the_simulator_steps_and_polls_at_start(sim):
    net = Dumbbell(sim, DumbbellConfig(n_pairs=1))
    src, dst = net.pair(0)
    source = RapSource(sim, src, dst.name, packet_size=P, start=1.0)
    law = source.law
    assert (law.next_send, law.next_step, law.next_poll) == (1.0, 1.0, 1.0)
    sim.run(until=1.1)
    assert law.next_step == 1.0 + law.srtt
    assert law.next_poll == 1.0 + law.rto / 2
    assert source.rate == 2 * P / 0.2


def test_the_pacer_waits_one_srtt_and_half_an_rto():
    law, pacer = RapLaw(P, 3.0), RapPacer(P, 3.0)
    assert (law.next_send, law.next_step, law.next_poll) == (3.0, 3.0, 3.0)
    assert pacer.next_send == 3.0
    assert pacer.next_step == 3.0 + pacer.srtt
    assert pacer.next_poll == 3.0 + pacer.rto / 2
    assert pacer.next_deadline(3.0) == 3.0
    pacer.register_send(3.0, {}, P)
    assert pacer.next_deadline(3.0) == pytest.approx(3.2)


def test_a_sampler_runs_after_the_events_of_its_instant(sim):
    order = []
    PeriodicSampler(sim, 1.0, lambda now: order.append(("sample", now)))
    for at in (0.0, 1.0):
        sim.schedule_at(at, lambda at=at: order.append(("event", at)))
    sim.run(until=1.5)
    assert order == [("event", 0.0), ("sample", 0.0),
                     ("event", 1.0), ("sample", 1.0)]
