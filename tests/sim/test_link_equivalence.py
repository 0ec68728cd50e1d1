"""``Link`` against the three-handler link it replaced.

:class:`ReferenceLink` is the previous implementation, kept here as the
oracle: one event to finish serialization, one to deliver, and the
tx-complete handler pulling the next packet. ``Link`` keeps a
``_free_at`` timestamp instead and must be indistinguishable from it:
same delivery instants (to the last bit), same drops, same queue
counters, and the same state read at any instant.

Arrivals run at a later priority than the links' own events and probes
later still, so when a packet arrives at the very instant the wire frees
both links have seen the wire free first. (At equal priority that order
is scheduling order, and *when* a link schedules its internal events is
exactly what changed.)

Skipped wholesale when hypothesis is not installed.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.link import Link  # noqa: E402
from repro.sim.packet import Packet  # noqa: E402
from repro.sim.queues import DropTailQueue, REDQueue  # noqa: E402
from repro.sim.rng import SeededRNG  # noqa: E402

BANDWIDTH = 1000.0
DELAY = 0.25
SIZES = (40, 500, 1000, 1500)


class ReferenceLink:
    """Store-and-forward link as a chain of three events per packet."""

    def __init__(self, sim, bandwidth, delay, queue):
        self.sim = sim
        self.bandwidth = bandwidth
        self.delay = delay
        self.queue = queue
        self.receiver = None
        self.busy = False
        self.bytes_forwarded = 0
        self.packets_forwarded = 0

    def connect(self, receiver):
        self.receiver = receiver

    def send(self, packet):
        if not self.queue.enqueue(packet):
            return False
        if not self.busy:
            self._start_transmission()
        return True

    def _start_transmission(self):
        packet = self.queue.dequeue()
        self.busy = True
        self.sim.schedule(packet.size / self.bandwidth,
                          self._transmission_done, priority=0, args=(packet,))

    def _transmission_done(self, packet):
        self.bytes_forwarded += packet.size
        self.packets_forwarded += 1
        self.sim.schedule(self.delay, self.receiver, priority=0,
                          args=(packet,))
        if len(self.queue) > 0:
            self._start_transmission()
        else:
            self.busy = False


def arrival_times(sizes, gaps):
    """Absolute arrival instants. The gap ``"b2b"`` is the previous
    packet's serialization time, computed the way the links compute it:
    on an idle link the next arrival lands exactly on ``_free_at``."""
    times, now = [], 0.0
    for index, gap in enumerate(gaps):
        if gap == "b2b":
            gap = sizes[index - 1] / BANDWIDTH if index else 0.0
        now = now + gap
        times.append(now)
    return times


def drive(link_cls, make_queue, sizes, times, probes):
    """Offer the arrivals to one link; returns everything observable."""
    sim = Simulator()
    log = {"delivered": [], "dropped": [], "accepted": [], "probed": []}
    queue = make_queue()
    queue.on_drop = lambda p: log["dropped"].append((sim.now, p.uid))
    link = link_cls(sim, BANDWIDTH, DELAY, queue)
    link.connect(lambda p: log["delivered"].append((sim.now, p.uid)))

    def offer(uid, size):
        packet = Packet(flow_id=1, seq=uid, size=size, uid=uid)
        log["accepted"].append(link.send(packet))

    def probe():
        log["probed"].append(
            (sim.now, link.busy, len(queue), queue.byte_length,
             link.bytes_forwarded, link.packets_forwarded))

    for uid, (time, size) in enumerate(zip(times, sizes)):
        sim.schedule_at(time, offer, priority=1, args=(uid, size))
    for time in probes:
        sim.schedule_at(time, probe, priority=2)
    sim.run()
    log["counters"] = (queue.enqueues, queue.dequeues, queue.drops,
                       link.bytes_forwarded, link.packets_forwarded)
    return log, sim


def assert_equivalent(make_queue, arrivals, probes):
    sizes = [size for size, _ in arrivals]
    times = arrival_times(sizes, [gap for _, gap in arrivals])
    # Probe the arrival instants too: they are where ties live.
    probes = sorted(list(probes) + times)
    expected, _ = drive(ReferenceLink, make_queue, sizes, times, probes)
    actual, sim = drive(Link, make_queue, sizes, times, probes)
    assert actual == expected
    accepted = sum(expected["accepted"])
    assert len(actual["delivered"]) == accepted
    # One event per accepted packet, its delivery (arrivals and probes
    # aside).
    assert sim.events_processed - len(times) - len(probes) == accepted


_gap = st.one_of(
    st.just("b2b"),
    st.sampled_from([0.0, 0.04, 0.5, 1.0, 1.5]),
    st.floats(min_value=0.0, max_value=2.0,
              allow_nan=False, allow_infinity=False),
)
_arrivals = st.lists(st.tuples(st.sampled_from(SIZES), _gap),
                     min_size=1, max_size=30)
_probes = st.lists(st.floats(min_value=0.0, max_value=40.0,
                             allow_nan=False, allow_infinity=False),
                   max_size=12)


class TestLinkMatchesReference:
    @given(arrivals=_arrivals, probes=_probes,
           capacity=st.integers(1, 5), in_bytes=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_drop_tail(self, arrivals, probes, capacity, in_bytes):
        def make_queue():
            if in_bytes:
                # 500 B units: smaller than the largest packets, so an
                # idle link can refuse a packet too.
                return DropTailQueue(capacity_bytes=500 * capacity)
            return DropTailQueue(capacity_packets=capacity)

        assert_equivalent(make_queue, arrivals, probes)

    @given(arrivals=_arrivals, probes=_probes, seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_red_draws_the_same_random_numbers(self, arrivals, probes, seed):
        def make_queue():
            # A heavy EWMA weight so the average actually crosses the
            # thresholds within 30 arrivals.
            return REDQueue(capacity_packets=5, min_thresh=0.5,
                            max_thresh=3.0, rng=SeededRNG(seed),
                            max_prob=0.5, weight=0.5)

        assert_equivalent(make_queue, arrivals, probes)

    def test_arrival_exactly_when_the_wire_frees(self):
        """The tie spelled out, with a one-packet queue: two packets
        landing on ``_free_at`` of an idle link (one starts, one waits)
        and one landing on ``_free_at`` of a backlogged link (it waits
        behind the packet the drain just started)."""
        arrivals = [(1000, 0.0), (1000, "b2b"), (500, 0.0), (500, 0.5),
                    (1000, 0.5)]

        def make_queue():
            return DropTailQueue(capacity_packets=1)

        assert_equivalent(make_queue, arrivals, [1.0, 2.0, 2.5])
        sizes = [size for size, _ in arrivals]
        log, _ = drive(Link, make_queue, sizes,
                       [0.0, 1.0, 1.0, 1.5, 2.0], [])
        assert log["accepted"] == [True, True, True, False, True]
        assert [t for t, _ in log["delivered"]] == [1.25, 2.25, 2.75, 3.75]
