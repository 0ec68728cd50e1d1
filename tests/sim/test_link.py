"""Unit tests for the link model (serialization + propagation)."""

import pytest

from repro.sim.link import Link
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue
from repro.telemetry import MetricsRegistry


def make_packet(seq=0, size=1000):
    return Packet(flow_id=1, seq=seq, size=size)


@pytest.fixture
def received():
    return []


@pytest.fixture
def link(sim, received):
    # 10_000 B/s, 50 ms propagation: a 1000 B packet takes 0.1 s to
    # serialize and arrives at 0.15 s.
    lk = Link(sim, bandwidth=10_000, delay=0.05, name="test")
    lk.connect(lambda p: received.append((sim.now, p)))
    return lk


class TestValidation:
    def test_rejects_zero_bandwidth(self, sim):
        with pytest.raises(ValueError):
            Link(sim, bandwidth=0, delay=0.01)

    def test_rejects_negative_delay(self, sim):
        with pytest.raises(ValueError):
            Link(sim, bandwidth=1000, delay=-1)

    def test_send_without_receiver_raises(self, sim):
        lk = Link(sim, bandwidth=1000, delay=0.01)
        with pytest.raises(RuntimeError):
            lk.send(make_packet())


class TestTiming:
    def test_arrival_time_is_serialization_plus_propagation(
            self, sim, link, received):
        link.send(make_packet(size=1000))
        sim.run()
        assert received[0][0] == pytest.approx(0.1 + 0.05)

    def test_arrival_scales_with_size(self, sim, link, received):
        link.send(make_packet(size=500))
        sim.run()
        assert received[0][0] == pytest.approx(0.05 + 0.05)

    def test_back_to_back_packets_serialize_sequentially(
            self, sim, link, received):
        link.send(make_packet(0))
        link.send(make_packet(1))
        sim.run()
        times = [t for t, _ in received]
        assert times[0] == pytest.approx(0.15)
        assert times[1] == pytest.approx(0.25)  # waited for the first

    def test_idle_gap_resets_pipeline(self, sim, link, received):
        link.send(make_packet(0))
        sim.schedule(1.0, lambda: link.send(make_packet(1)))
        sim.run()
        assert received[1][0] == pytest.approx(1.15)

    def test_busy_flag(self, sim, link):
        link.send(make_packet())
        assert link.busy
        sim.run()
        assert not link.busy


class TestQueueInteraction:
    def test_overflow_drops_at_queue(self, sim, received):
        lk = Link(sim, bandwidth=1000, delay=0.0,
                  queue=DropTailQueue(capacity_packets=1), name="small")
        lk.connect(lambda p: received.append(p))
        assert lk.send(make_packet(0))  # starts transmitting immediately
        assert lk.send(make_packet(1))  # queued
        assert not lk.send(make_packet(2))  # queue full -> dropped
        sim.run()
        assert len(received) == 2
        assert lk.queue.drops == 1

    def test_ordering_preserved(self, sim, link, received):
        for i in range(5):
            link.send(make_packet(i))
        sim.run()
        assert [p.seq for _, p in received] == list(range(5))

    def test_forwarded_counters(self, sim, link):
        link.send(make_packet(size=700))
        link.send(make_packet(size=300))
        sim.run()
        assert link.packets_forwarded == 2
        assert link.bytes_forwarded == 1000


class TestCompletionWithoutAnEvent:
    """Nothing fires when serialization ends, so ``busy`` and the
    forwarded counters are derived from the clock when read."""

    def test_counters_exclude_the_packet_on_the_wire(self, sim, link):
        link.send(make_packet(size=700))   # on the wire until t=0.07
        link.send(make_packet(size=300))   # then until t=0.10
        seen = []

        def look():
            seen.append((link.packets_forwarded, link.bytes_forwarded))

        for t in (0.0, 0.069, 0.07, 0.099, 0.1):
            sim.schedule_at(t, look, priority=1)
        sim.run()
        assert seen == [(0, 0), (0, 0), (1, 700), (1, 700), (2, 1000)]

    def test_metrics_export_settles_the_finished_packet(self, sim, link):
        registry = MetricsRegistry()
        link.attach_metrics(registry)

        def exported():
            families = registry.snapshot()
            return (families["link_tx_bytes_total"]["samples"][0]["value"],
                    families["link_packets_forwarded"]["samples"][0]["value"])

        link.send(make_packet(size=700))
        link.send(make_packet(size=300))
        sim.run(until=0.05)
        assert exported() == (0.0, 0.0)
        sim.run(until=0.08)
        assert exported() == (700.0, 1.0)
        sim.run()
        # The collector alone flushed it: nobody read the properties.
        assert exported() == (1000.0, 2.0)

    def test_backlogged_link_is_busy_between_two_packets(self, sim, link):
        seen = []
        # Scheduled first, so it runs before the link's own event at 0.1.
        sim.schedule_at(0.1, lambda: seen.append(link.busy), priority=0)
        link.send(make_packet(0))
        link.send(make_packet(1))
        sim.run()
        assert seen == [True]
        assert not link.busy
