"""Unit tests for the telemetry bus and its probes."""

from __future__ import annotations

import pytest

from repro.sim.link import Link
from repro.sim.queues import DropTailQueue
from repro.telemetry import Probe, QueueOccupancyProbe, TelemetryBus


class CountingProbe(Probe):
    """Records how often it was sampled and at what times."""

    def __init__(self, period: float = 0.1) -> None:
        super().__init__(period)
        self.times: list[float] = []

    def sample(self, now: float) -> None:
        self.times.append(now)
        assert self.bus is not None
        self.bus.record("count", now, float(len(self.times)))


class TestEnabledBus:
    def test_subscribe_schedules_a_sampler(self, sim):
        bus = TelemetryBus(sim)
        probe = CountingProbe(period=0.1)
        sampler = bus.subscribe(probe)
        assert sampler is not None
        sim.run(until=1.0)
        assert len(probe.times) == 11  # t = 0.0, 0.1, ..., 1.0
        assert bus.series("count").values[-1] == 11

    def test_event_hook_logs_into_the_tracer(self, sim):
        bus = TelemetryBus(sim)
        hook = bus.event_hook()
        assert hook is not None
        hook(1.5, "add", {"layer": 2})
        assert bus.tracer.events == [(1.5, "add", {"layer": 2})]

    def test_series_raises_for_unknown_channel(self, sim):
        bus = TelemetryBus(sim)
        with pytest.raises(KeyError, match="no traced series"):
            bus.series("nope")

    def test_stop_halts_sampling(self, sim):
        bus = TelemetryBus(sim)
        probe = CountingProbe(period=0.1)
        bus.subscribe(probe)
        sim.run(until=0.5)
        bus.stop()
        seen = len(probe.times)
        sim.run(until=2.0)
        assert len(probe.times) == seen


class TestDisabledBus:
    def test_subscribe_registers_but_never_samples(self, sim):
        bus = TelemetryBus(sim, enabled=False)
        probe = CountingProbe()
        assert bus.subscribe(probe) is None
        assert bus.probes == [probe]
        sim.run(until=2.0)
        assert probe.times == []
        assert sim.events_processed == 0

    def test_record_and_log_event_are_dropped(self, sim):
        bus = TelemetryBus(sim, enabled=False)
        bus.record("rate", 0.0, 1.0)
        bus.log_event(0.0, "add", layer=1)
        assert bus.tracer.series == {}
        assert bus.tracer.events == []

    def test_event_hook_is_none(self, sim):
        assert TelemetryBus(sim, enabled=False).event_hook() is None


def test_probe_period_must_be_positive():
    with pytest.raises(ValueError, match="period"):
        Probe(period=0.0)


def test_queue_occupancy_probe_channels(sim):
    link = Link(sim, bandwidth=10_000, delay=0.01,
                queue=DropTailQueue(4), name="l")
    bus = TelemetryBus(sim)
    bus.subscribe(QueueOccupancyProbe(link, name="hop0", period=0.1))
    sim.run(until=0.35)
    for channel in ("hop0_qlen", "hop0_qbytes", "hop0_drops"):
        assert len(bus.series(channel).times) == 4


def test_a_probe_refuses_a_sample_from_the_past_whole(sim):
    link = Link(sim, bandwidth=10_000, delay=0.01,
                queue=DropTailQueue(4), name="l")
    bus = TelemetryBus(sim)
    probe = QueueOccupancyProbe(link, name="hop0")
    probe.bind(bus)
    probe.sample(1.0)
    with pytest.raises(ValueError, match="hop0_qlen: time went backwards"):
        probe.sample(0.5)
    # One check for the probe's channels, before any of them is written.
    assert [list(series.times) for series in bus.tracer.series.values()] \
        == [[1.0]] * 3


def test_a_probe_owned_channel_refuses_an_ad_hoc_sample(sim):
    link = Link(sim, bandwidth=10_000, delay=0.01,
                queue=DropTailQueue(4), name="l")
    bus = TelemetryBus(sim)
    probe = QueueOccupancyProbe(link, name="hop0")
    probe.bind(bus)
    probe.sample(1.0)
    # The channels share one clock: an ad-hoc sample would shift every
    # sibling's times, so each way in names the channel and raises.
    with pytest.raises(ValueError, match="hop0_qbytes: a probe owns"):
        bus.record("hop0_qbytes", 2.0, 0.0)
    with pytest.raises(ValueError, match="hop0_drops: a probe owns"):
        bus.tracer.record("hop0_drops", 2.0, 0.0)
    probe.sample(2.0)
    series = bus.tracer.series
    assert [(list(s.times), len(s.values)) for s in series.values()] \
        == [([1.0, 2.0], 2)] * 3
    assert series["hop0_qlen"].times is series["hop0_drops"].times
    bus.record("other", 2.0, 1.0)  # a channel no probe owns
    assert bus.series("other").times == [2.0]


def test_a_probe_refuses_a_channel_that_already_has_samples(sim):
    link = Link(sim, bandwidth=10_000, delay=0.01,
                queue=DropTailQueue(4), name="l")
    bus = TelemetryBus(sim)
    bus.record("hop0_qbytes", 0.5, 3.0)
    probe = QueueOccupancyProbe(link, name="hop0")
    probe.bind(bus)
    with pytest.raises(ValueError, match="hop0_qbytes: channel already"):
        probe.sample(1.0)


def test_a_probe_on_a_disabled_bus_creates_no_series(sim):
    link = Link(sim, bandwidth=10_000, delay=0.01,
                queue=DropTailQueue(4), name="l")
    bus = TelemetryBus(sim, enabled=False)
    probe = QueueOccupancyProbe(link, name="hop0")
    bus.subscribe(probe)
    probe.sample(0.0)
    assert bus.tracer.series == {}
