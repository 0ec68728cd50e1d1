"""Engine self-profiling: attach, record, detach, determinism."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet
from repro.telemetry import MetricsRegistry, instrument_engine


def fake_timer():
    """A deterministic injected clock: each read advances 1 ms."""
    state = {"t": 0.0}

    def read() -> float:
        state["t"] += 0.001
        return state["t"]

    return read


def _noop() -> None:
    pass


class TestAttachDetach:
    def test_disabled_registry_attaches_nothing(self, sim):
        assert instrument_engine(
            sim, MetricsRegistry(enabled=False), fake_timer()) is None

    def test_handler_counters_and_timings(self, sim):
        registry = MetricsRegistry()
        instrument_engine(sim, registry, fake_timer())
        for i in range(5):
            sim.schedule(0.1 * i, _noop, priority=0)
        sim.run()
        calls = registry.counter(
            "engine_handler_calls_total", handler="_noop")
        assert calls.value == 5.0
        timings = registry.histogram(
            "engine_handler_seconds", handler="_noop")
        assert timings.count == 5
        # The fake timer advances 1 ms per read: every dispatch times
        # at exactly one tick.
        assert timings.total == pytest.approx(0.001 * 5)
        assert registry.histogram("engine_heap_depth").count == 5

    def test_collector_gauges_engine_state(self, sim):
        registry = MetricsRegistry()
        instrument_engine(sim, registry, fake_timer())
        sim.schedule(0.5, _noop, priority=0)
        sim.run(until=2.0)
        registry.collect()
        assert registry.gauge("engine_events_total").value == 1.0
        assert registry.gauge("engine_sim_time_seconds").value == 2.0

    def test_detach_restores_the_fast_path(self, sim):
        registry = MetricsRegistry()
        instrumentation = instrument_engine(sim, registry, fake_timer())
        sim.schedule(0.1, _noop, priority=0)
        sim.run(until=0.2)
        assert instrumentation is not None
        instrumentation.detach()
        sim.schedule(0.1, _noop, priority=0)
        sim.run(until=0.4)
        # Second event ran on the fast path: no new handler samples.
        calls = registry.counter(
            "engine_handler_calls_total", handler="_noop")
        assert calls.value == 1.0
        assert sim.events_processed == 2


class TestObservedLoopEquivalence:
    def test_same_schedule_same_outcome(self):
        """The observed loop must dispatch identically to the fast one."""

        def drive(sim: Simulator) -> list[tuple[float, int]]:
            log: list[tuple[float, int]] = []

            def tick(i: int) -> None:
                log.append((sim.now, i))
                if i < 10:
                    sim.schedule(0.1, tick, priority=1, args=(i + 1,))

            sim.schedule(0.0, tick, priority=1, args=(0,))
            sim.run(until=0.75)
            return log

        plain = Simulator()
        observed = Simulator()
        instrument_engine(observed, MetricsRegistry(), fake_timer())
        assert drive(plain) == drive(observed)
        assert plain.now == observed.now
        assert plain.events_processed == observed.events_processed


class TestLinkAttribution:
    def test_link_time_lands_on_deliver_and_nowhere_else(self, sim):
        """A link's work is attributed to its one handler: one
        ``_deliver`` per packet, whether it waited for the wire or not."""
        registry = MetricsRegistry()
        instrument_engine(sim, registry, fake_timer())
        link = Link(sim, bandwidth=10_000, delay=0.05, name="l")
        link.connect(lambda packet: None)
        for seq in range(3):
            link.send(Packet(flow_id=1, seq=seq, size=1000))
        sim.run()

        def handler(name):
            return registry.counter(
                "engine_handler_calls_total", handler=name).value

        assert handler("Link._deliver") == 3.0
        assert registry.histogram(
            "engine_handler_seconds", handler="Link._deliver").count == 3
        names = {sample["labels"]["handler"] for sample in
                 registry.snapshot()["engine_handler_calls_total"]["samples"]}
        assert names == {"Link._deliver"}
