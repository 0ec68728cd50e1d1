"""Sampler shutdown and the last tick at simulation end (satellite audit).

``sim.run(until=T)`` is inclusive: a sampler tick scheduled exactly at
``T`` runs, and a probe's last tick is the largest multiple of its
``period`` at or below ``T``. These counts are pinned — the figure
experiments derive per-sample rates from them, so an off-by-one at the
end of a run silently skews every final data point. A probe's own
``period`` is the only way to slow sampling down.
"""

from __future__ import annotations

import pytest

from repro.sim.trace import PeriodicSampler
from repro.telemetry import TelemetryBus
from tests.telemetry.test_bus import CountingProbe

#: period 0.1 s * m over a 1.0 s run: ticks at 0.0, 0.1 * m, ..., <= 1.0.
PINNED_COUNTS = {1: 11, 2: 6, 5: 3}


class TestDecimationAtRunEnd:
    @pytest.mark.parametrize("multiple", sorted(PINNED_COUNTS))
    def test_sample_count_is_pinned(self, sim, multiple):
        probe = CountingProbe(period=0.1 * multiple)
        TelemetryBus(sim).subscribe(probe)
        sim.run(until=1.0)
        assert len(probe.times) == PINNED_COUNTS[multiple]

    @pytest.mark.parametrize("multiple", sorted(PINNED_COUNTS))
    def test_final_sample_lands_on_the_last_full_period(self, sim,
                                                        multiple):
        step = 0.1 * multiple
        probe = CountingProbe(period=step)
        TelemetryBus(sim).subscribe(probe)
        sim.run(until=1.0)
        assert probe.times[0] == 0.0
        assert probe.times[-1] == pytest.approx(
            step * (PINNED_COUNTS[multiple] - 1))
        # Uniform spacing all the way to the end — no truncated or
        # doubled tick at the boundary.
        gaps = [b - a for a, b in zip(probe.times, probe.times[1:])]
        assert gaps == pytest.approx([step] * (len(probe.times) - 1))

    def test_non_divisible_duration_has_no_phantom_tick(self, sim):
        probe = CountingProbe(period=0.2)
        TelemetryBus(sim).subscribe(probe)
        sim.run(until=0.95)
        # Ticks at 0.0, 0.2, ..., 0.8 only; the 1.0 tick is beyond the
        # horizon even though it was already scheduled.
        assert len(probe.times) == 5
        assert probe.times[-1] == pytest.approx(0.8)


class TestSamplerStop:
    def test_stop_cancels_the_pending_tick(self, sim):
        # Horizons sit mid-period: repeated `schedule(period)` ticks
        # accumulate float error, so an exact-boundary horizon would pin
        # rounding, not stop() behavior.
        seen: list[float] = []
        sampler = PeriodicSampler(sim, 0.1, seen.append)
        sim.run(until=0.35)
        sampler.stop()
        sim.run(until=1.0)
        assert len(seen) == 4  # 0.0, 0.1, 0.2, 0.3 — then silence

    def test_stopped_sampler_stops_rescheduling(self, sim):
        """stop() lets the lazily-cancelled tick drain from the heap."""
        sampler = PeriodicSampler(sim, 0.1, lambda now: None)
        sim.run(until=0.1)
        sampler.stop()
        sim.run()  # drains: the pending tick returns without rescheduling
        assert len(sim._heap) == 0

    def test_bus_stop_halts_every_sampler(self, sim):
        bus = TelemetryBus(sim)
        probes = [CountingProbe(period=0.2) for _ in range(3)]
        for probe in probes:
            bus.subscribe(probe)
        sim.run(until=0.4)
        bus.stop()
        sim.run(until=2.0)
        for probe in probes:
            assert len(probe.times) == 3  # 0.0, 0.2, 0.4

    def test_restart_after_stop_is_a_fresh_sampler(self, sim):
        bus = TelemetryBus(sim)
        probe = CountingProbe(period=0.1)
        bus.subscribe(probe)
        sim.run(until=0.2)
        bus.stop()
        sim.run(until=0.5)
        count_when_stopped = len(probe.times)
        # Re-subscribing schedules a new sampler from the current time.
        bus.subscribe(probe, start=sim.now)
        sim.run(until=0.7)
        assert len(probe.times) == count_when_stopped + 3  # 0.5, 0.6, 0.7
