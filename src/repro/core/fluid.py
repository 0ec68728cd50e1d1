"""A fluid (packet-free) model of the mechanism.

The paper's illustrative figures (2, 5, 6) show the mechanism under a
*clean* AIMD sawtooth: the rate climbs linearly at slope S and halves at
chosen instants, data arrives instantly, nothing is lost. This module
drives the real :class:`~repro.core.adapter.QualityAdapter` under exactly
those conditions: small quanta, oracle feedback, scripted backoffs.

It is also the reference environment for unit tests: every invariant of
the filling/draining machinery can be checked here without the noise of a
packet network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.adapter import QualityAdapter
from repro.core.config import QAConfig
from repro.core.metrics import QualityMetrics
from repro.sim.engine import Simulator
from repro.sim.trace import PeriodicSampler, Tracer

#: Send-and-sample grid of :class:`FluidRun`, in seconds.
SAMPLE_PERIOD = 0.02


class ScriptedAimd:
    """An AIMD rate trajectory with backoffs at scripted times.

    ``rate(t)`` = linear climb at ``slope`` from the last backoff's level,
    halved at each scripted instant, never below ``min_rate``.
    """

    def __init__(self, initial_rate: float, slope: float,
                 backoff_times: Iterable[float] = (),
                 min_rate: float = 100.0,
                 max_rate: Optional[float] = None) -> None:
        if initial_rate <= 0 or slope <= 0:
            raise ValueError("initial_rate and slope must be positive")
        self.slope = slope
        self.min_rate = min_rate
        self.max_rate = max_rate
        self._anchor_rate = initial_rate
        self._anchor_time = 0.0
        self._pending = sorted(backoff_times)

    @property
    def pending_backoffs(self) -> tuple[float, ...]:
        """Scripted backoff instants not yet consumed, in order."""
        return tuple(self._pending)

    def next_backoff(self) -> Optional[float]:
        """The next pending backoff instant, or None when exhausted."""
        return self._pending[0] if self._pending else None

    def backoffs_until(self, t: float) -> list[float]:
        """Consume and return scripted backoff times up to ``t``."""
        due = [b for b in self._pending if b <= t]
        self._pending = self._pending[len(due):]
        return due

    def apply_backoff(self, at: float) -> float:
        """Halve the rate at time ``at``; returns the new rate."""
        rate_before = self.rate(at)
        self._anchor_rate = max(self.min_rate, rate_before / 2.0)
        self._anchor_time = at
        return self._anchor_rate

    def rate(self, t: float) -> float:
        value = self._anchor_rate + self.slope * (t - self._anchor_time)
        if self.max_rate is not None:
            value = min(value, self.max_rate)
        return value


@dataclass
class FluidResult:
    """Output of a fluid run."""

    tracer: Tracer
    adapter: QualityAdapter

    @property
    def metrics(self) -> QualityMetrics:
        return self.adapter.metrics


class FluidRun:
    """Drive a QualityAdapter with a scripted fluid bandwidth.

    Data is credited at send time (oracle feedback) and packets are small
    (an eighth of the configured packet size) so curves are smooth like
    the paper's sketches. Traces are sampled every :data:`SAMPLE_PERIOD`.
    """

    def __init__(self, config: QAConfig, bandwidth: ScriptedAimd,
                 duration: float) -> None:
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.config = config.with_(
            feedback="oracle",
            packet_size=max(1, config.packet_size // 8),
        )
        self.bandwidth = bandwidth
        self.duration = duration
        self.sim = Simulator()
        self.tracer = Tracer()
        self.adapter = QualityAdapter(
            self.config,
            now_fn=lambda: self.sim.now,
            rate_fn=lambda: self.bandwidth.rate(self.sim.now),
            slope_fn=lambda: self.bandwidth.slope,
            on_event=lambda t, kind, f: self.tracer.log.append(
                (t, kind, f)),
        )
        self._carry = 0.0
        self._seq = 0
        self._sent_last = [0.0] * self.config.max_layers

    def run(self) -> FluidResult:
        """Run the scripted scenario to completion and return traces."""
        PeriodicSampler(self.sim, self.config.drain_period,
                        lambda _t: self.adapter.tick())
        PeriodicSampler(self.sim, SAMPLE_PERIOD, self._step)
        self.sim.run(until=self.duration)
        return FluidResult(tracer=self.tracer, adapter=self.adapter)

    # ------------------------------------------------------------ internals

    def _step(self, now: float) -> None:
        # Scripted backoffs take effect before this interval's sends.
        for at in self.bandwidth.backoffs_until(now):
            new_rate = self.bandwidth.apply_backoff(at)
            self.adapter.on_backoff(new_rate)

        rate = self.bandwidth.rate(now)
        self._carry += rate * SAMPLE_PERIOD
        quantum = self.config.packet_size
        while self._carry >= quantum:
            self._carry -= quantum
            self.adapter.pick_layer(self._seq)
            self._seq += 1
        self._sample(now, rate)

    def _sample(self, now: float, rate: float) -> None:
        t = self.tracer
        t.record("rate", now, rate)
        t.record("consumption", now, self.adapter.consumption)
        t.record("layers", now, self.adapter.active_layers)
        total = 0.0
        for i in range(self.config.max_layers):
            level = self.adapter.buffers.level(i)
            total += level
            t.record(f"buffer_L{i}", now, level)
            sent = self.adapter.sent_bytes_per_layer[i]
            t.record(f"send_rate_L{i}", now,
                     (sent - self._sent_last[i]) / SAMPLE_PERIOD)
            self._sent_last[i] = sent
        t.record("total_buffer", now, total)
