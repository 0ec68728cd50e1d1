"""Event-loop stall sanitizer: callback lag, measured while serving.

A heartbeat coroutine asks to sleep for ``interval`` seconds and
records how much *later* than the deadline it actually woke. On an idle
loop that overshoot is microseconds; anything above
``stall_threshold`` means some callback held the loop longer than a
pacing quantum and every session's send timing slipped with it. So a
blocking call (sync I/O, a C extension, a pathological allocation, an
accidental quadratic in a callback) shows up in CI. Samples feed a
histogram (p50/p99/max in :meth:`report`).

The sanitizer deliberately measures from *inside* the loop under test:
a separate thread would need locking and would time the OS scheduler,
not the loop.  Overhead is one timer callback per ``interval`` (20 Hz
by default), far below the send timers it rides alongside.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional

from repro.telemetry.digest import percentile
from repro.telemetry.metrics import MetricsRegistry

#: Histogram bounds for loop lag, seconds.  The interesting range is
#: sub-millisecond (healthy) through tens of milliseconds (a stall a
#: human can see in playback); one decade per bucket pair.
LAG_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.010,
               0.025, 0.050, 0.100, 0.250)


@dataclass(frozen=True)
class SanitizerConfig:
    """Knobs for :class:`LoopSanitizer`.

    ``interval`` is the heartbeat period: lag is sampled this often,
    so a stall shorter than one interval can hide between beats --
    50 ms catches anything long enough to disturb pacing.
    ``stall_threshold`` is the lag above which a sample counts as a
    stall; 10 ms is one pacing quantum at the default rates.
    """

    interval: float = 0.05
    stall_threshold: float = 0.010


class LoopSanitizer:
    """Samples event-loop callback lag.

    Usage::

        sanitizer = LoopSanitizer()
        await sanitizer.start()
        ... run the workload on this loop ...
        await sanitizer.stop()
        summary = sanitizer.report()

    With a :class:`~repro.telemetry.metrics.MetricsRegistry` the lag
    histogram and stall counter are exported alongside the service's
    own metrics.
    """

    def __init__(self, config: Optional[SanitizerConfig] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.config = config or SanitizerConfig()
        self.lag_samples: list[float] = []
        self.stalls = 0
        self._task: Optional[asyncio.Task] = None
        self._lag_hist = (
            metrics.histogram_hook(
                "service_loop_lag_seconds",
                "event-loop callback lag sampled by the sanitizer",
                buckets=LAG_BUCKETS)
            if metrics is not None else None)
        self._stall_count = (
            metrics.counter_hook(
                "service_loop_stalls_total",
                "lag samples above the stall threshold")
            if metrics is not None else None)

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Begin heartbeating."""
        if self._task is not None:
            return
        self._task = asyncio.get_running_loop().create_task(
            self._heartbeat(), name="loop-sanitizer")

    async def stop(self) -> None:
        """Cancel the heartbeat."""
        task = self._task
        if task is None:
            return
        self._task = None
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    async def _heartbeat(self) -> None:
        loop = asyncio.get_running_loop()
        interval = self.config.interval
        threshold = self.config.stall_threshold
        while True:
            deadline = loop.time() + interval
            await asyncio.sleep(interval)
            lag = max(0.0, loop.time() - deadline)
            self.lag_samples.append(lag)
            if self._lag_hist is not None:
                self._lag_hist(lag)
            if lag > threshold:
                self.stalls += 1
                if self._stall_count is not None:
                    self._stall_count(1.0)

    # -------------------------------------------------------------- report

    def report(self) -> dict:
        """Lag percentiles and stall count as plain data."""
        return {
            "lag_samples": len(self.lag_samples),
            "lag_p50": percentile(self.lag_samples, 50.0),
            "lag_p99": percentile(self.lag_samples, 99.0),
            "lag_max": max(self.lag_samples, default=0.0),
            "stalls": self.stalls,
        }
