"""Tracing utilities: time series, periodic samplers, event logs.

Every figure in the paper is a time series (rates, per-layer buffering,
drain rates). :class:`TimeSeries` is a simple (t, value) recorder with a few
analysis helpers; :class:`PeriodicSampler` drives callables at a fixed
sampling period; :class:`Tracer` groups named series for an experiment.
"""

from __future__ import annotations

import bisect
import csv
import io
from typing import Callable, Optional, Sequence

from repro.sim.engine import Simulator


class TimeSeries:
    """An append-only (time, value) series with analysis helpers.

    A channel made by :meth:`Tracer.lockstep` shares its ``times``
    list with its sibling channels; only the producer that made it
    appends to it, and :meth:`record` refuses a sample.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []
        self.lockstep = False

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def record(self, time: float, value: float) -> None:
        """Append a sample. Times must be non-decreasing."""
        if self.lockstep:
            raise ValueError(
                f"{self.name}: a probe owns this channel and shares its "
                f"clock with its siblings; record into another channel")
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"{self.name}: time went backwards ({time} < {self.times[-1]})"
            )
        self.times.append(time)
        self.values.append(value)

    def value_at(self, time: float, default: float = 0.0) -> float:
        """Step-interpolated value at ``time`` (last sample <= time)."""
        idx = bisect.bisect_right(self.times, time) - 1
        if idx < 0:
            return default
        return self.values[idx]

    def window(self, start: float, end: float) -> "TimeSeries":
        """Samples with ``start <= t <= end`` as a new series."""
        out = TimeSeries(self.name)
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        out.times = self.times[lo:hi]
        out.values = self.values[lo:hi]
        return out

    def mean(self) -> float:
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)

    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    def final(self) -> float:
        return self.values[-1] if self.values else 0.0

    def time_average(self) -> float:
        """Integral of the step function divided by the covered span."""
        if len(self.times) < 2:
            return self.mean()
        area = 0.0
        for i in range(len(self.times) - 1):
            area += self.values[i] * (self.times[i + 1] - self.times[i])
        span = self.times[-1] - self.times[0]
        return area / span if span > 0 else self.mean()

    def change_count(self, tolerance: float = 0.0) -> int:
        """Number of times the value changes by more than ``tolerance``."""
        changes = 0
        for i in range(1, len(self.values)):
            if abs(self.values[i] - self.values[i - 1]) > tolerance:
                changes += 1
        return changes

    def derivative(self) -> "TimeSeries":
        """Finite-difference derivative series (len-1 samples)."""
        out = TimeSeries(f"d({self.name})/dt")
        for i in range(1, len(self.times)):
            dt = self.times[i] - self.times[i - 1]
            if dt <= 0:
                continue
            out.record(self.times[i],
                       (self.values[i] - self.values[i - 1]) / dt)
        return out


class PeriodicSampler:
    """Calls ``callback(now)`` every ``period`` seconds until stopped, at
    priority 1: after the priority-0 events of its instant, whose end
    state a tick or a probe then reads."""

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[float], None],
        start: float = 0.0,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.period = period
        self.callback = callback
        self._stopped = False
        sim.schedule(max(0.0, start - sim.now), self._tick, priority=1)

    def stop(self) -> None:
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        self.callback(self.sim.now)
        self.sim.schedule(self.period, self._tick, priority=1)


class Tracer:
    """A named collection of time series plus a free-form event log."""

    def __init__(self) -> None:
        self.series: dict[str, TimeSeries] = {}
        self.events: list[tuple[float, str, dict]] = []

    def get(self, name: str) -> TimeSeries:
        """The recorded series ``name``.

        Raises a KeyError that names the missing series *and* lists what
        was actually traced — the lookup usually happens deep inside a
        summary/render call, far from whoever mistyped the channel.
        """
        ts = self.series.get(name)
        if ts is None:
            available = ", ".join(sorted(self.series)) or "<none>"
            raise KeyError(
                f"no traced series named {name!r}; available: {available}"
            )
        return ts

    def channel(self, name: str) -> TimeSeries:
        """The series ``name``, created on first use; a periodic
        producer looks its channels up once and appends from then on."""
        ts = self.series.get(name)
        if ts is None:
            ts = self.series[name] = TimeSeries(name)
        return ts

    def lockstep(self, names: Sequence[str]) -> list[TimeSeries]:
        """New channels ``names`` on one shared ``times`` list.

        For a producer that samples every channel at each instant: it
        appends the instant to ``series[0].times`` once and then one
        value per channel, so an instant is stored once. Raises
        ValueError if a channel already holds samples.
        """
        series = [self.channel(name) for name in names]
        clock: list[float] = []
        for ts in series:
            if ts.times:
                raise ValueError(
                    f"{ts.name}: channel already has samples; a shared "
                    f"clock needs fresh channels")
            ts.times = clock
            ts.lockstep = True
        return series

    def record(self, name: str, time: float, value: float) -> None:
        """Append a sample, creating the series on first use."""
        self.channel(name).record(time, value)

    def log_event(self, time: float, kind: str, **fields) -> None:
        """Record a discrete event (layer add/drop, underflow, ...).

        An event hook appends its ``(time, kind, fields)`` to
        :attr:`events` directly and keeps the producer's mapping."""
        self.events.append((time, kind, fields))

    def events_of(self, kind: str) -> list[tuple[float, dict]]:
        return [(t, f) for (t, k, f) in self.events if k == kind]

    def to_csv(self, names: Optional[Sequence[str]] = None) -> str:
        """Merge the named series (or all) into a sampled-row CSV string.

        Rows are emitted at the union of sample times using step
        interpolation, which is exactly how the paper's gnuplot traces look.
        """
        if names is None:
            names = sorted(self.series)
        columns = {n: self.get(n) for n in names}
        all_times = sorted({t for ts in columns.values() for t in ts.times})
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["time", *names])
        for t in all_times:
            writer.writerow(
                [f"{t:.6f}"]
                + [f"{columns[n].value_at(t):.6f}" for n in names]
            )
        return buf.getvalue()
