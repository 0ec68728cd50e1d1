"""Tracing utilities: time series, periodic samplers, event logs.

Every figure in the paper is a time series (rates, per-layer buffering,
drain rates). :class:`TimeSeries` is a simple (t, value) recorder with a few
analysis helpers; :class:`PeriodicSampler` drives callables at a fixed
sampling period; :class:`Tracer` groups named series for an experiment.

Decision events (layer adds and drops, §2.2 evaluations, transport
backoffs) travel as ``(time, kind, fields)``. The adapter and the
transports lay ``fields`` out as a tuple by :data:`EVENT_FIELDS`;
:func:`event_fields` turns it into the mapping every export shows.
"""

from __future__ import annotations

import bisect
import csv
import io
from array import array
from typing import (Callable, Mapping, MutableSequence, Optional, Sequence,
                    Union)

from repro.sim.engine import Simulator

#: The field names of each decision-event kind, in the order its
#: producer lays the values out. A producer may leave trailing fields
#: off (RAP's ``transport_backoff`` has no ``cwnd``).
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    "add": ("layer", "active"),
    "drop": ("layer", "cause", "active", "buf_drop", "buf_total",
             "required", "rate", "consumption", "slope", "drainable",
             "threshold", "buffers"),
    "drop_rule": ("rate", "consumption", "slope", "drainable",
                  "threshold", "active", "keep", "buffers"),
    "backoff": ("rate",),
    "playout_start": (),
    "retransmit": ("layer", "nbytes", "debt"),
    "transport_timeout": ("outstanding", "idle", "rto"),
    "transport_loss": ("seq", "size", "layer"),
    "transport_backoff": ("rate", "srtt", "trigger_seq", "cwnd"),
}

#: What producers hand over: a tuple laid out by :data:`EVENT_FIELDS`,
#: or a mapping from a free-form producer (the fluid engine, playout,
#: :meth:`Tracer.log_event`), which every view shows as it is.
EventFields = Union[tuple, Mapping[str, object]]

#: ``(time, kind, fields)`` decision sink shared by the adapter and the
#: transports; ``None`` when nobody is recording, and callers guard. A
#: sink that stores the event returns its entry, so a second view (the
#: ``qa.*`` spans) keeps a reference rather than a copy.
EventHook = Callable[[float, str, EventFields], Optional[tuple]]


def _add_eval_fields(values: tuple) -> dict[str, object]:
    """An ``add_eval``'s mapping. Its ``kmax_margin`` (the worst layer's
    headroom over the Figure-4 targets) is worked out here, from the
    inputs the entry keeps, not on the hot path."""
    (rate, average_rate, consumption, active, buffers, added,
     policy, slope, base_reserve) = values
    return {
        "rate": rate,
        "average_rate": average_rate,
        "consumption": consumption,
        "active": active,
        "kmax_margin": policy.kmax_margin(
            rate, active, buffers, slope, base_reserve=base_reserve),
        "buffers": buffers,
        "added": added,
    }


def event_fields(kind: str, fields: EventFields) -> Mapping[str, object]:
    """The mapping an event's ``fields`` stand for (a fresh dict for a
    tuple, the producer's own mapping otherwise)."""
    if not isinstance(fields, tuple):
        return fields
    if kind == "add_eval":
        return _add_eval_fields(fields)
    return dict(zip(EVENT_FIELDS[kind], fields))


def typed_store(first: object) -> MutableSequence:
    """Storage for a channel whose first sample is ``first``: an
    ``array('q')`` for an int, an ``array('d')`` for a float, a list for
    anything else. Reads give back the same Python values and types."""
    kind = type(first)
    if kind is float:
        return array("d")
    if kind is int:
        return array("q")
    return []


class TimeSeries:
    """An append-only (time, value) series with analysis helpers.

    A channel made by :meth:`Tracer.lockstep` shares its ``times``
    clock (an ``array('d')``) with its sibling channels and keeps its
    values in a typed store (:func:`typed_store`); only the producer
    that made it appends, and :meth:`record` refuses a sample. Other
    channels are plain lists.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: MutableSequence[float] = []
        self.values: MutableSequence = []
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
        """Samples with ``start <= t <= end`` as a new list-backed
        series (one that :meth:`record` can extend)."""
        out = TimeSeries(self.name)
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        out.times = list(self.times[lo:hi])
        out.values = list(self.values[lo:hi])
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
    """A named collection of time series plus an event log.

    :attr:`log` is where a session's events are kept: one entry per
    event, ``(time, kind, fields)`` with ``fields`` as the producer
    handed them over (a shared decision entry carries its source as a
    fourth item). :attr:`events` and :meth:`events_of` are views
    built from it when read.
    """

    def __init__(self) -> None:
        self.series: dict[str, TimeSeries] = {}
        self.log: list[tuple] = []

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

    def lockstep(self, names: Sequence[str],
                 first: Sequence[object]) -> list[TimeSeries]:
        """New channels ``names`` on one shared ``array('d')`` clock.

        For a producer that samples every channel at each instant: it
        appends the instant to ``series[0].times`` once and then one
        value per channel, so an instant is stored once. ``first`` is
        the first sample, which picks each channel's
        :func:`typed_store`. Raises ValueError if a channel already
        holds samples.
        """
        series = [self.channel(name) for name in names]
        clock = array("d")
        for ts, value in zip(series, first):
            if ts.times:
                raise ValueError(
                    f"{ts.name}: channel already has samples; a shared "
                    f"clock needs fresh channels")
            ts.times = clock
            ts.values = typed_store(value)
            ts.lockstep = True
        return series

    def record(self, name: str, time: float, value: float) -> None:
        """Append a sample, creating the series on first use."""
        self.channel(name).record(time, value)

    def log_event(self, time: float, kind: str, **fields) -> None:
        """Record a discrete event (layer add/drop, underflow, ...)."""
        self.log.append((time, kind, fields))

    @property
    def events(self) -> list[tuple[float, str, Mapping[str, object]]]:
        """Every event as ``(time, kind, fields mapping)``, in order."""
        return [(entry[0], entry[1], event_fields(entry[1], entry[2]))
                for entry in self.log]

    def events_of(self, kind: str
                  ) -> list[tuple[float, Mapping[str, object]]]:
        return [(entry[0], event_fields(kind, entry[2]))
                for entry in self.log if entry[1] == kind]

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
