"""A small metrics registry: counters, gauges, histograms with labels.

Prometheus-shaped (families → labeled children → samples) but pure
stdlib and deterministic: families render sorted by name, children by
label value, and numbers format identically run to run, so two runs of
the same seed export byte-identical text.

Hot-path discipline mirrors :meth:`~repro.telemetry.bus.TelemetryBus.
event_hook`: producers never poke the
registry per packet. They bind a hook once —

    self._fwd_hook = registry.counter_hook("link_tx_bytes", link=name)

— and the hook is ``None`` when metrics are disabled, so the guarded
call site costs one attribute load and a ``None`` check. When enabled,
the hook *is* the child's bound ``inc``/``set``/``observe`` method: no
dict lookups, no label hashing, no allocation per sample.

Cheap derived values (byte totals a link already counts, the engine's
event counter) don't need per-event hooks at all: register a
*collector* — a callable run once per export that copies live state
into gauges.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Optional, Sequence, Union

LabelValue = Union[str, int, float]
Labels = tuple[tuple[str, str], ...]

#: Default histogram buckets: log-spaced seconds, good for handler
#: timings from sub-microsecond to 100 ms.
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1,
)


def _format_value(value: float) -> str:
    """Deterministic sample rendering: ints stay integral, non-finite
    values are spelled as the exposition format spells them."""
    if not math.isfinite(value):
        return "NaN" if value != value else "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_suffix(labels: Labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go anywhere."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "total",
                 "count")

    def __init__(self, name: str, labels: Labels,
                 buckets: Sequence[float]) -> None:
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        #: Per-bound counts plus the +Inf overflow slot at the end.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Counts at or below each bound, then the +Inf total."""
        out: list[int] = []
        running = 0
        for n in self.bucket_counts:
            running += n
            out.append(running)
        return out

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


Instrument = Union[Counter, Gauge, Histogram]
SampleHook = Callable[[float], None]
Collector = Callable[["MetricsRegistry"], None]

_KINDS = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


class _Family:
    """One metric name: its kind, help text and labeled children."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(self, name: str, kind: str, help_text: str,
                 buckets: Optional[tuple[float, ...]]) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.children: dict[Labels, Instrument] = {}


class MetricsRegistry:
    """Registered metric families plus export-time collectors."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: dict[str, _Family] = {}
        self._collectors: list[Collector] = []

    # -------------------------------------------------------- registration

    def _child(self, cls: type, name: str, help_text: str,
               labels: dict[str, LabelValue],
               buckets: Optional[Sequence[float]] = None) -> Instrument:
        kind = _KINDS[cls]
        family = self._families.get(name)
        if family is None:
            bounds = tuple(sorted(buckets)) if buckets is not None else None
            family = _Family(name, kind, help_text, bounds)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}, "
                f"cannot re-register as a {kind}"
            )
        key: Labels = tuple(sorted((k, str(v)) for k, v in labels.items()))
        child = family.children.get(key)
        if child is None:
            if cls is Histogram:
                assert family.buckets is not None
                child = Histogram(name, key, family.buckets)
            elif cls is Counter:
                child = Counter(name, key)
            else:
                child = Gauge(name, key)
            family.children[key] = child
        return child

    def counter(self, name: str, help: str = "",
                **labels: LabelValue) -> Counter:
        child = self._child(Counter, name, help, labels)
        assert isinstance(child, Counter)
        return child

    def gauge(self, name: str, help: str = "",
              **labels: LabelValue) -> Gauge:
        child = self._child(Gauge, name, help, labels)
        assert isinstance(child, Gauge)
        return child

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels: LabelValue) -> Histogram:
        child = self._child(Histogram, name, help, labels, buckets)
        assert isinstance(child, Histogram)
        return child

    # ------------------------------------------------------ hot-path hooks

    def counter_hook(self, name: str, help: str = "",
                     **labels: LabelValue) -> Optional[SampleHook]:
        """Bound ``inc(amount)`` for the labeled counter, or ``None``.

        ``None`` when the registry is disabled — producers must guard
        so the disabled path never touches the registry.
        """
        if not self.enabled:
            return None
        return self.counter(name, help, **labels).inc

    def gauge_hook(self, name: str, help: str = "",
                   **labels: LabelValue) -> Optional[SampleHook]:
        """Bound ``set(value)`` for the labeled gauge, or ``None``."""
        if not self.enabled:
            return None
        return self.gauge(name, help, **labels).set

    def histogram_hook(self, name: str, help: str = "",
                       buckets: Sequence[float] = DEFAULT_BUCKETS,
                       **labels: LabelValue) -> Optional[SampleHook]:
        """Bound ``observe(value)`` for the histogram, or ``None``."""
        if not self.enabled:
            return None
        return self.histogram(name, help, buckets, **labels).observe

    # ----------------------------------------------------------- collection

    def register_collector(self, collector: Collector) -> None:
        """Run ``collector(self)`` before every export.

        Collectors copy live component state (link byte counters, the
        engine's event count) into gauges, so cheap derived metrics need
        no hot-path hooks at all. Ignored when disabled.
        """
        if self.enabled:
            self._collectors.append(collector)

    def collect(self) -> None:
        """Refresh collector-fed metrics (no-op when disabled)."""
        for collector in self._collectors:
            collector(self)

    # --------------------------------------------------------------- export

    def instruments(self) -> list[Instrument]:
        """Every child, family-name then label order (deterministic)."""
        out: list[Instrument] = []
        for name in sorted(self._families):
            family = self._families[name]
            for key in sorted(family.children):
                out.append(family.children[key])
        return out

    def snapshot(self) -> dict[str, object]:
        """A stable nested dict of every sample (manifest attachment)."""
        self.collect()
        families: dict[str, object] = {}
        for name in sorted(self._families):
            family = self._families[name]
            children = []
            for key in sorted(family.children):
                child = family.children[key]
                entry: dict[str, object] = {"labels": dict(key)}
                if isinstance(child, Histogram):
                    entry["count"] = child.count
                    entry["sum"] = round(child.total, 9)
                    entry["buckets"] = {
                        repr(bound): n for bound, n in
                        zip(child.bounds, child.cumulative())
                    }
                else:
                    entry["value"] = round(child.value, 9)
                children.append(entry)
            families[name] = {"type": family.kind, "samples": children}
        return families

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        self.collect()
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.children):
                child = family.children[key]
                if isinstance(child, Histogram):
                    cumulative = child.cumulative()
                    for bound, n in zip(child.bounds, cumulative):
                        bucket_labels = key + (("le", repr(bound)),)
                        lines.append(
                            f"{name}_bucket{_label_suffix(bucket_labels)} "
                            f"{n}"
                        )
                    inf_labels = key + (("le", "+Inf"),)
                    lines.append(
                        f"{name}_bucket{_label_suffix(inf_labels)} "
                        f"{cumulative[-1]}"
                    )
                    lines.append(
                        f"{name}_sum{_label_suffix(key)} "
                        f"{_format_value(child.total)}"
                    )
                    lines.append(f"{name}_count{_label_suffix(key)} "
                                 f"{child.count}")
                else:
                    lines.append(
                        f"{name}{_label_suffix(key)} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""
