"""Decoupled telemetry: a subscription bus between probes and traces.

Instrumentation used to be welded into :class:`~repro.server.session.
StreamingSession` — every run paid full per-layer sampling cost whether
or not anyone looked at the series. This package splits that into:

- :class:`TelemetryBus` — owns the :class:`~repro.sim.trace.Tracer`,
  schedules subscribed probes at their own ``period``, and can disable
  sampling entirely. A disabled bus schedules no samplers and drops all
  records, so headless/batch runs pay near-zero tracing cost.
- probes — registered channels. :class:`SessionProbe` samples every
  series the paper's figures plot (rates, layer counts, per-layer
  buffers and drain rates); :class:`QueueOccupancyProbe` and
  :class:`TransportRateProbe` watch shared-path state that no single
  session owns.

Adapter events (add/drop/backoff) flow through :meth:`TelemetryBus.
event_hook`, which is ``None`` when the bus is disabled so producers
skip the call entirely.

On top of the bus sit these observability layers (see
``docs/OBSERVABILITY.md``):

- :class:`FlightRecorder` — a seed-stable causal log of *decisions*
  (drop-rule evaluations with their §2.2 inputs, layer adds/drops,
  transport backoffs) exported as deterministic JSONL. It and
  :class:`SpanRecorder` are the one bounded ring,
  :class:`~repro.telemetry.recorder.SignalRing`.
- :class:`MetricsRegistry` — counters/gauges/histograms with labels,
  hooks that are ``None`` when disabled (callers guard), Prometheus text
  export; :func:`instrument_engine` feeds it per-handler timings and
  heap depth from the event loop.
- exporters — :func:`chrome_trace` / :func:`export_chrome_trace`
  (Perfetto-loadable trace-event JSON) and :func:`export_prometheus`.
- :class:`SpanRecorder` / :class:`TraceContext` — distributed tracing:
  deterministic span trees stitched across the sim server, the asyncio
  service and its clients (trace context rides the HELLO/WELCOME wire
  options), exported through the Chrome-trace path.
- :class:`QuantileDigest` — the deterministic, mergeable streaming
  quantile sketch behind every percentile the reports quote.
"""

from repro.telemetry.bus import TelemetryBus
from repro.telemetry.digest import QuantileDigest, digest_of, percentile
from repro.telemetry.engine import EngineInstrumentation, instrument_engine
from repro.telemetry.exporters import (
    chrome_trace,
    export_chrome_trace,
    export_prometheus,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.probes import (
    Probe,
    QueueOccupancyProbe,
    SessionProbe,
    TransportRateProbe,
)
from repro.telemetry.recorder import DecisionRecord, FlightRecorder
from repro.telemetry.tracing import (
    Span,
    SpanRecorder,
    TraceContext,
    merge_spans,
)

__all__ = [
    "TelemetryBus",
    "Probe",
    "SessionProbe",
    "QueueOccupancyProbe",
    "TransportRateProbe",
    "DecisionRecord",
    "FlightRecorder",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "EngineInstrumentation",
    "instrument_engine",
    "chrome_trace",
    "export_chrome_trace",
    "export_prometheus",
    "Span",
    "SpanRecorder",
    "TraceContext",
    "merge_spans",
    "QuantileDigest",
    "digest_of",
    "percentile",
]
