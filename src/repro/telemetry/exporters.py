"""Exporters: Chrome trace-event JSON and Prometheus text files.

Two interchange formats for a finished run:

- :func:`chrome_trace` turns the flight recorder's decision log (and
  optionally the tracer's time series) into the Chrome trace-event JSON
  format, loadable in ``about://tracing`` or https://ui.perfetto.dev —
  each decision source gets its own named track, decisions render as
  instant events with their inputs attached, and series render as
  counter tracks. With ``spans`` (a merged
  :func:`~repro.telemetry.tracing.merge_spans` list) each trace renders
  as its own named *process*, each span source (client, server session)
  as a thread inside it, so client playout/stall spans and server §2.2
  decision spans nest under one trace in Perfetto.
- :func:`export_prometheus` writes a :class:`~repro.telemetry.metrics.
  MetricsRegistry` in the Prometheus text exposition format.

Both are deterministic: same seed, same bytes.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional, Sequence, Union

from repro.sim.trace import Tracer
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.tracing import Span

_PID = 1
#: Counter tracks share one synthetic thread id; decision tracks start
#: above it.
_COUNTER_TID = 0
#: Span processes start above the simulation's pid: one pid per trace.
_SPAN_PID_BASE = 2


def _span_events(spans: Sequence[Span]) -> list[dict[str, object]]:
    """Trace-event rows for a merged span list.

    One synthetic *process* per trace id (so a fleet run shows one
    process group per session trace), one *thread* per span source
    inside it (client on one lane, server session on another). Timed
    spans become complete events (phase ``X``), which Perfetto nests by
    time containment on a lane; instant spans become phase ``i``.
    """
    events: list[dict[str, object]] = []
    trace_ids = sorted({span.trace_id for span in spans})
    pids = {tid: _SPAN_PID_BASE + i for i, tid in enumerate(trace_ids)}
    sources: dict[str, list[str]] = {
        tid: sorted({s.source for s in spans if s.trace_id == tid})
        for tid in trace_ids
    }
    tids = {
        (tid, src): 1 + lane
        for tid in trace_ids
        for lane, src in enumerate(sources[tid])
    }
    for tid in trace_ids:
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pids[tid],
            "tid": 0,
            "args": {"name": f"trace {tid}"},
        })
        for src in sources[tid]:
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": pids[tid],
                "tid": tids[(tid, src)],
                "args": {"name": src},
            })
    for span in spans:
        args: dict[str, object] = dict(span.fields)
        args["span_id"] = span.span_id
        args["parent_id"] = span.parent_id
        event: dict[str, object] = {
            "name": span.name,
            "ts": round(span.start * 1e6),
            "pid": pids[span.trace_id],
            "tid": tids[(span.trace_id, span.source)],
            "args": args,
        }
        if span.instant:
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = max(1, round(span.duration * 1e6))
        events.append(event)
    return events


def chrome_trace(
    recorder: Optional[FlightRecorder] = None,
    tracer: Optional[Tracer] = None,
    spans: Optional[Sequence[Span]] = None,
) -> dict[str, object]:
    """Build a Chrome trace-event document from a finished run.

    Decision records become instant events (phase ``i``) on one track
    per source; tracer series become counter events (phase ``C``);
    merged spans (see :func:`_span_events`) become per-trace process
    groups. Timestamps are seconds scaled to integer microseconds.
    """
    events: list[dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": _COUNTER_TID,
            "args": {"name": "repro simulation"},
        }
    ]
    if recorder is not None and recorder.enabled:
        records = list(recorder)
        sources = sorted({record.source for record in records})
        tids = {src: _COUNTER_TID + 1 + i for i, src in enumerate(sources)}
        for src in sources:
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _PID,
                    "tid": tids[src],
                    "args": {"name": src},
                }
            )
        for record in records:
            events.append(
                {
                    "name": record.kind,
                    "ph": "i",
                    "s": "t",
                    "ts": round(record.time * 1e6),
                    "pid": _PID,
                    "tid": tids[record.source],
                    "args": dict(record.fields),
                }
            )
    if tracer is not None:
        for name in sorted(tracer.series):
            series = tracer.series[name]
            for t, v in zip(series.times, series.values):
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": round(t * 1e6),
                        "pid": _PID,
                        "tid": _COUNTER_TID,
                        "args": {"value": v},
                    }
                )
    if spans:
        events.extend(_span_events(spans))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome_trace(
    path: Union[str, pathlib.Path],
    recorder: Optional[FlightRecorder] = None,
    tracer: Optional[Tracer] = None,
    spans: Optional[Sequence[Span]] = None,
) -> pathlib.Path:
    """Write :func:`chrome_trace` output as deterministic JSON."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = chrome_trace(recorder=recorder, tracer=tracer, spans=spans)
    target.write_text(
        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    )
    return target


def export_prometheus(
    path: Union[str, pathlib.Path], registry: MetricsRegistry
) -> pathlib.Path:
    """Write ``registry`` in the Prometheus text exposition format."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(registry.to_prometheus())
    return target
