"""What a run with every signal on pays while it runs, pinned.

The hot path stores; names, ids and copies are paid once, when a probe
first samples or when somebody exports. A span id hashed at record time,
or a sample relayed by name through the bus and the tracer, is the
per-entry cost these counts keep out. What the sinks export is pinned
next door, in ``test_signals_pinned.py``.
"""

from __future__ import annotations

import pytest

from repro.sim.trace import Tracer
from repro.telemetry import TelemetryBus, tracing
from repro.telemetry.tracing import SpanRecorder, TraceContext
from tests.telemetry.test_signals_pinned import DURATION, observed_scenario


@pytest.fixture
def hashed(monkeypatch):
    """``[n]``: ``derive_seed`` calls made on behalf of trace/span ids."""
    calls = [0]

    def counted(*args, inner=tracing.derive_seed):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(tracing, "derive_seed", counted)
    return calls


def test_span_ids_are_hashed_at_export_not_while_running(hashed):
    scenario = observed_scenario()
    built = hashed[0]  # the flows' trace contexts
    scenario.sim.run(until=DURATION)
    spans = scenario.spans
    assert len(spans) == spans.total_recorded > 500
    assert hashed[0] == built
    first = spans.to_jsonl()
    assert hashed[0] == built + 2 * len(spans)
    assert spans.to_jsonl() == first
    assert hashed[0] == built + 2 * len(spans)


def test_an_evicted_span_is_never_hashed(hashed):
    recorder = SpanRecorder(capacity=4)
    hook = recorder.span_hook("s", TraceContext.derive(1, "ring"))
    built = hashed[0]
    for i in range(10):
        hook(float(i), float(i), "e", {})
    assert recorder.evicted == 6 and hashed[0] == built
    assert [span.n for span in recorder] == [6, 7, 8, 9]
    recorder.digest()
    assert hashed[0] == built + 2 * 4


def sampled(scenario) -> list[Tracer]:
    scenario.sim.run(until=DURATION)
    tracers = [flow.session.telemetry.tracer for flow in scenario.flows]
    assert sum(len(series.times) for tracer in tracers
               for series in tracer.series.values()) > 7000
    return tracers


def test_a_session_probe_appends_without_the_relay(monkeypatch):
    relayed = {"TelemetryBus.record": 0, "Tracer.record": 0}

    def counted(cls, name):
        inner = getattr(cls, name)

        def wrapper(self, *args):
            relayed[f"{cls.__name__}.{name}"] += 1
            return inner(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    counted(TelemetryBus, "record")
    counted(Tracer, "record")
    sampled(observed_scenario())
    assert relayed == {"TelemetryBus.record": 0, "Tracer.record": 0}


def test_a_session_probe_looks_each_channel_up_once(monkeypatch):
    resolved = []

    def counted_channel(self, name, inner=Tracer.channel):
        resolved.append(name)
        return inner(self, name)

    monkeypatch.setattr(Tracer, "channel", counted_channel)
    tracers = sampled(observed_scenario())
    # By the first sample, in the order the series appear.
    assert resolved == [name for tracer in tracers
                        for name in tracer.series]
