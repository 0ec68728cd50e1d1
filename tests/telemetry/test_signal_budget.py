"""What a run with every signal on pays while it runs, pinned.

The hot path stores once; names and ids are paid once, when a probe
first samples or when somebody exports. A span id hashed at record time,
a sample relayed by name through the bus and the tracer, or an event
mapping copied per sink, is the per-entry cost these tests keep out.
What the sinks export is pinned next door, in ``test_signals_pinned.py``.
"""

from __future__ import annotations

import pytest

from repro.sim.trace import Tracer
from repro.telemetry import DecisionRecord, TelemetryBus, tracing
from repro.telemetry.tracing import Span, SpanRecorder, TraceContext
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


def test_a_record_and_a_span_keep_the_mapping_they_are_given():
    fields = {"layer": 1}
    assert DecisionRecord(0, 0.0, "qa", "add", fields).fields is fields
    span = Span("0" * 16, 0, "0" * 16, "qa", "qa.add", 0.0, 0.0, fields)
    assert span.fields is fields


def test_each_event_is_one_mapping_in_every_sink():
    scenario = observed_scenario()
    scenario.sim.run(until=DURATION)
    records, spans = list(scenario.recorder), list(scenario.spans)
    assert scenario.recorder.evicted == scenario.spans.evicted == 0
    decisions = 0
    for flow in scenario.flows:
        events = flow.session.telemetry.tracer.events
        own = [r for r in records if r.source == flow.label]
        # The tracer log and the ring hold the same mappings, in order.
        assert len(own) == len(events) > 100
        for (time, kind, fields), record in zip(events, own):
            assert (record.time, record.kind) == (time, kind)
            assert record.fields is fields
        # Every adapter event's ``qa.*`` span holds its record's mapping.
        by_id = {id(r.fields): r for r in own}
        mirrored = [s for s in spans if s.source == flow.label
                    and s.name.startswith("qa.") and s.name != "qa.tick"]
        assert {s.name for s in mirrored} >= {"qa.add", "qa.drop_rule"}
        for span in mirrored:
            record = by_id[id(span.fields)]
            assert record.fields is span.fields
            assert (span.name, span.start) == (f"qa.{record.kind}",
                                               record.time)
        decisions += len(mirrored)
    # No producer reuses a mapping: one per record, one per span, and
    # the mirrored spans share their record's.
    held = {id(entry.fields) for entry in records + spans}
    assert len(held) == len(records) + len(spans) - decisions
