"""What a run with every signal on pays while it runs, pinned.

The hot path stores each fact once; names, ids, mappings and values
worked out only for the log are paid when a probe first samples or when
somebody reads. A span id hashed at record time, a sample relayed by
name through the bus and the tracer, an event kept by more than one
entry, or an Appendix A ladder built only to be logged, is the cost
these tests keep out. What the sinks export is pinned next door, in
``test_signals_pinned.py``.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import replace

import pytest

from repro.core import formulas
from repro.scenario import Scenario, ScenarioConfig
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


def observed_config(signals: bool = True) -> ScenarioConfig:
    config = observed_scenario().config
    if signals:
        return config
    return replace(config, telemetry=False, record_decisions=False,
                   trace_spans=False, collect_metrics=False)


def run_observed(signals: bool = True) -> Scenario:
    scenario = Scenario(observed_config(signals))
    scenario.sim.run(until=DURATION)
    return scenario


def test_each_event_is_one_entry_that_every_sink_holds():
    scenario = run_observed()
    ring = list(scenario.recorder._entries)
    assert scenario.recorder.evicted == scenario.spans.evicted == 0
    mirrored = [stored[1] for stored in scenario.spans._entries
                if len(stored) == 2]
    for flow in scenario.flows:
        log = flow.session.telemetry.tracer.log
        own = [entry for entry in ring if entry[3] == flow.label]
        # The tracer log and the ring hold the same tuples, in order.
        assert len(own) == len(log) > 100
        assert all(a is b for a, b in zip(log, own))
        # Each adapter event's ``qa.*`` span refers to that tuple too.
        decisions = [entry for entry in log
                     if not entry[1].startswith("transport_")]
        spans = [entry for entry in mirrored if entry[3] == flow.label]
        assert len(spans) == len(decisions) > 100
        assert all(a is b for a, b in zip(spans, decisions))
    # One retained entry per event, whatever holds it.
    held = {id(entry) for entry in ring + mirrored}
    held |= {id(entry) for flow in scenario.flows
             for entry in flow.session.telemetry.tracer.log}
    assert len(held) == len(ring) == scenario.recorder.total_recorded


def test_the_tracer_log_and_the_qa_spans_equal_their_views():
    scenario = run_observed()
    records = list(scenario.recorder)
    spans = list(scenario.spans)
    for flow in scenario.flows:
        own = [r for r in records if r.source == flow.label]
        events = flow.session.telemetry.tracer.events
        assert events == [(r.time, r.kind, r.fields) for r in own]
        for kind in ("add", "drop", "drop_rule"):
            assert flow.session.telemetry.tracer.events_of(kind) == [
                (r.time, r.fields) for r in own if r.kind == kind]
        mirrored = [(s.name, s.start, s.end, s.fields) for s in spans
                    if s.source == flow.label and s.name != "qa.tick"]
        assert mirrored == [
            (f"qa.{r.kind}", r.time, r.time, r.fields) for r in own
            if not r.kind.startswith("transport_")]
        ticks = [s for s in spans
                 if s.source == flow.label and s.name == "qa.tick"]
        assert ticks and all(
            list(s.fields) == ["active"] and type(s.fields["active"]) is int
            and s.end >= s.start for s in ticks)
    # A span's place in its hook's sequence, across ticks and mirrors.
    for label in {s.source for s in spans}:
        assert [s.n for s in spans if s.source == label] == list(
            range(sum(s.source == label for s in spans)))


def test_no_ladder_is_built_only_to_be_logged(monkeypatch):
    """``add_eval``'s ``kmax_margin`` is worked out when a record is
    read: running with every signal on walks the Appendix A ladder as
    often as the mechanism does with them off, and not once more (each
    rate walk computes ``k1`` once)."""
    built = [0]

    def counted(*args, inner=formulas.k1_backoffs):
        built[0] += 1
        return inner(*args)

    monkeypatch.setattr(formulas, "k1_backoffs", counted)
    counts = {}
    for signals in (True, False):
        scenario = Scenario(observed_config(signals))
        built[0] = 0
        scenario.sim.run(until=DURATION)
        counts[signals] = built[0]
        if signals:
            observed = scenario
    assert counts[True] == counts[False] > 100
    # Reading a record builds its margin (none at the layer ceiling).
    built[0] = 0
    evaluations = observed.recorder.records_of("add_eval")
    margins = [r.fields["kmax_margin"] for r in evaluations]
    assert built[0] == sum(m is not None for m in margins) > 0


def retained_bytes(signals: bool) -> tuple[int, Scenario]:
    """Bytes still allocated after a run, the scenario kept alive."""
    config = observed_config(signals)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scenario = Scenario(config)
        scenario.sim.run(until=DURATION)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, scenario
    finally:
        tracemalloc.stop()


#: Bytes each stored signal entry (record, span or sample) may keep
#: beyond a signals-off run. Measured 43 B; a dict per event, an object
#: per record or span, or a boxed float per sample reads 86 B.
BYTES_PER_ENTRY = 60


def test_signals_on_keep_a_bounded_price_per_entry():
    on, scenario = retained_bytes(True)
    off, _ = retained_bytes(False)
    entries = (scenario.recorder.total_recorded
               + scenario.spans.total_recorded
               + sum(len(series.values) for flow in scenario.flows
                     for series in flow.session.tracer.series.values()))
    assert entries == 681 + 679 + 7450
    assert (on - off) / entries <= BYTES_PER_ENTRY
