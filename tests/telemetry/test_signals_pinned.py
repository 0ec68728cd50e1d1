"""What the three signal sinks export, pinned.

Decision records, spans and sampled series are what the figures, the
tables and ``repro-report`` are made of. How the sinks store them on the
hot path may change; what they export for a given seed may not. The
values below were recorded at the commit before span ids became lazy
and probes bound their channels (PR 18) and are compared with ``==``.
"""

from __future__ import annotations

import hashlib

from repro.core.config import QAConfig
from repro.scenario import QAFlowSpec, Scenario, ScenarioConfig
from repro.sim.topology import DumbbellConfig
from repro.telemetry.tracing import SpanRecorder, TraceContext, _hex_id

OBSERVED_CONFIG = QAConfig(layer_rate=4000.0, max_layers=5,
                           packet_size=500, k_max=2)
DURATION = 15.0

SESSION_CHANNELS = ["rate", "consumption", "layers", "total_buffer", "srtt"]
for _layer in range(OBSERVED_CONFIG.max_layers):
    SESSION_CHANNELS += [f"send_rate_L{_layer}", f"drain_rate_L{_layer}",
                         f"buffer_L{_layer}", f"buffer_est_L{_layer}"]

PINNED = {
    "records": (681, "d5ba04d88dc251b8172ff8f09ea75178"
                     "337ce2c7e1ab0a39021b662c2847b98b"),
    "spans": (679, "87857906c3f4dcb7739444be9e262dd5"
                   "c080e16091852ed74afcb9962942e877"),
    # label: (samples, events, adds, drops, sha256 over every series).
    # Re-pinned when ``total_buffer``'s first sample became ``0.0`` (an
    # empty buffer set's total was the int ``0``); no other value moved.
    "sessions": {
        "qa0": (3775, 368, 8, 7, "2960d448fa72c5eb48f05a19bacbd0fe"
                                 "5ad583ae052457860a222e374ce76e02"),
        "qa1": (3675, 313, 7, 3, "2ca0b815440a39b4696256db773eb6ae"
                                 "ddbbbe94ce71387d77159a5367a56208"),
    },
}


def observed_scenario() -> Scenario:
    """Two adaptive flows on a 30 KB/s, 20-packet dumbbell, seed 7,
    every signal on: they fill, add, back off, drain and drop."""
    return Scenario(ScenarioConfig(
        flows=(QAFlowSpec(OBSERVED_CONFIG),
               QAFlowSpec(OBSERVED_CONFIG, start=0.35)),
        topology=DumbbellConfig(bottleneck_bandwidth=30_000.0,
                                queue_capacity_packets=20),
        duration=DURATION, seed=7, telemetry=True, record_decisions=True,
        trace_spans=True, collect_metrics=True))


def test_the_observed_scenario_exports_what_it_did_before():
    scenario = observed_scenario()
    scenario.run()
    recorder, spans = scenario.recorder, scenario.spans
    assert (recorder.total_recorded, recorder.digest()) == PINNED["records"]
    assert (spans.total_recorded, spans.digest()) == PINNED["spans"]
    sessions = {}
    for flow in scenario.flows:
        tracer = flow.session.telemetry.tracer
        # Channels enter the tracer in first-sample order.
        assert list(tracer.series) == SESSION_CHANNELS
        sha = hashlib.sha256()
        for name, series in tracer.series.items():
            assert series.name == name
            sha.update(repr((name, list(series.times),
                             list(series.values))).encode())
        metrics = flow.session.server.adapter.metrics
        sessions[flow.label] = (
            sum(len(series.times) for series in tracer.series.values()),
            len(tracer.events), len(metrics.adds), len(metrics.drops),
            sha.hexdigest())
    assert sessions == PINNED["sessions"]


def test_span_id_is_a_function_of_trace_source_and_n():
    context = TraceContext.derive(3, "y")

    def fed() -> SpanRecorder:
        recorder = SpanRecorder()
        hook = recorder.span_hook("s", context)
        for i in range(5):
            hook(float(i), i + 0.5, "op", {"i": i})
        return recorder

    one, other = fed(), fed()
    ids = [span.span_id for span in one]
    assert ids == [_hex_id(int(context.trace_id, 16), "s", n)
                   for n in range(5)]
    assert len(set(ids)) == 5
    # Reading the ids of one recorder first does not change what either
    # exports.
    assert one.to_jsonl() == other.to_jsonl()
    assert one.digest() == other.digest()
