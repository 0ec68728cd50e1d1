"""Tests for repro.telemetry.tracing: contexts, spans, recorder, merge.

The ring behaviour ``SpanRecorder`` shares with ``FlightRecorder``
(eviction, disabled path, empty export) is in ``test_ring.py``; how a
span's id derives from its hook's sequence is in
``test_signals_pinned.py``.
"""

import json

import pytest

from repro.telemetry.exporters import chrome_trace
from repro.telemetry.tracing import (Span, SpanRecorder, TraceContext,
                                     merge_spans)


class TestTraceContext:
    def test_derive_is_deterministic(self):
        a = TraceContext.derive(42, "fleet", 3)
        b = TraceContext.derive(42, "fleet", 3)
        assert a == b
        assert a.trace_id == b.trace_id
        assert hash(a) == hash(b)

    def test_distinct_parts_get_distinct_traces(self):
        ids = {TraceContext.derive(42, "fleet", i).trace_id
               for i in range(50)}
        assert len(ids) == 50

    def test_ids_are_16_hex_chars(self):
        ctx = TraceContext.derive(7, "x")
        assert len(ctx.trace_id) == 16
        assert len(ctx.span_id) == 16
        int(ctx.trace_id, 16)
        int(ctx.span_id, 16)

    def test_rejects_malformed_ids(self):
        with pytest.raises(ValueError):
            TraceContext("nope", "0" * 16)
        with pytest.raises(ValueError):
            TraceContext("0" * 16, "xyz")

    def test_child_keeps_trace_changes_parent(self):
        root = TraceContext.derive(1, "a")
        kid = root.child("tick", 5)
        assert kid.trace_id == root.trace_id
        assert kid.span_id != root.span_id
        assert kid == root.child("tick", 5)  # deterministic

    def test_wire_round_trip(self):
        ctx = TraceContext.derive(9, "svc")
        recovered = TraceContext.from_wire({"trace": ctx.to_wire()})
        assert recovered == ctx

    @pytest.mark.parametrize("options", [
        {},
        {"trace": None},
        {"trace": "not-a-dict"},
        {"trace": {"trace_id": "0" * 16}},  # span_id missing
        {"trace": {"trace_id": "zz" * 8, "span_id": "0" * 16}},
        {"trace": {"trace_id": "0" * 15, "span_id": "0" * 16}},
        {"trace": {"trace_id": 12345, "span_id": "0" * 16}},
    ])
    def test_malformed_wire_context_reads_as_absent(self, options):
        assert TraceContext.from_wire(options) is None


class TestSpanRecorder:
    def test_hook_records_a_span(self):
        recorder = SpanRecorder()
        ctx = TraceContext.derive(1, "x")
        hook = recorder.span_hook("worker", ctx)
        assert hook(0.5, 1.5, "op", {"k": 1}) is None
        (span,) = list(recorder)
        assert span.trace_id == ctx.trace_id
        assert span.parent_id == ctx.span_id
        assert len(span.span_id) == 16 and span.n == 0
        assert span.source == "worker"
        assert span.duration == pytest.approx(1.0)
        assert not span.instant

    def test_filters_and_trace_ids(self):
        recorder = SpanRecorder()
        a = TraceContext.derive(1, "a")
        b = TraceContext.derive(1, "b")
        recorder.span_hook("one", a)(0, 1, "tick", {})
        recorder.span_hook("two", b)(0, 1, "tock", {})
        assert len(recorder.spans_of(name="tick")) == 1
        assert len(recorder.spans_of(source="two")) == 1
        assert len(recorder.spans_of(trace_id=a.trace_id)) == 1
        assert recorder.trace_ids() == sorted(
            {a.trace_id, b.trace_id})

    def test_jsonl_and_digest_are_stable(self):
        def build():
            recorder = SpanRecorder()
            hook = recorder.span_hook("s", TraceContext.derive(5, "w"))
            hook(0.25, 0.75, "op", {"layer": 2})
            return recorder

        assert build().to_jsonl() == build().to_jsonl()
        assert build().digest() == build().digest()
        line = json.loads(build().to_jsonl())
        assert line["name"] == "op"
        assert line["fields"] == {"layer": 2}
        assert line["t0"] == 0.25 and line["t1"] == 0.75

    def test_summary_shape(self):
        recorder = SpanRecorder(capacity=8)
        hook = recorder.span_hook("s", TraceContext.derive(1, "q"))
        hook(0, 1, "a", {})
        hook(1, 2, "b", {})
        summary = recorder.summary()
        assert summary["enabled"] is True
        assert summary["recorded"] == 2
        assert summary["names"] == {"a": 1, "b": 1}
        assert summary["traces"] == 1


class TestMergeSpans:
    def test_merge_skips_none_and_disabled(self):
        live = SpanRecorder()
        dead = SpanRecorder(enabled=False)
        live.span_hook("s", TraceContext.derive(1, "m"))(0, 1, "e", {})
        merged = merge_spans(None, dead, live)
        assert len(merged) == 1

    def test_merge_order_is_total_and_deterministic(self):
        r1, r2 = SpanRecorder(), SpanRecorder()
        ctx1 = TraceContext.derive(1, "p")
        ctx2 = TraceContext.derive(1, "q")
        r1.span_hook("client", ctx1)(1.0, 2.0, "a", {})
        r1.span_hook("client", ctx2)(0.0, 1.0, "b", {})
        r2.span_hook("server", ctx1)(0.5, 0.9, "c", {})
        once = merge_spans(r1, r2)
        again = merge_spans(r2, r1)
        key = [(s.trace_id, s.start, s.source) for s in once]
        assert key == [(s.trace_id, s.start, s.source) for s in again]
        assert key == sorted(key)


class TestChromeSpanExport:
    def _spans(self):
        client = SpanRecorder()
        server = SpanRecorder()
        ctx = TraceContext.derive(11, "fleet", 0)
        client.span_hook("load0", ctx)(0.0, 2.0, "client.session", {})
        client.span_hook("load0", ctx)(0.3, 0.3, "client.playout", {})
        server.span_hook("session1", ctx)(0.1, 1.9, "session", {})
        return merge_spans(client, server)

    def test_one_process_per_trace_one_thread_per_source(self):
        doc = chrome_trace(spans=self._spans())
        events = doc["traceEvents"]
        processes = [e for e in events
                     if e["ph"] == "M" and e["name"] == "process_name"]
        threads = [e for e in events
                   if e["ph"] == "M" and e["name"] == "thread_name"]
        trace_names = [p["args"]["name"] for p in processes]
        assert any(n.startswith("trace ") for n in trace_names)
        assert {t["args"]["name"] for t in threads} >= {
            "load0", "session1"}

    def test_timed_vs_instant_phases(self):
        doc = chrome_trace(spans=self._spans())
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in complete} == {
            "client.session", "session"}
        assert {e["name"] for e in instants} == {"client.playout"}
        for e in complete:
            assert e["dur"] >= 1
            assert "span_id" in e["args"]
            assert "parent_id" in e["args"]

    def test_client_and_server_share_a_pid(self):
        doc = chrome_trace(spans=self._spans())
        span_events = [e for e in doc["traceEvents"]
                       if e["ph"] in ("X", "i")]
        assert len({e["pid"] for e in span_events}) == 1
        assert len({e["tid"] for e in span_events}) == 2

    def test_document_is_deterministic(self):
        once = json.dumps(chrome_trace(spans=self._spans()),
                          sort_keys=True)
        again = json.dumps(chrome_trace(spans=self._spans()),
                           sort_keys=True)
        assert once == again
