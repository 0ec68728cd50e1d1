"""The one ring contract, run against both recorders.

``FlightRecorder`` and ``SpanRecorder`` share ``SignalRing`` (capacity,
FIFO eviction with counters, JSONL export, sha256 digest, the disabled
path); everything here is that shared behaviour. What differs — the
JSON line of a ``DecisionRecord`` and of a ``Span``, span-id
determinism, filters — stays in ``test_recorder.py``/``test_tracing.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.tracing import SpanRecorder, TraceContext

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402


def _flight_appender(ring, source="src"):
    hook = ring.hook(source)
    if hook is None:
        return None
    return lambda i: hook(float(i), "tick", {"i": i})


def _span_appender(ring, source="src"):
    hook = ring.span_hook(source, TraceContext.derive(1, "ring"))
    if hook is None:
        return None
    return lambda i: hook(float(i), float(i), "tick", {"i": i})


#: (recorder class, binder returning an ``append(i)`` callable or None).
RINGS = {
    "FlightRecorder": (FlightRecorder, _flight_appender),
    "SpanRecorder": (SpanRecorder, _span_appender),
}

both_rings = pytest.mark.parametrize(
    "cls, bind", RINGS.values(), ids=RINGS.keys())


def fill(ring, bind, n):
    append = bind(ring)
    for i in range(n):
        append(i)
    return ring


@both_rings
class TestRingContract:
    def test_eviction_is_fifo_and_counted(self, cls, bind):
        ring = fill(cls(capacity=3), bind, 5)
        assert len(ring) == 3
        assert ring.total_recorded == 5
        assert ring.evicted == 2
        assert [e.fields["i"] for e in ring] == [2, 3, 4]
        summary = ring.summary()
        assert (summary["capacity"], summary["recorded"],
                summary["retained"], summary["evicted"]) == (3, 5, 3, 2)
        assert summary["digest"] == ring.digest()

    def test_disabled_hands_out_no_hook(self, cls, bind):
        ring = cls(enabled=False)
        assert bind(ring) is None
        assert len(ring) == 0 and ring.total_recorded == 0

    def test_disabled_writes_no_file(self, cls, bind, tmp_path):
        target = tmp_path / "sub" / "ring.jsonl"
        assert cls(enabled=False).write_jsonl(target) is None
        assert not target.exists()
        assert not target.parent.exists()

    def test_empty_ring_exports_an_empty_log(self, cls, bind, tmp_path):
        ring = cls()
        assert ring.to_jsonl() == ""
        assert ring.digest() == hashlib.sha256(b"").hexdigest()
        assert ring.summary()["retained"] == 0
        target = ring.write_jsonl(tmp_path / "ring.jsonl")
        assert target is not None and target.read_text() == ""

    def test_no_state_outlives_eviction(self, cls, bind):
        # A long-lived service sees a new source label per session; the
        # ring must not remember any of them once their entries are gone.
        ring = cls(capacity=8)
        for i in range(1000):
            bind(ring, source=f"session{i}")(i)
        assert ring.total_recorded == 1000 and ring.evicted == 992
        sizes = {name: len(value) for name, value in vars(ring).items()
                 if hasattr(value, "__len__")}
        assert sizes and all(n <= 8 for n in sizes.values()), sizes

    @given(capacity=st.integers(1, 48), n=st.integers(0, 160))
    def test_any_capacity_any_append_count(self, cls, bind, capacity, n):
        ring = fill(cls(capacity=capacity), bind, n)
        kept = min(n, capacity)
        assert len(ring) == kept
        assert ring.total_recorded == n
        assert ring.evicted == n - kept
        assert [e.fields["i"] for e in ring] == list(range(n - kept, n))
        log = ring.to_jsonl()
        assert log.count("\n") == len(log.splitlines()) == kept
        assert log == "".join(e.to_json() + "\n" for e in ring)
        assert ring.digest() == hashlib.sha256(log.encode()).hexdigest()
