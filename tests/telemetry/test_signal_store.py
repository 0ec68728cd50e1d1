"""The compact signal stores read back exactly what they were given.

Probe channels keep their samples in typed arrays on one ``array('d')``
clock; the rings keep tuples and build records and spans when read.
Every read must give the values, the Python types and the order a plain
list of samples or a ring of objects gives.
"""

from __future__ import annotations

import functools
from array import array

import pytest

from repro.analysis.export import export_series_files
from repro.scenario import Scenario, builder
from repro.sim.engine import Simulator
from repro.sim.trace import TimeSeries, Tracer
from repro.telemetry import FlightRecorder, Probe, SpanRecorder, TelemetryBus
from tests.telemetry.test_signals_pinned import DURATION, observed_scenario

#: Three channels: always int, always float, and int then float.
SAMPLES = [(0.0, (1, 0.5, 0)), (0.1, (2, 1.25, 0.75)),
           (0.25, (2, 3.0, 1.5)), (0.25, (3, 0.0, 0.0)),
           (0.5, (1, 2.5, 4.0))]


class ScriptedProbe(Probe):
    """Stores the next scripted sample each time it is sampled."""

    def __init__(self, samples) -> None:
        super().__init__(period=1.0)
        self.samples = list(samples)

    def channels(self) -> list[str]:
        return ["count", "level", "mixed"]

    def sample(self, now: float) -> None:
        time, values = self.samples.pop(0)
        self.store(time, values)


def typed_and_plain(samples=SAMPLES) -> tuple[Tracer, Tracer]:
    """The probe's tracer and a list-backed twin fed the same samples."""
    bus = TelemetryBus(Simulator())
    probe = ScriptedProbe(samples)
    probe.bind(bus)
    plain = Tracer()
    for time, values in samples:
        probe.sample(time)
        for name, value in zip(probe.channels(), values):
            plain.record(name, time, value)
    return bus.tracer, plain


def test_each_channel_keeps_the_types_it_was_given():
    typed, plain = typed_and_plain()
    count, level, mixed = (typed.get(n) for n in ("count", "level",
                                                  "mixed"))
    assert isinstance(count.times, array) and count.times.typecode == "d"
    assert count.times is level.times is mixed.times
    assert (count.values.typecode, level.values.typecode) == ("q", "d")
    assert type(mixed.values) is list  # its first sample was the int 0
    for name, series in typed.series.items():
        twin = plain.get(name)
        assert list(series.values) == twin.values
        assert [type(v) for v in series.values] == [
            type(v) for v in twin.values]


def test_a_float_channel_that_meets_an_int_becomes_a_list():
    samples = [(0.0, (1, 0.5, 0.5)), (1.0, (2, 7, 1.0)),
               (2.0, (3, 1.5, 2.0))]
    typed, plain = typed_and_plain(samples)
    level = typed.get("level")
    assert type(level.values) is list
    assert [type(v) for v in level.values] == [float, int, float]
    assert level.values == plain.get("level").values


def test_typed_reads_equal_list_reads(tmp_path):
    typed, plain = typed_and_plain()
    for name in typed.series:
        a, b = typed.get(name), plain.get(name)
        assert list(a) == list(b) and len(a) == len(b)
        for t in (-1.0, 0.0, 0.05, 0.1, 0.25, 0.3, 0.5, 9.0):
            got, want = a.value_at(t), b.value_at(t)
            assert (got, type(got)) == (want, type(want))
        for lo, hi in ((0.0, 0.25), (0.1, 0.1), (0.3, 0.2), (-1, 9)):
            wa, wb = a.window(lo, hi), b.window(lo, hi)
            assert (wa.times, wa.values) == (wb.times, wb.values)
            assert [type(v) for v in wa.values] == [
                type(v) for v in wb.values]
        assert (a.mean(), a.time_average(), a.change_count()) == (
            b.mean(), b.time_average(), b.change_count())
    assert typed.to_csv() == plain.to_csv()
    written = export_series_files(typed, tmp_path / "typed")
    twins = export_series_files(plain, tmp_path / "plain")
    assert [p.read_text() for p in written] == [p.read_text() for p in twins]


def test_a_lockstep_channel_still_refuses_an_ad_hoc_sample():
    typed, _ = typed_and_plain()
    for name in ("count", "level", "mixed"):
        with pytest.raises(ValueError, match=f"{name}: a probe owns"):
            typed.record(name, 9.0, 1.0)
    assert len(typed.get("count").times) == len(SAMPLES)
    loose = TimeSeries("loose")
    loose.record(0.0, 1)
    assert loose.values == [1] and type(loose.times) is list


def test_session_channels_keep_their_types():
    scenario = observed_scenario()
    scenario.sim.run(until=DURATION)
    tracer = scenario.flows[0].session.tracer
    assert tracer.get("layers").values.typecode == "q"
    assert tracer.get("rate").values.typecode == "d"
    # An empty buffer set totals 0.0, so the first sample is a float too.
    total = tracer.get("total_buffer").values
    assert total.typecode == "d" and total[0] == 0.0


def small_rings(monkeypatch, capacity: int) -> Scenario:
    for name, cls in (("FlightRecorder", FlightRecorder),
                      ("SpanRecorder", SpanRecorder)):
        monkeypatch.setattr(builder, name,
                            functools.partial(cls, capacity=capacity))
    scenario = observed_scenario()
    scenario.sim.run(until=DURATION)
    return scenario


def test_a_small_ring_shows_the_newest_entries_of_the_full_one(monkeypatch):
    full = observed_scenario()
    full.sim.run(until=DURATION)
    small = small_rings(monkeypatch, 8)
    for ring, whole in ((small.recorder, full.recorder),
                        (small.spans, full.spans)):
        assert len(ring) == 8
        assert ring.total_recorded == whole.total_recorded
        assert ring.evicted == whole.total_recorded - 8
        assert ring.to_jsonl().splitlines() == (
            whole.to_jsonl().splitlines()[-8:])
    assert [(r.seq, r.kind, r.source, r.fields)
            for r in small.recorder] == [
        (r.seq, r.kind, r.source, r.fields)
        for r in list(full.recorder)[-8:]]
    assert [(s.n, s.span_id, s.name) for s in small.spans] == [
        (s.n, s.span_id, s.name) for s in list(full.spans)[-8:]]
    kind = next(iter(small.recorder)).kind
    assert [r.to_json() for r in small.recorder.records_of(kind)] == [
        r.to_json() for r in small.recorder if r.kind == kind]
    # The session logs are not the ring: they keep every event.
    for a, b in zip(small.flows, full.flows):
        assert a.session.tracer.events == b.session.tracer.events
        assert len(a.session.tracer.events) > 8
