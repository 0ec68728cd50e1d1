"""Metrics registry: instruments, hooks, collectors, Prometheus text."""

from __future__ import annotations

import math

import pytest

from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_only_goes_up(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1.0)

    def test_gauge_sets_and_incs(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(4.0)
        gauge.inc(-1.5)
        assert gauge.value == 2.5

    def test_histogram_buckets_are_cumulative(self):
        histo = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 50.0):
            histo.observe(value)
        assert histo.cumulative() == [2, 3, 4]
        assert histo.count == 4
        assert histo.mean() == pytest.approx(56.2 / 4)

    def test_same_name_and_labels_is_the_same_child(self):
        registry = MetricsRegistry()
        a = registry.counter("c", link="l0")
        b = registry.counter("c", link="l0")
        assert a is b
        assert registry.counter("c", link="l1") is not a

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("m")

    def test_instruments_order_is_deterministic(self):
        registry = MetricsRegistry()
        registry.gauge("b", flow="z")
        registry.gauge("b", flow="a")
        registry.counter("a")
        names = [(i.name, i.labels) for i in registry.instruments()]
        assert names == [
            ("a", ()),
            ("b", (("flow", "a"),)),
            ("b", (("flow", "z"),)),
        ]


class TestHooks:
    def test_hooks_are_bound_methods_when_enabled(self):
        registry = MetricsRegistry()
        inc = registry.counter_hook("c", link="l0")
        assert inc is not None
        inc(2.0)
        assert registry.counter("c", link="l0").value == 2.0
        observe = registry.histogram_hook("h")
        assert observe is not None
        observe(0.5)
        assert registry.histogram("h").count == 1

    def test_all_hooks_none_when_disabled(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter_hook("c") is None
        assert registry.gauge_hook("g") is None
        assert registry.histogram_hook("h") is None

    def test_disabled_registry_registers_no_collectors(self):
        registry = MetricsRegistry(enabled=False)
        calls = []
        registry.register_collector(lambda r: calls.append(r))
        registry.collect()
        assert calls == []
        assert registry.snapshot() == {}
        assert registry.to_prometheus() == ""


class TestCollectors:
    def test_collectors_run_per_export(self):
        registry = MetricsRegistry()
        state = {"depth": 3.0}
        registry.register_collector(
            lambda r: r.gauge("depth").set(state["depth"]))
        snap = registry.snapshot()
        assert snap["depth"]["samples"][0]["value"] == 3.0
        state["depth"] = 7.0
        snap = registry.snapshot()
        assert snap["depth"]["samples"][0]["value"] == 7.0


class TestPrometheus:
    def test_text_format(self):
        registry = MetricsRegistry()
        registry.counter("tx_bytes", "Bytes sent", link="l0").inc(1500)
        histo = registry.histogram("lat", "Latency", buckets=(0.1, 1.0))
        histo.observe(0.05)
        histo.observe(5.0)
        text = registry.to_prometheus()
        assert text == (
            "# HELP lat Latency\n"
            "# TYPE lat histogram\n"
            'lat_bucket{le="0.1"} 1\n'
            'lat_bucket{le="1.0"} 1\n'
            'lat_bucket{le="+Inf"} 2\n'
            "lat_sum 5.05\n"
            "lat_count 2\n"
            "# HELP tx_bytes Bytes sent\n"
            "# TYPE tx_bytes counter\n"
            'tx_bytes{link="l0"} 1500\n'
        )

    def test_non_finite_values_export(self):
        """One NaN or infinite gauge (a 0/0 ratio, an unbounded
        estimate) or histogram sum must not take ``/metrics`` down."""
        registry = MetricsRegistry()
        for flow, value in (("a", math.nan), ("b", math.inf),
                            ("c", -math.inf)):
            registry.gauge("g", flow=flow).set(value)
        registry.histogram("h", buckets=(1.0,)).observe(math.inf)
        assert registry.to_prometheus() == (
            "# TYPE g gauge\n"
            'g{flow="a"} NaN\n'
            'g{flow="b"} +Inf\n'
            'g{flow="c"} -Inf\n'
            "# TYPE h histogram\n"
            'h_bucket{le="1.0"} 0\n'
            'h_bucket{le="+Inf"} 1\n'
            "h_sum +Inf\n"
            "h_count 1\n"
        )
        snap = registry.snapshot()
        nan, pos, neg = (s["value"] for s in snap["g"]["samples"])
        assert math.isnan(nan) and pos == math.inf and neg == -math.inf
        assert snap["h"]["samples"][0]["sum"] == math.inf

    def test_exports_are_deterministic(self):
        def build() -> MetricsRegistry:
            registry = MetricsRegistry()
            registry.gauge("g", flow="b").set(1.5)
            registry.gauge("g", flow="a").set(2.5)
            registry.counter("c").inc(3)
            return registry

        assert build().to_prometheus() == build().to_prometheus()
        assert build().snapshot() == build().snapshot()

    def test_instrument_types_export(self):
        registry = MetricsRegistry()
        assert isinstance(registry.counter("c"), Counter)
        assert isinstance(registry.gauge("g"), Gauge)
        assert isinstance(registry.histogram("h"), Histogram)
