"""Tests of the benchmark harness itself.

Run with ``pytest benchmarks/suite`` (outside tier-1's ``testpaths``).
They cover what the numbers rest on: the virtual clock, datagram
ordering, bit-reproducibility of ``service_virtual``, the exact
percentile, span self-time, and that what the harness emits is exactly
what ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys

import pytest

import run as suite

suite.need_program()

from percentiles import percentile, percentile_or_none  # noqa: E402
from quality import Quality, layer_seconds  # noqa: E402
from service_workloads import ServiceWorkload  # noqa: E402
from spanlog import SpanLog, layer_self_seconds  # noqa: E402
from virtual_loop import VirtualLoop  # noqa: E402

SPEC = suite.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------- virtual loop


def test_virtual_clock_only_advances_when_idle():
    loop = VirtualLoop()
    seen: list[tuple[str, float]] = []

    def chain(n: int) -> None:
        seen.append(("ready", loop.time()))
        if n:
            loop.call_soon(chain, n - 1)

    async def main() -> None:
        loop.call_later(0.25, lambda: seen.append(("timer", loop.time())))
        loop.call_soon(chain, 50)
        await asyncio.sleep(1.0)

    try:
        loop.run_until_complete(main())
    finally:
        loop.close()
    # Fifty-one back-to-back callbacks ran without the clock moving ...
    assert [t for kind, t in seen if kind == "ready"] == [0.0] * 51
    # ... and the loop then jumped straight to each timer's due time.
    assert ("timer", 0.25) in seen
    assert loop.time() == pytest.approx(1.0, abs=1e-9)


def test_virtual_loop_raises_instead_of_blocking():
    loop = VirtualLoop()
    try:
        with pytest.raises(RuntimeError, match="no timer pending"):
            loop.run_until_complete(loop.create_future())
    finally:
        loop.close()


class _Recorder(asyncio.DatagramProtocol):
    def __init__(self) -> None:
        self.received: list[bytes] = []
        self.transport = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self.received.append(data)


def test_datagrams_arrive_in_send_order_per_endpoint_pair():
    loop = VirtualLoop(latency=0.001)

    async def main() -> tuple[_Recorder, _Recorder]:
        server, a, b = _Recorder(), _Recorder(), _Recorder()
        await loop.create_datagram_endpoint(
            lambda: server, local_addr=("127.0.0.1", 9000))
        for client in (a, b):
            await loop.create_datagram_endpoint(
                lambda c=client: c, remote_addr=("127.0.0.1", 9000))
        # Bursts at one virtual instant: timer handles then tie.
        for burst in range(5):
            for i in range(40):
                a.transport.sendto(b"a%03d" % (burst * 40 + i))
                b.transport.sendto(b"b%03d" % (burst * 40 + i))
            await asyncio.sleep(0.0005)
        await asyncio.sleep(0.01)
        return server, a

    try:
        server, _ = loop.run_until_complete(main())
    finally:
        loop.close()
    for tag in (b"a", b"b"):
        stream = [d for d in server.received if d.startswith(tag)]
        assert stream == [tag + b"%03d" % i for i in range(200)]


def _short_virtual_pass(seed: int) -> str:
    workload = ServiceWorkload("service_virtual")
    workload.sessions, workload.duration = 8, 3.0
    workload.prepare(seed)
    live = workload.construct(0)
    workload.run(live)
    report = workload.collect(live)
    assert report.problems == []
    assert report.failed == 0
    return report.digest


def test_same_seed_service_virtual_passes_are_bit_equal():
    first = _short_virtual_pass(7)
    assert _short_virtual_pass(7) == first
    assert _short_virtual_pass(8) != first


# ------------------------------------------------------------ statistics


def test_percentile_is_the_exact_order_statistic():
    samples = [float(i) for i in range(1, 1001)]
    assert percentile(samples, 0.5) == 500.0
    assert percentile(samples, 0.99) == 990.0
    # Two values 1 % apart stay distinguishable (the digest grid is ~7 %).
    assert percentile([100.0] * 99 + [101.0], 1.0) == 101.0


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile_or_none([1.0] * 999, 0.99) is None
    assert percentile_or_none([1.0] * 1000, 0.99) == 1.0
    assert percentile_or_none([1.0] * 19, 0.5) is None
    assert percentile_or_none([1.0] * 20, 0.5) == 1.0


def test_layer_seconds_integrates_add_and_drop_instants():
    # 1 layer on [0,2), 2 on [2,5), 3 on [5,6), 2 on [6,10].
    assert layer_seconds([2.0, 5.0], [6.0], 0.0, 10.0) == pytest.approx(
        2 * 1 + 3 * 2 + 1 * 3 + 4 * 2)
    quality = Quality()
    quality.add_session([2.0, 5.0], [6.0], [0.9], 0.0, 10.0, 0.5)
    metrics = quality.metrics()
    assert metrics["mean_layers"] == pytest.approx(1.9)
    assert metrics["quality_changes_per_min"] == pytest.approx(18.0)
    assert metrics["playback_share"] == pytest.approx(0.95)
    assert metrics["buffer_efficiency"] == pytest.approx(0.9)


def test_span_self_time_excludes_children():
    ticks = iter(range(100))
    log = SpanLog(clock=lambda: float(next(ticks)))
    outer, inner = log.name("a.layer:outer"), log.name("b.layer:inner")
    log.begin(outer)        # t=0
    log.begin(inner)        # t=1
    log.end()               # t=2
    log.begin(inner)        # t=3
    log.end()               # t=4
    log.end()               # t=5
    stats = log.aggregate()
    assert stats["a.layer:outer"].total_s == 5.0
    assert stats["a.layer:outer"].self_s == 3.0
    assert stats["b.layer:inner"].count == 2
    assert layer_self_seconds(stats) == {"a.layer": 3.0, "b.layer": 2.0}
    assert log.durations("b.layer:inner") == [1.0, 1.0]


# ------------------------------------------------------------ the contract


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in SPEC["end_to_end"])}]
    for workload in SPEC["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert SPEC["paths"] == ["benchmarks/suite"]


def _drive(workload: str, trace: int, seconds: float = 4.0
           ) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, suite.__file__, "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2][len(suite.DETAIL_PREFIX):])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result, detail


def test_untraced_run_emits_exactly_the_end_to_end_metrics():
    result, detail = _drive("fluid_scalar", 0, seconds=1.0)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    assert set(detail["reported"]) == set(declared)
    for name, cell in result["metrics"].items():
        assert cell["unit"] == declared[name]
        assert cell["value"] > 0, name
    assert detail["quartiles"]["setup_s"]["n"] == suite.SETUP_PROBES
    for name in ("stream_s_per_s", "cpu_ms_per_stream_s"):
        assert detail["quartiles"][name]["n"] >= 5
        assert detail["quartiles"][name]["uncorrected_median"] > 0


def test_traced_runs_emit_exactly_the_per_layer_metrics():
    declared = {m["name"] for m in SPEC["per_layer"]}
    reported: dict[str, set[str]] = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        # The loopback heartbeat needs ~5 s to support a p99.
        result, detail = _drive(
            workload, 1, seconds=10.0 if workload == "service_loopback"
            else 4.0)
        assert set(result["metrics"]) == declared
        reported[workload] = set(detail["reported"])
        assert reported[workload] <= declared
    # Every declared metric is produced by some workload, and none other.
    assert set().union(*reported.values()) == declared

    def layers(workload: str) -> set[str]:
        return {name.rsplit(".", 1)[0] for name in reported[workload]}

    for workload in ("paper_t1", "qa_contended", "qa_observed"):
        assert not any(layer.startswith(("service.", "asyncio.", "net"))
                       for layer in layers(workload))
    for workload in ("service_virtual", "service_loopback"):
        assert not any(layer.startswith("sim.")
                       for layer in layers(workload))
    for workload in ("fluid_flock", "fluid_scalar"):
        assert not any(layer.startswith(("sim.engine", "sim.link",
                                         "transport.", "service."))
                       for layer in layers(workload))
