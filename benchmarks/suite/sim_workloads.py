"""The packet-simulator workloads: ``paper_t1``, ``qa_contended``,
``qa_observed``.

``paper_t1`` is the T1 flow mix the experiment runner spends three
quarters of its time on: 19 of its 20 flows are bare transports, so it
is the workload that *bypasses* the adapter. ``qa_contended`` is eight
adaptive flows on a tight link, where the §2.2/§3 mechanism does most
of the work. ``qa_observed`` is the same scenario with every signal on
and must reach the same add/drop decisions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.config import QAConfig
from repro.experiments.common import PaperWorkload, WorkloadConfig
from repro.scenario import QAFlowSpec, Scenario, ScenarioConfig
from repro.sim.rng import SeededRNG, derive_seed
from repro.sim.topology import DumbbellConfig

from drives import bare_events_per_s, replay_drive
from passes import PassReport, Workload, digest_of, sub_seeds
from percentiles import p50_p99
from quality import Quality
from sim_trace import SimTracer, adapter_span_metrics, timed_adapter_cls
from spanlog import SpanLog, layer_self_seconds

T1_DURATION = 80.0
QA_FLOWS = 8
QA_DURATION = 60.0
QA_CONFIG = QAConfig(layer_rate=6500, max_layers=6, packet_size=500,
                     k_max=2)
QA_TOPOLOGY = DumbbellConfig(bottleneck_bandwidth=160_000,
                             queue_capacity_packets=40)
#: Flow i starts in [QA_STAGGER*i, QA_STAGGER*(i+1)), drawn from the seed
#: (adaptive flows have no other stochastic input).
QA_STAGGER = 0.25

@dataclass
class LivePacketRun:
    scenario: Scenario
    #: Result collection as the program's own callers do it.
    finish: Callable[[], Any]
    log: Optional[SpanLog]
    #: ``[n]``: opportunities the (timed) adapter left idle.
    idle_picks: list[int]
    tracer: Optional[SimTracer] = None


class PacketWorkload(Workload):

    def __init__(self, name: str) -> None:
        self.name = name
        self._sub_seeds: list[int] = []
        self._starts: list[tuple[float, ...]] = []

    # --------------------------------------------------------------- inputs

    def prepare(self, seed: int, seconds: Optional[float] = None) -> None:
        self._sub_seeds = sub_seeds(seed)
        self._starts = []
        for sub in self._sub_seeds:
            rng = SeededRNG(derive_seed(sub, "qa-starts"))
            self._starts.append(tuple(
                QA_STAGGER * (i + rng.random()) for i in range(QA_FLOWS)))

    def _qa_scenario(self, k: int, signals: bool,
                     adapter_cls: Optional[type]) -> ScenarioConfig:
        return ScenarioConfig(
            flows=tuple(
                QAFlowSpec(QA_CONFIG, start=start, adapter_cls=adapter_cls)
                for start in self._starts[k]),
            topology=QA_TOPOLOGY,
            duration=QA_DURATION,
            seed=self._sub_seeds[k],
            telemetry=signals,
            record_decisions=signals,
            trace_spans=signals,
            collect_metrics=signals,
        )

    # ------------------------------------------------------------ the passes

    def construct(self, k: int, log: Optional[SpanLog] = None,
                  signals: Optional[bool] = None) -> LivePacketRun:
        idle_picks = [0]
        adapter_cls = (timed_adapter_cls(log, idle_picks)
                       if log is not None else None)
        if self.name == "paper_t1":
            paper = PaperWorkload(
                WorkloadConfig(duration=T1_DURATION,
                               seed=self._sub_seeds[k]),
                adapter_cls=adapter_cls)
            scenario, finish = paper.scenario, paper.session.result
        else:
            if signals is None:
                signals = self.name == "qa_observed"
            scenario = Scenario(self._qa_scenario(k, signals, adapter_cls))
            finish = scenario.result
        live = LivePacketRun(scenario, finish, log, idle_picks)
        if log is not None:
            live.tracer = SimTracer(log, scenario)
        return live

    def run(self, live: LivePacketRun) -> None:
        sim = live.scenario.sim
        until = live.scenario.config.duration
        log = live.log
        if log is None:
            sim.run(until=until)
            live.finish()
            return
        log.begin(log.name("sim.engine:run"))
        sim.run(until=until)
        log.end()
        log.begin(log.name("other:result"))
        live.finish()
        log.end()

    def warm_up(self) -> PassReport:
        if self.name != "qa_observed":
            return super().warm_up()
        # The signals-off twin of sub-seed 0: what the observed passes'
        # add/drop logs are checked against.
        live = self.construct(0, signals=False)
        self.run(live)
        report = self.collect(live)
        report.twin = True
        return report

    # -------------------------------------------------------------- collect

    def collect(self, live: LivePacketRun) -> PassReport:
        scenario = live.scenario
        duration = scenario.config.duration
        bottleneck = scenario.backbone_links[0]
        quality = Quality()
        decisions = []
        behaviour: list[Any] = [
            scenario.sim.events_processed, bottleneck.packets_forwarded,
            bottleneck.bytes_forwarded, bottleneck.queue.drops]
        problems: list[str] = []
        for flow in scenario.flows:
            stats = flow.source.stats
            behaviour.append([flow.label, stats.packets_sent,
                              stats.backoffs, stats.packets_lost])
            if flow.session is None:
                continue
            adapter = flow.session.server.adapter
            metrics = adapter.metrics
            adds = [t for t, _ in metrics.adds]
            drops = [e.time for e in metrics.drops]
            quality.add_session(
                adds, drops, [e.efficiency for e in metrics.drops],
                start=flow.start, end=duration,
                stall_seconds=flow.session.client.stats.stall_time)
            decisions.append([flow.label, metrics.adds,
                              [[e.time, e.layer, e.cause.value]
                               for e in metrics.drops]])
            behaviour.append(adapter.sent_bytes_per_layer)
            if adapter.active_layers < 1:
                problems.append(f"{flow.label}: no active layer left")
        stray = sum(host.stray_packets
                    for host in (scenario.network.sources
                                 + scenario.network.sinks))
        if stray:
            problems.append(f"{stray} stray packets reached a host")
        report = PassReport(
            stream_seconds=len(scenario.flows) * duration,
            quality=quality,
            digest=digest_of([behaviour, decisions]),
            decisions=digest_of(decisions),
            attempted=1,
            failed=1 if problems else 0,
            problems=[f"{self.name}: {p}" for p in problems],
        )
        if live.log is not None:
            report.counters = self._counters(live)
        return report

    def _counters(self, live: LivePacketRun) -> dict[str, float]:
        scenario = live.scenario
        duration = scenario.config.duration
        link = scenario.backbone_links[0]
        queue = link.queue
        out: dict[str, float] = {
            "sim.engine.events": scenario.sim.events_processed,
            "sim.link.packets_forwarded": link.packets_forwarded,
            "sim.link.utilization":
                link.bytes_forwarded / (link.bandwidth * duration),
            "sim.queues.drops": queue.drops,
            "sim.queues.drop_share":
                queue.drops / max(1, queue.enqueues + queue.drops),
        }
        rap = [f.source.stats for f in scenario.flows
               if f.kind in ("rap", "qa")]
        for counter in ("packets_sent", "packets_lost", "backoffs",
                        "timeouts"):
            out[f"transport.rap.{counter}"] = sum(
                getattr(stats, counter) for stats in rap)
        tcp = [f.source.stats for f in scenario.flows if f.kind == "tcp"]
        if tcp:
            out["transport.tcp.packets_sent"] = sum(
                stats.packets_sent for stats in tcp)
            out["transport.tcp.retransmits"] = sum(
                stats.retransmissions for stats in tcp)
        sessions = [f.session for f in scenario.flows
                    if f.session is not None]
        drops = [e for s in sessions
                 for e in s.server.adapter.metrics.drops]
        out["core.adapter.adds"] = sum(
            len(s.server.adapter.metrics.adds) for s in sessions)
        out["core.adapter.drops"] = len(drops)
        out["core.adapter.poor_distribution_share"] = (
            sum(e.poor_distribution for e in drops) / len(drops)
            if drops else 0.0)
        out["core.adapter.idle_picks"] = live.idle_picks[0]
        if self.name == "qa_observed":
            out["telemetry.records"] = scenario.recorder.total_recorded
            out["telemetry.spans"] = scenario.spans.total_recorded
            out["telemetry.samples"] = sum(
                len(series.times) for s in sessions
                for series in s.tracer.series.values())
        return out

    def layer_metrics(self, live: LivePacketRun, report: PassReport,
                      traced_wall: float) -> dict[str, float]:
        """Per-layer numbers of one traced packet pass."""
        log, tracer = live.log, live.tracer
        assert log is not None and tracer is not None
        stats = log.aggregate()
        layer_self = layer_self_seconds(stats)
        out = dict(report.counters)
        events = out["sim.engine.events"]
        out["sim.engine.events_per_packet"] = (
            events / max(1.0, out["sim.link.packets_forwarded"]))
        out["sim.engine.self_s"] = layer_self.get("sim.engine", 0.0)
        out["sim.engine.self_us_per_event"] = (
            1e6 * out["sim.engine.self_s"] / max(1.0, events))
        out.update(p50_p99(tracer.heap_depths, "sim.engine.heap_depth"))
        for layer in ("sim.link", "transport.rap", "transport.tcp",
                      "media.playout", "telemetry"):
            if layer in layer_self:
                out[f"{layer}.self_s"] = layer_self[layer]
        out.update(adapter_span_metrics(
            log, stats, out["core.adapter.idle_picks"]))
        out["trace.spans"] = len(log)
        out["trace.attributed_share"] = (
            sum(v for k, v in layer_self.items() if k != "other")
            / traced_wall)
        return out

    def self_check(self) -> list[str]:
        """The session core replayed from a tape reproduces the live
        decision log."""
        return replay_drive(QA_CONFIG, repeats=1)[1]

    def drives(self, base_wall: float, live: Any
               ) -> tuple[dict[str, float], list[str]]:
        out = {"sim.engine.bare_events_per_s": bare_events_per_s()}
        replay, problems = replay_drive(QA_CONFIG)
        out.update(replay)
        if self.name == "qa_observed":
            # Signals-on over signals-off, both untraced, same input.
            t0 = time.perf_counter()
            self.run(self.construct(0, signals=False))
            out["telemetry.overhead_ratio"] = (
                base_wall / (time.perf_counter() - t0))
        return out, problems
