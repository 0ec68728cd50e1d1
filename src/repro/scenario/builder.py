"""The Scenario builder: specs in, wired simulation out.

Construction discipline (this is what makes scenarios deterministic):

1. the topology is built first;
2. flows are built strictly in ``config.flows`` order — flow ids and
   event sequence numbers follow list position;
3. the flow monitor attaches last (a read-only tap; it never changes a
   packet's fate).

Per-flow randomness comes from ``rng.spawn(label)`` child streams, so a
flow's draws depend only on its own position/label, never on what other
flows consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.scenario.result import FlowResult, ScenarioResult
from repro.scenario.specs import (
    CbrFlowSpec,
    FlowSpec,
    QAFlowSpec,
    RapFlowSpec,
    ScenarioConfig,
    TcpFlowSpec,
)
from repro.server.session import SessionResult, StreamingSession
from repro.sim.engine import Simulator
from repro.sim.flowmon import FlowMonitor, jain_index
from repro.sim.link import Link
from repro.sim.node import Host
from repro.sim.rng import SeededRNG, make_rng
from repro.sim.topology import Dumbbell
from repro.telemetry import (
    FlightRecorder,
    MetricsRegistry,
    SpanRecorder,
    TelemetryBus,
    TraceContext,
)
from repro.transport import (
    CbrSink,
    CbrSource,
    RapSink,
    RapSource,
    TcpSink,
    TcpSource,
)


@dataclass
class BuiltFlow:
    """A constructed flow: its spec plus the live simulation objects."""

    index: int
    spec: FlowSpec
    label: str
    flow_id: int
    start: float
    source: object
    sink: object = None
    session: Optional[StreamingSession] = None

    @property
    def kind(self) -> str:
        return self.spec.kind


class Scenario:
    """Builds and runs one multi-flow scenario from a

    :class:`~repro.scenario.specs.ScenarioConfig`. All simulation state
    (network, flows, monitor) is constructed in ``__init__``; ``run()``
    just advances the clock and collects results.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.rng: SeededRNG = make_rng(config.seed)
        self.sim = Simulator()
        # Shared observability sinks: one causal decision log and one
        # metrics registry per scenario, fed by every flow and the
        # bottleneck. Both are disabled (and cost nothing) unless asked for.
        self.recorder = FlightRecorder(enabled=config.record_decisions)
        self.metrics = MetricsRegistry(enabled=config.collect_metrics)
        # Span tracing: one recorder per scenario, one deterministic
        # trace per QA flow (ids derive from the seed and flow index,
        # so two same-seed runs produce identical trace ids).
        self.spans = SpanRecorder(enabled=config.trace_spans)
        self.network = Dumbbell(self.sim, replace(
            config.topology, n_pairs=len(config.flows)))
        if config.collect_metrics:
            self.network.bottleneck.attach_metrics(self.metrics)
            self.metrics.register_collector(self._collect_engine)

        self.flows: list[BuiltFlow] = []
        for index, spec in enumerate(config.flows):
            # Spawn a child stream for EVERY flow, in list order, so the
            # spawn counter equals the flow index for all of them — a
            # flow's seed depends only on its own position and kind,
            # never on which other kinds precede it.
            rng = self.rng.spawn(f"flow{index}:{spec.kind}")
            self.flows.append(self._build_flow(index, spec, rng))

        self.monitor = FlowMonitor(self.sim, self.network.bottleneck,
                                   sample_period=config.monitor_period)

    # ----------------------------------------------------------- topology

    @property
    def backbone_links(self) -> list[Link]:
        """The congested links: the dumbbell's one bottleneck."""
        return [self.network.bottleneck]

    # -------------------------------------------------------------- flows

    def _label(self, index: int, spec: FlowSpec) -> str:
        return spec.label if spec.label else f"{spec.kind}{index}"

    def _build_flow(self, index: int, spec: FlowSpec,
                    rng: SeededRNG) -> BuiltFlow:
        src, dst = self.network.pair(index)
        label = self._label(index, spec)
        if isinstance(spec, QAFlowSpec):
            return self._build_qa(index, spec, label, src, dst)
        if isinstance(spec, RapFlowSpec):
            return self._build_rap(index, spec, label, src, dst, rng)
        if isinstance(spec, TcpFlowSpec):
            return self._build_tcp(index, spec, label, src, dst, rng)
        if isinstance(spec, CbrFlowSpec):
            return self._build_cbr(index, spec, label, src, dst)
        raise TypeError(f"unknown flow spec: {spec!r}")

    def _collect_engine(self, registry: MetricsRegistry) -> None:
        registry.gauge(
            "engine_events_total", "Events executed by the simulator"
        ).set(float(self.sim.events_processed))
        registry.gauge(
            "engine_sim_time_seconds", "Current simulation clock"
        ).set(self.sim.now)

    def _build_qa(self, index: int, spec: QAFlowSpec, label: str,
                  src: Host, dst: Host) -> BuiltFlow:
        bus = TelemetryBus(self.sim,
                           enabled=self.config.telemetry,
                           recorder=self.recorder,
                           source=label)
        context = TraceContext.derive(self.config.seed, "trace", index)
        session = StreamingSession(
            self.sim, src, dst, spec.config,
            start=spec.start,
            sample_period=spec.sample_period,
            adapter_cls=spec.adapter_cls,
            transport_cls=spec.transport_cls,
            telemetry=bus,
            span_hook=self.spans.span_hook(label, context),
        )
        if spec.stop is not None:
            self.sim.schedule_at(spec.stop, session.stop, priority=0)
        if self.config.collect_metrics:
            self.metrics.register_collector(
                self._flow_collector(label, session))
        return BuiltFlow(index, spec, label, session.server.flow_id,
                         spec.start, session.server.rap,
                         sink=session.client, session=session)

    @staticmethod
    def _flow_collector(
        label: str, session: StreamingSession
    ) -> Callable[[MetricsRegistry], None]:
        """Collector gauging one QA flow's live state at export time."""
        adapter = session.server.adapter
        transport = session.server.rap

        def _collect(registry: MetricsRegistry) -> None:
            registry.gauge(
                "qa_active_layers", "Currently active layers",
                flow=label).set(float(adapter.active_layers))
            registry.gauge(
                "qa_total_buffer_bytes",
                "Estimated receiver buffering across active layers",
                flow=label).set(adapter.buffers.total(adapter.active_layers))
            registry.gauge(
                "qa_retransmitted_bytes",
                "Bytes re-sent for protected low layers",
                flow=label).set(adapter.retransmitted_bytes)
            registry.gauge(
                "transport_rate_bytes_per_sec",
                "Current transmission rate", flow=label).set(transport.rate)
            registry.gauge(
                "transport_backoffs_total", "AIMD halvings so far",
                flow=label).set(float(transport.stats.backoffs))
            registry.gauge(
                "transport_packets_lost_total", "Losses detected so far",
                flow=label).set(float(transport.stats.packets_lost))

        return _collect

    def _build_rap(self, index: int, spec: RapFlowSpec, label: str,
                   src: Host, dst: Host, rng: SeededRNG) -> BuiltFlow:
        srtt = (spec.srtt_init if spec.srtt_init is not None
                else rng.jittered(0.2, 0.25))
        start = (spec.start if spec.start is not None
                 else rng.uniform(0.0, 0.3))
        rap = RapSource(self.sim, src, dst.name,
                        packet_size=spec.packet_size,
                        srtt_init=srtt, start=start, stop=spec.stop)
        sink = RapSink(self.sim, dst, src.name, rap.flow_id)
        return BuiltFlow(index, spec, label, rap.flow_id, start, rap,
                         sink=sink)

    def _build_tcp(self, index: int, spec: TcpFlowSpec, label: str,
                   src: Host, dst: Host, rng: SeededRNG) -> BuiltFlow:
        start = (spec.start if spec.start is not None
                 else rng.uniform(0.0, 0.5))
        tcp = TcpSource(self.sim, src, dst.name,
                        packet_size=spec.packet_size,
                        start=start, stop=spec.stop)
        sink = TcpSink(self.sim, dst, src.name, tcp.flow_id)
        return BuiltFlow(index, spec, label, tcp.flow_id, start, tcp,
                         sink=sink)

    def _build_cbr(self, index: int, spec: CbrFlowSpec, label: str,
                   src: Host, dst: Host) -> BuiltFlow:
        cbr = CbrSource(self.sim, src, dst.name, rate=spec.rate,
                        packet_size=spec.packet_size,
                        start=spec.start, stop=spec.stop)
        sink = CbrSink(self.sim, dst, src.name, cbr.flow_id)
        return BuiltFlow(index, spec, label, cbr.flow_id, spec.start, cbr,
                         sink=sink)

    # ---------------------------------------------------------------- run

    def run(self) -> ScenarioResult:
        """Advance the clock to ``duration`` and collect all results."""
        self.sim.run(until=self.config.duration)
        return self.result()

    def result(self) -> ScenarioResult:
        duration = self.config.duration
        by_flow = self.monitor.bytes_by_flow
        delivered_bytes = [by_flow.get(built.flow_id, 0)
                           for built in self.flows]
        total = sum(delivered_bytes)
        flow_results: list[FlowResult] = []
        for built, delivered in zip(self.flows, delivered_bytes):
            session_result: Optional[SessionResult] = None
            if built.session is not None:
                session_result = built.session.result()
            flow_results.append(FlowResult(
                index=built.index,
                kind=built.kind,
                label=built.label,
                flow_id=built.flow_id,
                start=built.start,
                bytes_delivered=delivered,
                mean_rate=delivered / duration if duration > 0 else 0.0,
                share=delivered / total if total > 0 else 0.0,
                session=session_result,
            ))
        fairness = jain_index([f.mean_rate for f in flow_results])
        bottleneck = self.network.bottleneck
        return ScenarioResult(
            flows=flow_results,
            duration=duration,
            fairness=fairness,
            link_utilization=[bottleneck.bytes_forwarded
                              / (bottleneck.bandwidth * duration)],
        )

    def observability(self) -> dict[str, object]:
        """Manifest-ready summary of the run's observability sinks.

        Empty when both the recorder and the metrics registry are off —
        a disabled run must not grow new manifest keys.
        """
        out: dict[str, object] = {}
        if self.recorder.enabled:
            out["recorder"] = self.recorder.summary()
        if self.metrics.enabled:
            out["metrics"] = self.metrics.snapshot()
        if self.spans.enabled:
            out["spans"] = self.spans.summary()
        return out
