"""Shared workload builder: the paper's T1 and T2 tests.

T1 (section 5, Figure 11): one quality-adaptive RAP flow sharing a
bottleneck with 9 plain RAP flows and 10 Sack-TCP flows.

T2 (Figure 13): T1 plus a CBR source at half the bottleneck bandwidth,
switched on at t=30 s and off at t=60 s.

Calibration note (recorded in DESIGN.md section 6 and EXPERIMENTS.md):
the paper quotes an 800 Kb/s bottleneck for 20 flows, yet its figures
show the adaptive flow operating at 10-45 KB/s against C = 10 KB/s
layers. We keep the paper's flow mix and RTT but scale the bottleneck to
400 KB/s (3.2 Mb/s) and use C = 6.5 KB/s / 500-byte packets, which puts
the adaptive flow at the same *relative* operating point as the paper's
plots (hunting around three active layers). All experiments accept
overrides, so the literal 800 Kb/s setting is one argument away.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.config import QAConfig
from repro.core.metrics import QualityMetrics
from repro.scenario import (
    CbrFlowSpec,
    QAFlowSpec,
    RapFlowSpec,
    Scenario,
    ScenarioConfig,
    TcpFlowSpec,
)
from repro.server.session import SessionResult, StreamingSession
from repro.sim.rng import SeededRNG, derive_seed, make_rng
from repro.sim.topology import DumbbellConfig
from repro.transport import CbrSource, RapSource, TcpSource


@dataclass
class WorkloadConfig:
    """Everything that defines one T1/T2-style run."""

    # Quality adaptation
    k_max: int = 2
    layer_rate: float = 6500.0
    max_layers: int = 4
    packet_size: int = 500
    allocator: str = "optimal"
    add_rule: str = "buffer_only"
    feedback: str = "send"
    # Network
    bottleneck_bandwidth: float = 400_000.0
    queue_capacity: int = 100
    n_rap_background: int = 9
    n_tcp: int = 10
    # Run
    duration: float = 40.0
    seed: int = 1
    # CBR burst (T2); fraction 0 disables it
    cbr_fraction: float = 0.0
    cbr_start: float = 30.0
    cbr_stop: float = 60.0
    # Observability (off by default: golden runs record nothing)
    record_decisions: bool = False
    collect_metrics: bool = False
    trace_spans: bool = False

    def qa_config(self) -> QAConfig:
        return QAConfig(
            layer_rate=self.layer_rate,
            max_layers=self.max_layers,
            k_max=self.k_max,
            packet_size=self.packet_size,
            allocator=self.allocator,
            add_rule=self.add_rule,
            feedback=self.feedback,
        )

    @classmethod
    def t2(cls, **overrides) -> "WorkloadConfig":
        """The T2 (CBR burst, 90 s) variant."""
        overrides.setdefault("cbr_fraction", 0.5)
        overrides.setdefault("duration", 90.0)
        return cls(**overrides)

    def with_seed(self, seed: int) -> "WorkloadConfig":
        """This config with a different seed — the explicit path pooled
        collections use, so every run's seed shows up in one place."""
        return replace(self, seed=seed)


class PaperWorkload:
    """Builds and runs one T1/T2 experiment via the scenario layer.

    Per-flow parameters (initial SRTT estimates, start times) are
    jittered from the seed so different seeds give independent loss
    patterns while every run stays exactly reproducible. All randomness
    flows from ``config.seed`` through :func:`repro.sim.rng.make_rng`
    and (for components added later) :meth:`component_rng`; nothing
    depends on process identity or ``PYTHONHASHSEED``, which is what
    lets the parallel experiment runner farm runs out to worker
    processes and still get bit-for-bit the serial output.

    This class is now a thin facade over :class:`repro.scenario.Scenario`:
    it pre-draws the per-flow jitter in the historical order from
    ``self.rng`` into explicit spec fields (keeping every golden trace
    byte-identical), then hands the spec list to the builder. New
    experiments should use :class:`Scenario` directly.
    """

    def __init__(self, config: Optional[WorkloadConfig] = None,
                 adapter_cls=None, transport_cls=None,
                 **overrides) -> None:
        if config is None:
            config = WorkloadConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.config = config
        self.adapter_cls = adapter_cls
        self.transport_cls = transport_cls
        self.rng: SeededRNG = make_rng(config.seed)

        self.scenario = Scenario(self._scenario_config())
        self.sim = self.scenario.sim
        self.network = self.scenario.network
        self.session: StreamingSession = self.scenario.flows[0].session
        self.background_rap: list[RapSource] = [
            f.source for f in self.scenario.flows if f.kind == "rap"]
        self.background_tcp: list[TcpSource] = [
            f.source for f in self.scenario.flows if f.kind == "tcp"]
        cbr_flows = [f for f in self.scenario.flows if f.kind == "cbr"]
        self.cbr: Optional[CbrSource] = (
            cbr_flows[0].source if cbr_flows else None)
        # Scenario-owned observability sinks, surfaced for reports.
        self.recorder = self.scenario.recorder
        self.metrics = self.scenario.metrics

    # ------------------------------------------------------------- builders

    def _scenario_config(self) -> ScenarioConfig:
        """Translate the workload into flow specs.

        Jitter is drawn from ``self.rng`` here, in the exact order the
        pre-scenario builder consumed it (per background RAP: SRTT then
        start; per TCP: start), so seeds reproduce historical runs.
        """
        cfg = self.config
        flows: list = [QAFlowSpec(
            config=cfg.qa_config(),
            adapter_cls=self.adapter_cls,
            transport_cls=self.transport_cls,
            label="qa",
        )]
        for i in range(cfg.n_rap_background):
            flows.append(RapFlowSpec(
                packet_size=cfg.packet_size,
                srtt_init=self.rng.jittered(0.2, 0.25),
                start=self.rng.uniform(0.0, 0.3),
                label=f"rap{i}",
            ))
        for i in range(cfg.n_tcp):
            flows.append(TcpFlowSpec(
                start=self.rng.uniform(0.0, 0.5),
                label=f"tcp{i}",
            ))
        if cfg.cbr_fraction > 0:
            flows.append(CbrFlowSpec(
                rate=cfg.cbr_fraction * cfg.bottleneck_bandwidth,
                start=cfg.cbr_start,
                stop=cfg.cbr_stop,
                label="cbr",
            ))
        return ScenarioConfig(
            flows=tuple(flows),
            topology=DumbbellConfig(
                bottleneck_bandwidth=cfg.bottleneck_bandwidth,
                queue_capacity_packets=cfg.queue_capacity,
            ),
            duration=cfg.duration,
            seed=cfg.seed,
            record_decisions=cfg.record_decisions,
            collect_metrics=cfg.collect_metrics,
            trace_spans=cfg.trace_spans,
        )

    def component_rng(self, label: str) -> SeededRNG:
        """An independent, label-addressed child stream of this run's seed.

        Unlike drawing from ``self.rng`` (whose stream position depends
        on construction order), a labelled child is stable no matter what
        else is built — new components should take their randomness from
        here so adding one never perturbs existing flows.
        """
        return SeededRNG(derive_seed(self.config.seed, label))

    # ----------------------------------------------------------------- run

    def run(self) -> SessionResult:
        self.sim.run(until=self.config.duration)
        return self.session.result()

    def network_summary(self) -> dict:
        """Bottleneck-level sanity numbers for reports."""
        cfg = self.config
        link = self.network.bottleneck
        return {
            "bottleneck_utilization": (
                link.bytes_forwarded / (cfg.bottleneck_bandwidth
                                        * cfg.duration)),
            "bottleneck_drops": link.queue.drops,
            "qa_flow_rate": self.session.server.rap.rate,
        }


def pooled_metrics(seeds, build) -> QualityMetrics:
    """Run ``build(seed).run()`` per seed and pool the QA metrics.

    Single 40-second runs contain only a handful of drop events; Tables 1
    and 2 are reported over the pooled events of several seeds.
    """
    pooled = QualityMetrics()
    for seed in seeds:
        result = build(int(seed)).run()
        pooled.drops.extend(result.metrics.drops)
        pooled.adds.extend(result.metrics.adds)
        pooled.stall_count += result.playout.stall_count
        pooled.stall_time += result.playout.stall_time
    return pooled
