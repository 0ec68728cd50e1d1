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
from functools import cached_property
from typing import Callable, Hashable, Mapping, NamedTuple, Optional

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
from repro.sim.rng import SeededRNG, make_rng
from repro.sim.topology import DumbbellConfig


@dataclass(frozen=True)
class WorkloadConfig:
    """Everything that defines one T1/T2-style run.

    Frozen, so a config is a hashable run key: two artifacts asking for
    equal configs share one simulation.
    """

    # Quality adaptation
    k_max: int = 2
    layer_rate: float = 6500.0
    max_layers: int = 4
    packet_size: int = 500
    allocator: str = "optimal"
    add_rule: str = "buffer_only"
    feedback: str = "send"
    retransmit_layers: int = 0
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
            retransmit_layers=self.retransmit_layers,
        )

    @classmethod
    def t2(cls, **overrides) -> "WorkloadConfig":
        """The T2 (CBR burst, 90 s) variant."""
        overrides.setdefault("cbr_fraction", 0.5)
        overrides.setdefault("duration", 90.0)
        return cls(**overrides)


class PaperWorkload:
    """Builds and runs one T1/T2 experiment via the scenario layer.

    Per-flow parameters (initial SRTT estimates, start times) are
    jittered from the seed so different seeds give independent loss
    patterns while every run stays exactly reproducible. All randomness
    flows from ``config.seed`` through :func:`repro.sim.rng.make_rng`;
    nothing depends on process identity or ``PYTHONHASHSEED``, which is
    what lets the parallel experiment runner farm runs out to worker
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
        self.session: StreamingSession = self.scenario.flows[0].session

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

    # ----------------------------------------------------------------- run

    def run(self) -> SessionResult:
        self.scenario.sim.run(until=self.config.duration)
        return self.session.result()

    def network_summary(self) -> dict:
        """Bottleneck-level sanity numbers for reports."""
        cfg = self.config
        link = self.scenario.network.bottleneck
        return {
            "bottleneck_utilization": (
                link.bytes_forwarded / (cfg.bottleneck_bandwidth
                                        * cfg.duration)),
            "bottleneck_drops": link.queue.drops,
            "qa_flow_rate": self.session.server.rap.rate,
        }


class PaperOutcome(NamedTuple):
    """What one :class:`PaperRun` hands its renderers."""

    session: SessionResult
    network: dict
    retransmitted: float


@dataclass(frozen=True)
class PaperRun:
    """One :class:`PaperWorkload` simulation as a run key.

    Equal keys are the same simulation, so the runner executes each once
    however many artifacts read it; the key pickles, so it can cross to
    a worker process and its outcome can come back.
    """

    config: WorkloadConfig
    adapter_cls: Optional[type] = None
    transport_cls: Optional[type] = None

    @property
    def seed(self) -> int:
        return self.config.seed

    def execute(self) -> PaperOutcome:
        workload = PaperWorkload(self.config, adapter_cls=self.adapter_cls,
                                 transport_cls=self.transport_cls)
        session = workload.run()
        return PaperOutcome(session, workload.network_summary(),
                            workload.session.server.adapter
                            .retransmitted_bytes)


class Pooled:
    """Several runs pooled: the one rule Tables 1-2 and the ablations
    share.

    Single 40-second runs contain only a handful of drop events, so the
    tables pool the QA events of several seeds (:attr:`metrics`); the
    ablations sum or average ``summary()`` fields over the same seeds.
    """

    def __init__(self, items: list[tuple[PaperRun, PaperOutcome]]) -> None:
        self.items = items

    @cached_property
    def summaries(self) -> list[dict]:
        return [outcome.session.summary() for _, outcome in self.items]

    def total(self, field: str) -> float:
        return sum(summary[field] for summary in self.summaries)

    def mean(self, field: str) -> float:
        return self.total(field) / len(self.items)

    @cached_property
    def metrics(self) -> QualityMetrics:
        pooled = QualityMetrics()
        for _, outcome in self.items:
            result = outcome.session
            pooled.drops.extend(result.metrics.drops)
            pooled.adds.extend(result.metrics.adds)
            pooled.stall_count += result.playout.stall_count
            pooled.stall_time += result.playout.stall_time
        return pooled


def pool_by(results: Mapping[PaperRun, PaperOutcome],
            label: Callable[[PaperRun], Hashable]) -> dict:
    """``results`` grouped by ``label(run)``, in first-seen order."""
    groups: dict = {}
    for run, outcome in results.items():
        groups.setdefault(label(run), []).append((run, outcome))
    return {key: Pooled(items) for key, items in groups.items()}
