"""Flow and scenario specifications.

Specs are frozen: a :class:`ScenarioConfig` fully describes a run before
anything touches the simulator, which is what makes scenarios cacheable,
comparable and safe to ship across process boundaries.

Stochastic per-flow parameters follow one convention: an explicit value
is used verbatim; ``None`` means "draw from this flow's own spawned RNG
stream" (see :meth:`repro.scenario.builder.Scenario._flow_rng`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.config import QAConfig
from repro.sim.topology import DumbbellConfig


@dataclass(frozen=True)
class QAFlowSpec:
    """One quality-adaptive streaming session (server + client)."""

    config: QAConfig = field(default_factory=QAConfig)
    start: float = 0.0
    stop: Optional[float] = None
    sample_period: float = 0.1
    label: Optional[str] = None
    #: Overrides for ablations (None -> the production classes).
    adapter_cls: Optional[type[object]] = None
    transport_cls: Optional[type[object]] = None

    kind = "qa"


@dataclass(frozen=True)
class RapFlowSpec:
    """A plain RAP flow (congestion-controlled background traffic)."""

    packet_size: int = 1000
    #: None -> jittered around 0.2 s from the flow's RNG.
    srtt_init: Optional[float] = None
    #: None -> uniform in [0, 0.3) s from the flow's RNG.
    start: Optional[float] = None
    stop: Optional[float] = None
    label: Optional[str] = None

    kind = "rap"


@dataclass(frozen=True)
class TcpFlowSpec:
    """A Sack-style TCP flow."""

    packet_size: int = 1000
    #: None -> uniform in [0, 0.5) s from the flow's RNG.
    start: Optional[float] = None
    stop: Optional[float] = None
    label: Optional[str] = None

    kind = "tcp"


@dataclass(frozen=True)
class CbrFlowSpec:
    """A constant-bit-rate source (unresponsive traffic)."""

    rate: float = 50_000.0
    packet_size: int = 1000
    start: float = 0.0
    stop: Optional[float] = None
    label: Optional[str] = None

    kind = "cbr"


FlowSpec = Union[QAFlowSpec, RapFlowSpec, TcpFlowSpec, CbrFlowSpec]


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete multi-flow run.

    Args:
        flows: flow specs, one simulated flow each, built in list order.
            Flow i occupies the dumbbell's source/sink slot i
            (``n_pairs`` in the topology config is overridden by
            ``len(flows)``).
        topology: the :class:`DumbbellConfig`.
        duration: simulated seconds.
        seed: master seed; per-flow streams are spawned from it.
        telemetry: False disables all per-session sampling and event
            logging (near-zero tracing cost).
        monitor_period: FlowMonitor throughput sampling period (seconds).
        record_decisions: True attaches a shared flight recorder so QA
            adapters and transports log causal decision records
            (independent of ``telemetry``: the causal log works even
            with time-series sampling off).
        collect_metrics: True attaches a shared metrics registry to the
            bottleneck link and the flows (counters/gauges/histograms).
        trace_spans: True attaches a shared
            :class:`~repro.telemetry.tracing.SpanRecorder` and gives
            every QA flow a deterministic trace context derived from
            ``seed`` and the flow index: adapter ticks and §2.2
            decision events land as spans, exportable through the
            Chrome-trace path alongside service-side traces.
    """

    flows: tuple[FlowSpec, ...] = ()
    topology: DumbbellConfig = field(default_factory=DumbbellConfig)
    duration: float = 40.0
    seed: int = 1
    telemetry: bool = True
    monitor_period: float = 1.0
    record_decisions: bool = False
    collect_metrics: bool = False
    trace_spans: bool = False

    def __post_init__(self) -> None:
        if not self.flows:
            raise ValueError("a scenario needs at least one flow")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
