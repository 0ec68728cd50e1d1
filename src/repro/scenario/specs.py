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
from repro.sim.parking_lot import ParkingLotConfig
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
class ScriptedQAFlowSpec:
    """A QA session driven by a scripted AIMD sawtooth, not a transport.

    This is the spec both backends agree on exactly: the rate trajectory
    is fully determined (climb at ``slope``, halve at ``backoff_times``),
    so the packet backend replays it through the real adapter
    (:class:`repro.core.fluid.FluidRun`) while the fluid backend solves
    it analytically (:class:`repro.sim.fluid.FluidEngine`). The
    differential harness compares the two. Trajectories are anchored at
    t=0 and run for the whole scenario; under the packet backend the
    flow occupies a host slot but its quanta never traverse the
    topology (it is a replay, not a contender).
    """

    config: QAConfig = field(default_factory=QAConfig)
    initial_rate: float = 10_000.0
    slope: float = 1_000.0
    backoff_times: tuple[float, ...] = ()
    max_rate: Optional[float] = None
    sample_period: float = 0.02
    label: Optional[str] = None

    kind = "scripted_qa"

    def __post_init__(self) -> None:
        if self.initial_rate <= 0 or self.slope <= 0:
            raise ValueError("initial_rate and slope must be positive")


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


FlowSpec = Union[QAFlowSpec, ScriptedQAFlowSpec, RapFlowSpec, TcpFlowSpec,
                 CbrFlowSpec]

TopologyConfig = Union[DumbbellConfig, ParkingLotConfig]


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete multi-flow run.

    Args:
        flows: flow specs, one simulated flow each, built in list order.
            On a dumbbell, flow i occupies source/sink slot i (``n_pairs``
            in the topology config is overridden by ``len(flows)``). On a
            parking lot, flow 0 is the end-to-end pair and flow i >= 1 is
            the hop-(i-1) cross pair (so ``len(flows) == n_hops + 1``).
        topology: a :class:`DumbbellConfig` or :class:`ParkingLotConfig`.
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
            backbone links and flows (counters/gauges/histograms).
        trace_spans: True attaches a shared
            :class:`~repro.telemetry.tracing.SpanRecorder` and gives
            every QA flow a deterministic trace context derived from
            ``seed`` and the flow index: adapter ticks and §2.2
            decision events land as spans, exportable through the
            Chrome-trace path alongside service-side traces.
        backend: ``"packet"`` builds the discrete-event simulation
            (:class:`repro.scenario.builder.Scenario`); ``"fluid"``
            solves the same spec analytically
            (:class:`repro.scenario.fluid.FluidScenario`). The fluid
            backend accepts only :class:`ScriptedQAFlowSpec` flows —
            transport-coupled kinds need real packets. Dispatch via
            :func:`repro.scenario.run_scenario`.
    """

    flows: tuple[FlowSpec, ...] = ()
    topology: TopologyConfig = field(default_factory=DumbbellConfig)
    duration: float = 40.0
    seed: int = 1
    telemetry: bool = True
    monitor_period: float = 1.0
    record_decisions: bool = False
    collect_metrics: bool = False
    trace_spans: bool = False
    backend: str = "packet"

    def __post_init__(self) -> None:
        if not self.flows:
            raise ValueError("a scenario needs at least one flow")
        if self.backend not in ("packet", "fluid"):
            raise ValueError(
                f"backend must be 'packet' or 'fluid', got "
                f"{self.backend!r}")
        if self.backend == "fluid":
            bad = [s.kind for s in self.flows if s.kind != "scripted_qa"]
            if bad:
                raise ValueError(
                    "the fluid backend only runs scripted_qa flows; "
                    f"got kinds {sorted(set(bad))}")
        if isinstance(self.topology, ParkingLotConfig):
            want = self.topology.n_hops + 1
            if len(self.flows) != want:
                raise ValueError(
                    f"parking-lot scenario needs exactly {want} flows "
                    f"(1 end-to-end + {self.topology.n_hops} cross), "
                    f"got {len(self.flows)}"
                )
        if self.duration <= 0:
            raise ValueError("duration must be positive")
