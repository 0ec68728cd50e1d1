"""Declarative multi-flow scenarios.

The paper's central claims — RAP+QA is TCP-friendly, and layered quality
adapts per flow — only show up when *many* flows share a bottleneck. A
:class:`Scenario` composes N quality-adaptive sessions plus cross
traffic (plain RAP, Sack-TCP, CBR) on one shared dumbbell bottleneck
from a declarative :class:`ScenarioConfig`:

- flow specs (:class:`QAFlowSpec`, :class:`RapFlowSpec`,
  :class:`TcpFlowSpec`, :class:`CbrFlowSpec`) with per-flow start/stop
  times; unset stochastic parameters (start jitter, initial SRTT) are
  drawn from a per-flow seed derived via :meth:`repro.sim.rng.SeededRNG.
  spawn`, so adding a flow never perturbs another flow's randomness;
- one shared :class:`~repro.telemetry.TelemetryBus` switch: headless
  scenarios (``telemetry=False``) schedule no samplers at all;
- a :class:`~repro.sim.flowmon.FlowMonitor` on the bottleneck, feeding
  the cross-flow metrics (per-flow throughput shares, Jain fairness,
  link utilization) in :class:`ScenarioResult`.

Flows are built strictly in list order — construction order is the
event-sequence tie-breaker, so a scenario is bit-for-bit reproducible
run to run and across the parallel experiment runner.

Scenarios are packet simulations only. The fluid models take a scripted
sawtooth, not a config: call :class:`repro.core.fluid.FluidRun`,
:class:`repro.sim.fluid.FluidEngine` or
:class:`repro.sim.fluid_batch.FlowClassBatch` directly.
"""

from repro.scenario.builder import Scenario
from repro.scenario.result import FlowResult, ScenarioResult
from repro.scenario.specs import (
    CbrFlowSpec,
    QAFlowSpec,
    RapFlowSpec,
    ScenarioConfig,
    TcpFlowSpec,
)

__all__ = [
    "Scenario",
    "ScenarioConfig",
    "ScenarioResult",
    "FlowResult",
    "QAFlowSpec",
    "RapFlowSpec",
    "TcpFlowSpec",
    "CbrFlowSpec",
]
