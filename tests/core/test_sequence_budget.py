"""How many §4 state sequences a run builds, pinned.

Only the draining planner walks a :class:`StateSequence`; the add
condition, the filling policy and the fluid split read the end of the
path from :func:`repro.core.states.kmax_targets`. A sequence built
anywhere else is the per-probe cost this count keeps out.
"""

from __future__ import annotations

import pytest

from repro.core.adapter import QualityAdapter
from repro.core.config import QAConfig
from repro.core.fluid import ScriptedAimd
from repro.core.states import StateSequence
from repro.scenario import (
    QAFlowSpec,
    RapFlowSpec,
    Scenario,
    ScenarioConfig,
)
from repro.sim.fluid import FluidEngine
from repro.sim.rng import SeededRNG, derive_seed
from repro.sim.topology import DumbbellConfig


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``StateSequence()`` and ``_refreeze_sequence()`` calls."""
    counts = {"built": 0, "refrozen": 0}

    def counted(cls, name, key):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            counts[key] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(StateSequence, "__init__", "built")
    counted(QualityAdapter, "_refreeze_sequence", "refrozen")
    return counts


def test_a_fluid_run_builds_no_sequence(calls):
    rng = SeededRNG(derive_seed(3, "sequence-budget"))
    backoffs = sorted(rng.uniform(5.0, 55.0) for _ in range(6))
    result = FluidEngine(
        QAConfig(layer_rate=2500.0, max_layers=8, k_max=2),
        ScriptedAimd(20_000.0, 1000.0, backoff_times=backoffs,
                     max_rate=50_000.0),
        duration=60.0, sample_period=0.5).run()
    assert result.metrics.adds and result.epochs > len(backoffs)
    assert calls["built"] == 0


def test_a_packet_run_builds_one_sequence_per_refreeze(calls):
    scenario = Scenario(ScenarioConfig(
        flows=(QAFlowSpec(), QAFlowSpec(), RapFlowSpec()),
        topology=DumbbellConfig(bottleneck_bandwidth=40_000.0,
                                queue_capacity_packets=30),
        duration=15.0, seed=7))
    result = scenario.run()
    metrics = [flow.session.metrics for flow in result.qa_flows()]
    # The run filled, added, backed off and drained: every path that
    # used to build a sequence was taken.
    assert all(m.adds and m.drops for m in metrics)
    assert calls["refrozen"] > 0
    assert calls["built"] == calls["refrozen"]
