"""How many §4 state sequences and Appendix A ladders a run builds, pinned.

Only the draining planner walks a :class:`StateSequence`; the add
condition, the filling policy and the fluid split read the end of the
path from :func:`repro.core.states.kmax_targets`. A sequence built
anywhere else is the per-probe cost this count keeps out.

Every state comes from one :func:`repro.core.states.ladder`, which
computes ``k1`` once: a filling decision builds exactly one ladder, an
add check at most one (none when it is refused before the ``K_max``
targets), and no ladder is built anywhere else.
"""

from __future__ import annotations

import pytest

from repro.core import filling, formulas, states
from repro.core.adapter import QualityAdapter
from repro.core.add_drop import AddDropPolicy
from repro.core.config import QAConfig
from repro.core.filling import FillingPolicy
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
    """Counts of ``StateSequence()``, ``_refreeze_sequence()``,
    ``ladder()`` and ``k1_backoffs()`` calls."""
    counts = {"built": 0, "refrozen": 0, "ladders": 0, "k1": 0}

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(StateSequence, "__init__", "built")
    counted(QualityAdapter, "_refreeze_sequence", "refrozen")
    # The ladder under both names it is called by.
    counted(states, "ladder", "ladders")
    counted(filling, "ladder", "ladders")
    counted(formulas, "k1_backoffs", "k1")
    return counts


@pytest.fixture
def ladders_per_call(monkeypatch, calls):
    """Ladders each filling decision, add check and sequence build made."""
    made = {"choose_target": [], "can_add": [], "kmax_margin": [],
            "__init__": []}

    def tallied(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            before = calls["ladders"]
            try:
                return original(self, *args, **kwargs)
            finally:
                made[name].append(calls["ladders"] - before)

        monkeypatch.setattr(cls, name, wrapper)

    tallied(FillingPolicy, "choose_target")
    tallied(AddDropPolicy, "can_add")
    tallied(AddDropPolicy, "kmax_margin")
    tallied(StateSequence, "__init__")
    return made


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
    assert calls["ladders"] > 0
    assert calls["k1"] == calls["ladders"]


def _packet_run():
    scenario = Scenario(ScenarioConfig(
        flows=(QAFlowSpec(), QAFlowSpec(), RapFlowSpec()),
        topology=DumbbellConfig(bottleneck_bandwidth=40_000.0,
                                queue_capacity_packets=30),
        duration=15.0, seed=7))
    return scenario.run()


def test_a_packet_run_builds_one_sequence_per_refreeze(calls):
    result = _packet_run()
    metrics = [flow.session.metrics for flow in result.qa_flows()]
    # The run filled, added, backed off and drained: every path that
    # used to build a sequence was taken.
    assert all(m.adds and m.drops for m in metrics)
    assert calls["refrozen"] > 0
    assert calls["built"] == calls["refrozen"]


def test_a_packet_run_builds_one_ladder_per_question(calls,
                                                    ladders_per_call):
    _packet_run()
    made = ladders_per_call
    assert made["choose_target"] and set(made["choose_target"]) == {1}
    # An add check refused before the K_max targets, or a margin at the
    # layer ceiling, builds none.
    assert set(made["can_add"]) == {0, 1}
    assert set(made["kmax_margin"]) <= {0, 1}
    assert made["__init__"] and set(made["__init__"]) == {1}
    # No ladder outside those questions, and one k1 per ladder.
    assert calls["ladders"] == sum(map(sum, made.values()))
    assert calls["k1"] == calls["ladders"]
