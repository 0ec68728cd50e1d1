"""How many §4 state sequences, Appendix A ladders and rate walks a run
builds, pinned.

Only the draining planner walks a :class:`StateSequence`; the add
condition, the filling policy and the fluid split read the end of the
path from :func:`repro.core.states.kmax_targets`. A sequence built
anywhere else is the per-probe cost this count keeps out.

Every state comes from one kernel in :mod:`repro.core.states`: a
rate-free half that slices the sequential triangle, and a rate walk
that computes ``k1`` once (one ``k1_backoffs`` call per walk) and slices
the rungs up to ``K_max``. A filling decision builds exactly one ladder
(one walk), an add check at most one walk (none when it is refused
before the ``K_max`` targets), and no walk happens anywhere else. The
fluid add residual slices the sequential triangle once per window and
no rung above ``K_max`` at any probe.
"""

from __future__ import annotations

import pytest

from repro.core import filling, fluid_solver, formulas, states
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
    ``ladder()``, rate-free halves, band slices and ``k1_backoffs()``
    calls (one per rate walk)."""
    counts = {"built": 0, "refrozen": 0, "ladders": 0, "rate_free": 0,
              "slices": 0, "k1": 0}

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
    counted(states, "_rate_free", "rate_free")
    counted(formulas, "band_shares", "slices")
    counted(formulas, "k1_backoffs", "k1")
    return counts


@pytest.fixture
def walks_per_call(monkeypatch, calls):
    """Rate walks each filling decision, add check and sequence build
    made."""
    made = {"choose_target": [], "can_add": [], "kmax_margin": [],
            "__init__": []}

    def tallied(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            before = calls["k1"]
            try:
                return original(self, *args, **kwargs)
            finally:
                made[name].append(calls["k1"] - before)

        monkeypatch.setattr(cls, name, wrapper)

    tallied(FillingPolicy, "choose_target")
    tallied(AddDropPolicy, "can_add")
    tallied(AddDropPolicy, "kmax_margin")
    tallied(StateSequence, "__init__")
    return made


@pytest.fixture
def add_windows(monkeypatch):
    """``[windows, probes]`` of the fluid add residual, and the fluid
    split's calls."""
    seen = {"windows": 0, "probes": 0, "splits": 0}
    solver, split = fluid_solver.first_crossing, fluid_solver.split_total

    def crossing(residual, lo, hi):
        if residual.__name__ != "residual":
            return solver(residual, lo, hi)
        seen["windows"] += 1

        def probe(t):
            seen["probes"] += 1
            return residual(t)

        return solver(probe, lo, hi)

    def counted_split(*args):
        seen["splits"] += 1
        return split(*args)

    monkeypatch.setattr(fluid_solver, "first_crossing", crossing)
    monkeypatch.setattr(fluid_solver, "split_total", counted_split)
    return seen


def test_a_fluid_run_builds_no_sequence(calls, add_windows):
    k_max = 2
    rng = SeededRNG(derive_seed(3, "sequence-budget"))
    backoffs = sorted(rng.uniform(5.0, 55.0) for _ in range(6))
    result = FluidEngine(
        QAConfig(layer_rate=2500.0, max_layers=8, k_max=k_max),
        ScriptedAimd(20_000.0, 1000.0, backoff_times=backoffs,
                     max_rate=50_000.0),
        duration=60.0, sample_period=0.5).run()
    assert result.metrics.adds and result.epochs > len(backoffs)
    assert calls["built"] == 0
    # No ladder: the add residual and the split read the targets alone.
    assert calls["ladders"] == 0
    seen = add_windows
    assert seen["windows"] > 0 and seen["probes"] > 2 * seen["windows"]
    # The sequential triangle is sliced once per add window (not per
    # probe) and once per split; every probe and split is one walk.
    assert calls["rate_free"] == seen["windows"] + seen["splits"]
    assert calls["k1"] == seen["probes"] + seen["splits"]
    # A walk slices rungs 1..K_max and no more, even when k1 > K_max.
    assert calls["slices"] == calls["rate_free"] + k_max * calls["k1"]


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


def test_a_packet_run_walks_once_per_question(calls, walks_per_call):
    _packet_run()
    made = walks_per_call
    assert made["choose_target"] and set(made["choose_target"]) == {1}
    # An add check refused before the K_max targets, or a margin at the
    # layer ceiling, walks none.
    assert set(made["can_add"]) == {0, 1}
    assert set(made["kmax_margin"]) <= {0, 1}
    assert made["__init__"] and set(made["__init__"]) == {1}
    # No walk outside those questions; a ladder only where a filling
    # decision or a sequence needs its rungs.
    assert calls["k1"] == sum(map(sum, made.values()))
    assert calls["ladders"] == len(made["choose_target"]) + len(
        made["__init__"])
