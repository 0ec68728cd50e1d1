"""How many residual evaluations ``first_crossing`` spends, pinned.

The §2.2/§3.1 algebra says each residual of :mod:`repro.sim.fluid`
changes sign upward at most once inside a window (docs/MECHANISM.md
§10), so the grid cell is found by binary search: an empty window costs
3 evaluations (``lo``, grid point 63, ``hi``), a found crossing at most
``3 + log2(64)`` before its bisection. A walk over the 64 grid points
is the per-window cost these counts keep out.
"""

from __future__ import annotations

import math

import pytest

from repro.core import fluid_solver
from repro.core.fluid import ScriptedAimd
from repro.core.fluid_solver import SCAN_POINTS, TIME_TOLERANCE
from repro.experiments.flock_scale import FAIR_SHARE, batch_config
from repro.sim.fluid import FluidEngine
from repro.sim.rng import SeededRNG, derive_seed

from tests.sim.test_fluid_engine import PINNED_RUNS, make_engine


@pytest.fixture
def calls(monkeypatch):
    """One ``(lo, hi, result, evaluations)`` per ``first_crossing`` call."""
    log: list[tuple[float, float, object, int]] = []
    solver = fluid_solver.first_crossing

    def counted(residual, lo, hi):
        spent = 0

        def probe(t):
            nonlocal spent
            spent += 1
            return residual(t)

        result = solver(probe, lo, hi)
        log.append((lo, hi, result, spent))
        return result

    monkeypatch.setattr(fluid_solver, "first_crossing", counted)
    return log


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_each_window_stays_inside_its_budget(calls, name):
    overrides, _ = PINNED_RUNS[name]
    make_engine(sample_period=None, **overrides).run()
    found = [call for call in calls
             if call[2] is not None and call[2] != call[0]]
    assert found and len(found) < len(calls)
    search = 3 + math.ceil(math.log2(SCAN_POINTS))
    for lo, hi, result, spent in calls:
        if result is None or result == lo:
            assert spent <= 3, (lo, hi, result)
        else:
            cell = (hi - lo) / SCAN_POINTS
            bisection = math.ceil(math.log2(cell / TIME_TOLERANCE))
            assert spent <= search + bisection + 1, (lo, hi, result)


def test_a_seeded_script_set_spends_a_pinned_total(calls):
    """``fluid_scalar``'s seed 1, pass 0 (150 flows, 120 s, 8 back-offs
    in [5, 115]); the 64-point walk spent 185 530 evaluations on it."""
    sub_seed = derive_seed(1, "bench-pass", 0)
    epochs = 0
    for i in range(150):
        rng = SeededRNG(derive_seed(sub_seed, "scalar-flow", i))
        script = sorted(rng.uniform(5.0, 115.0) for _ in range(8))
        epochs += FluidEngine(
            batch_config(),
            ScriptedAimd(FAIR_SHARE, 1000.0, backoff_times=script,
                         max_rate=2.5 * FAIR_SHARE),
            duration=120.0, sample_period=None).run().epochs
    assert (epochs, len(calls)) == (3341, 3423)
    assert sum(call[3] for call in calls) == 34_758
