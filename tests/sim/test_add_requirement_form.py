"""The fluid add requirement bound once per window equals the per-call one.

:func:`repro.core.fluid_solver.add_requirement_form` binds what a window
holds fixed (the sequential triangle's bands through
:func:`repro.core.states.kmax_form`, condition 2's consumption
``(na + 1)*C`` and the base reserve); a probe then walks only the
``K_max`` rungs of its rate. :func:`fluid_solver.add_requirement` does
everything per call. They must agree with ``==``:

- on seeded ``(R, C, na, S, K_max)`` draws that cover ``k1 > K_max``,
  ``k1 = K_max``, ``k1 < K_max`` and ``na = 1`` (a fast subset here, the
  wide sweep under ``--run-slow``);
- at every probe of the add residual in the five
  ``tests/sim/test_fluid_engine.py::PINNED_RUNS`` scripts.
"""

from __future__ import annotations

import pytest

from repro.core import fluid_solver, formulas
from repro.core.config import QAConfig
from repro.core.states import kmax_form, kmax_targets
from repro.sim.rng import SeededRNG, derive_seed

from tests.sim.test_fluid_engine import PINNED_RUNS, behaviour, make_engine

#: Rates probed per bound form, as a window's probes are.
RATES_PER_WINDOW = 6


def draw_window(rng: SeededRNG) -> tuple[QAConfig, int, float, float]:
    """One window's ``(config, na, slope, base_reserve)``."""
    layer_rate = rng.choice((1000.0, 2500.0, 5000.0,
                             rng.uniform(100.0, 20_000.0)))
    max_layers = rng.randint(1, 8)
    config = QAConfig(layer_rate=layer_rate, max_layers=max_layers,
                      k_max=rng.randint(1, 5))
    return (config, rng.randint(1, max_layers),
            10.0 ** rng.uniform(0.5, 4.0),
            rng.choice((0.0, config.base_floor_bytes,
                        rng.uniform(0.0, 50_000.0))))


def check_draws(seed: int, windows: int) -> set[str]:
    """Compare both forms over ``windows`` seeded windows; return the
    ``k1`` regions and layer counts the draws reached."""
    rng = SeededRNG(derive_seed(seed, "add-requirement-form"))
    reached: set[str] = set()
    for _ in range(windows):
        config, na, slope, reserve = draw_window(rng)
        required = fluid_solver.add_requirement_form(config, na, slope,
                                                     reserve)
        targets_at = kmax_form(config.layer_rate, na, slope, config.k_max)
        consumption = na * config.layer_rate
        for _ in range(RATES_PER_WINDOW):
            # Around and far above the consumption: k1 from 1 to ~7.
            rate = consumption * 2.0 ** rng.uniform(-4.0, 7.0)
            want = fluid_solver.add_requirement(rate, config, na, slope,
                                                reserve)
            assert required(rate) == want, (config, na, slope, rate)
            assert tuple(targets_at(rate)) == kmax_targets(
                rate, config.layer_rate, na, slope, config.k_max)
            k1 = formulas.k1_backoffs(rate, consumption)
            reached.add("k1>K" if k1 > config.k_max
                        else "k1=K" if k1 == config.k_max else "k1<K")
            if na == 1:
                reached.add("na=1")
    return reached


REGIONS = {"k1>K", "k1=K", "k1<K", "na=1"}


def test_the_bound_form_equals_the_per_call_one_fast():
    assert check_draws(1, 400) == REGIONS


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(2, 6))
def test_the_bound_form_equals_the_per_call_one_wide(seed):
    assert check_draws(seed, 40_000) == REGIONS


@pytest.fixture
def probes(monkeypatch):
    """``[windows, probes]``: every add-residual requirement is checked
    against the per-call form as the engine asks for it."""
    seen = [0, 0]
    bind = fluid_solver.add_requirement_form

    def checked_form(config, na, slope, base_reserve):
        seen[0] += 1
        required = bind(config, na, slope, base_reserve)

        def checked(rate):
            seen[1] += 1
            got = required(rate)
            assert got == fluid_solver.add_requirement(
                rate, config, na, slope, base_reserve), (na, rate)
            return got

        return checked

    monkeypatch.setattr(fluid_solver, "add_requirement_form", checked_form)
    return seen


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_every_probe_of_a_pinned_run_agrees(probes, name):
    overrides, expected = PINNED_RUNS[name]
    result = make_engine(sample_period=None, **overrides).run()
    # The run still lands on its pinned floats with the checks in place.
    assert behaviour(result) == expected
    windows, checked = probes
    assert windows > 0 and checked > windows
