"""The two lemmas ``FlowClassBatch.run`` leans on, and its write-backs.

A window tests a cheap condition before an expensive rule; both
shortcuts are exact, not close:

- **Add bound.** ``_add_requirement`` is a ``max`` whose first term is
  the K_max scenario-1 total, so that term, written here on its own, is
  ``<=`` the requirement for any input, and equal to it wherever
  scenario 1 is the dominant state.
- **Uncapped ramp.** When no flow can reach ``max_rate`` within a shared
  ``dt``, the capped integral's ``t_cap`` clips to ``dt`` and its plateau
  adds ``0.0``, so ``_ramp_area`` may take the uncapped form: equal to
  the capped expression spelled out here, bit for bit, on either path.

At N = 1 the batch's requirement is also pinned to the scalar forms:

- **Ladder pin.** ``_add_requirement`` is, bit for bit, the
  :func:`repro.core.states.ladder`'s ``max(total(S1, K_max),
  total(S2, K_max), condition 2)``: the batch's log2 ``k1`` and its
  clipped ``K_max - k1`` compose the same states as the scalar ladder.
- **One tick early, at most.** It never exceeds
  :func:`repro.core.fluid_solver.add_requirement` (no base reserve) by
  more than one ulp: the scalar form sums the per-layer ``K_max``
  targets, and where one state dominates every layer, the ``fsum`` of
  its shares can round one ulp below the state's closed-form total
  (302 of 20 000 uniform draws). Beyond that rounding, a batch flow may
  add before its scalar twin would, never after.

The scenarios at the end put a flow through two drops in one tick and
through an add in the window right after a drop, against the dense
oracle: the sparse ``na*C`` / ``buf - base_floor`` write-backs are what
the next rule, and the next window, read.

Skipped wholesale when hypothesis is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core import formulas, fluid_solver  # noqa: E402
from repro.core.config import QAConfig  # noqa: E402
from repro.core.states import ladder, state  # noqa: E402
from repro.sim.fluid_batch import FlowClassBatch  # noqa: E402

from tests.sim.test_fluid_batch import assert_same_arrays  # noqa: E402
from tests.sim.test_fluid_batch_equivalence import DenseBatch  # noqa: E402

SLOPES = (1e-3, 1.0, 200.0, 1000.0, 5000.0, 1e5)
NO_BACKOFFS = np.full((1, 1), np.inf)

FAST = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])
WIDE = settings(max_examples=2000, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def closed_forms(config: QAConfig, slope: float,
                 max_rate=None) -> FlowClassBatch:
    """A batch built only to call its closed forms."""
    return FlowClassBatch(config, 1, slope, 1.0, NO_BACKOFFS, 1.0,
                          max_rate=max_rate)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ------------------------------------------------------------- add bound

def check_add_bound(config, slope, rate, na) -> np.ndarray:
    """Assert the lemma; return where scenario 1 dominates."""
    required = closed_forms(config, slope)._add_requirement(rate, na)
    cons = na * config.layer_rate
    deficit = np.maximum(cons - rate / 2.0 ** config.k_max, 0.0)
    bound = deficit ** 2 / (2.0 * slope)
    assert np.all(bound <= required)
    # K_max halvings are needed (scenario 2 at K_max is scenario 1) and
    # condition 2 asks for no deeper a deficit.
    dominant = (rate >= cons * 2.0 ** (config.k_max - 1)) & (
        deficit >= np.maximum(cons + config.layer_rate - rate / 2.0, 0.0))
    assert same_bits(bound[dominant], required[dominant])
    return dominant


@st.composite
def add_points(draw):
    layer_rate = draw(st.sampled_from((1000.0, 2500.0)))
    max_layers = draw(st.integers(1, 8))
    config = QAConfig(layer_rate=layer_rate, max_layers=max_layers,
                      k_max=draw(st.integers(1, 5)))
    n = draw(st.integers(1, 32))
    rates = st.floats(0.0, 4.0 * max_layers * layer_rate)
    rate = np.array(draw(st.lists(rates, min_size=n, max_size=n)))
    na = np.array(draw(st.lists(st.integers(1, max_layers),
                                min_size=n, max_size=n)), dtype=np.int64)
    return config, draw(st.sampled_from(SLOPES)), rate, na


@FAST
@given(point=add_points())
def test_the_scenario_1_total_bounds_the_add_requirement_fast(point):
    check_add_bound(*point)


@pytest.mark.slow
@WIDE
@given(point=add_points())
def test_the_scenario_1_total_bounds_the_add_requirement_wide(point):
    check_add_bound(*point)


def test_the_bound_is_the_requirement_on_part_of_the_flock_range():
    # The flock class (C = 2500, K_max = 2) at four layers: scenario 1
    # dominates from R = 2*na*C up to where its deficit reaches zero.
    config = QAConfig(layer_rate=2500.0, max_layers=8, k_max=2)
    rate = np.linspace(0.0, 50_000.0, 401)
    dominant = check_add_bound(config, 1000.0, rate,
                               np.full(rate.size, 4, dtype=np.int64))
    assert dominant[rate == 20_000.0].all()
    assert 0 < dominant.sum() < rate.size


# ------------------------------------------------------------- ladder pin

def check_ladder_pin(config, slope, rate, na) -> None:
    """N = 1: the ladder's K_max requirement, and no more than the
    scalar fluid solver's."""
    got = closed_forms(config, slope)._add_requirement(
        np.array([rate]), np.array([na], dtype=np.int64))
    k_max = config.k_max
    built = ladder(rate, config.layer_rate, na, slope, k_max)
    want = max(state(built, formulas.SCENARIO_ONE, k_max)[0],
               state(built, formulas.SCENARIO_TWO, k_max)[0],
               formulas.one_backoff_requirement(
                   rate, config.consumption(na + 1), slope))
    assert same_bits(got, np.array([want]))
    scalar = fluid_solver.add_requirement(rate, config, na, slope,
                                          base_reserve=0.0)
    assert got[0] <= np.nextafter(scalar, np.inf)


@st.composite
def ladder_points(draw):
    layer_rate = draw(st.sampled_from((1000.0, 2500.0)))
    max_layers = draw(st.integers(1, 8))
    config = QAConfig(layer_rate=layer_rate, max_layers=max_layers,
                      k_max=draw(st.integers(1, 5)))
    # The ladder's k1 needs a positive rate.
    rate = draw(st.floats(1.0, 4.0 * max_layers * layer_rate))
    return (config, draw(st.sampled_from(SLOPES)), rate,
            draw(st.integers(1, max_layers)))


@FAST
@given(point=ladder_points())
def test_the_batch_requirement_is_the_ladder_s_at_one_flow_fast(point):
    check_ladder_pin(*point)


@pytest.mark.slow
@WIDE
@given(point=ladder_points())
def test_the_batch_requirement_is_the_ladder_s_at_one_flow_wide(point):
    check_ladder_pin(*point)


# ---------------------------------------------------------- uncapped ramp

def capped_area(r0, dt, slope, max_rate):
    t_cap = np.clip((max_rate - r0) / slope, 0.0, dt)
    return (r0 * t_cap + 0.5 * slope * t_cap * t_cap
            + max_rate * (dt - t_cap))


@st.composite
def ramps(draw):
    slope = draw(st.sampled_from(SLOPES))
    max_rate = draw(st.floats(1000.0, 50_000.0))
    dt = draw(st.sampled_from((0.0, 0.04, 0.1, 0.25, 0.5)))
    # Rates that leave the cap out of reach within dt, the boundary
    # rate itself, and (one draw in two) rates that do reach it.
    edge = max(max_rate - slope * dt, 0.0)
    top = edge if draw(st.booleans()) else 1.2 * max_rate
    rates = st.one_of(st.floats(0.0, top), st.just(edge))
    r0 = np.array(draw(st.lists(rates, min_size=1, max_size=16)))
    return slope, max_rate, dt, r0


def check_ramp(slope, max_rate, dt, r0) -> None:
    config = QAConfig(layer_rate=1000.0, max_layers=2, k_max=1)
    got = closed_forms(config, slope, max_rate)._ramp_area(r0, dt)
    assert same_bits(got, capped_area(r0, dt, slope, max_rate))


@FAST
@given(ramp=ramps())
def test_a_scalar_dt_ramp_equals_the_capped_expression_fast(ramp):
    check_ramp(*ramp)


@pytest.mark.slow
@WIDE
@given(ramp=ramps())
def test_a_scalar_dt_ramp_equals_the_capped_expression_wide(ramp):
    check_ramp(*ramp)


def test_the_boundary_flow_is_uncapped_and_a_float_above_it_is_capped():
    slope, max_rate, dt = 200.0, 50_000.0, 0.1
    edge = 49_980.0
    assert (max_rate - edge) / slope == dt
    above = np.nextafter(edge, np.inf)
    assert (max_rate - above) / slope < dt

    def uncapped(r0):
        return r0 * dt + 0.5 * slope * dt * dt

    for last, takes_uncapped in ((edge, True), (above, False)):
        r0 = np.array([20_000.0, last])
        # The float above the boundary is a case the uncapped form gets
        # wrong, so equality with the capped one shows the path taken.
        assert same_bits(uncapped(r0), capped_area(
            r0, dt, slope, max_rate)) == takes_uncapped
        check_ramp(slope, max_rate, dt, r0)


# ------------------------------------------------------------ write-backs

def after_windows(case: dict, windows: int) -> tuple[int, int, int]:
    """``(adds, drops, layers)`` of flow 0 after ``windows`` windows, with
    every result array checked against the dense oracle on the way."""
    case = dict(case, duration=windows * case["step"])
    result = FlowClassBatch(**case).run()
    assert_same_arrays(result, DenseBatch(**case).run())
    return (int(result.adds[0]), int(result.drops[0]),
            int(result.layers[0]))


def test_two_drops_in_one_tick_match_the_dense_oracle():
    # Four layers on a slow slope; the back-off at t = 8.5 halves the
    # rate and the tick at 8.75 sheds two layers at once: the second
    # pass reads the ``na*C`` and buffer the first one wrote. Flow 1 has
    # no back-off and keeps its layers.
    case = dict(
        config=QAConfig(layer_rate=1000.0, max_layers=4, k_max=1,
                        startup_delay=0.5, base_floor=0.0),
        n_flows=2, slope=200.0, initial_rate=3000.0,
        backoff_times=np.array([[8.0, 8.5, 9.0], [np.inf] * 3]),
        step=0.25, max_rate=8000.0)
    assert after_windows(case, 34) == (3, 0, 4)
    assert after_windows(case, 35) == (3, 2, 2)
    assert after_windows(case, 48)[1:] == (2, 2)


def test_an_add_in_the_window_after_a_drop_matches_the_dense_oracle():
    # Capped just under two layers' consumption: the second layer
    # drains the buffer to the base floor, is dropped there (window
    # 10), and one layer's surplus buys it back a window later — the
    # add reads the ``na*C`` the drop wrote, the next window's
    # consumption the one the add wrote.
    case = dict(
        config=QAConfig(layer_rate=1000.0, max_layers=2, k_max=1,
                        startup_delay=0.0, base_floor=0.5),
        n_flows=1, slope=8000.0, initial_rate=1900.0,
        backoff_times=NO_BACKOFFS, step=0.25, max_rate=1900.0)
    assert after_windows(case, 9) == (1, 0, 2)
    assert after_windows(case, 10) == (1, 1, 1)
    assert after_windows(case, 11) == (2, 1, 2)
    assert after_windows(case, 24) == (3, 2, 2)
