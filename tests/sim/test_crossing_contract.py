"""What ``first_crossing`` may assume, checked where it is called.

:func:`repro.core.fluid_solver.first_crossing` finds its grid cell by
binary search, which is only the cell a walk over the grid would stop
in if the residual's signs are monotone there. docs/MECHANISM.md §10
derives that for the add, empty and rule residuals; this test hooks the
solver inside live :class:`FluidEngine` runs and checks, per window,

(a) the contract: over grid points 0..63 the sign never changes
    downward (hence changes upward at most once) — ``hi`` is excluded,
    it may sit on a phase boundary in float dust of either sign;
(b) the result: equal, with ``==``, to :func:`specification` below — the
    definition, by brute force over all 65 points.

Skipped wholesale when hypothesis is not installed.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core import fluid_solver  # noqa: E402
from repro.core.config import QAConfig  # noqa: E402
from repro.core.fluid import ScriptedAimd  # noqa: E402
from repro.core.fluid_solver import SCAN_POINTS, TIME_TOLERANCE  # noqa: E402
from repro.sim.fluid import FluidEngine  # noqa: E402

solver = fluid_solver.first_crossing

#: Windows checked per run, after which the run is cut short. A
#: decision slope hundreds of times the scripted one under a low cap
#: adds and drops every few milliseconds (16 000 windows in 60 s); the
#: first few hundred say all they can.
CHECKED_WINDOWS = 400


class EnoughWindows(Exception):
    pass


def specification(residual, lo, hi):
    """The first grid point whose residual is >= 0, its cell bisected."""
    if hi <= lo:
        return None
    step = (hi - lo) / SCAN_POINTS
    grid = [lo + i * step for i in range(SCAN_POINTS)] + [hi]
    first = next((i for i, t in enumerate(grid) if residual(t) >= 0.0), None)
    if first is None:
        return None
    if first == 0:
        return lo
    a, b = grid[first - 1], grid[first]
    while b - a > TIME_TOLERANCE:
        mid = 0.5 * (a + b)
        a, b = (a, mid) if residual(mid) >= 0.0 else (mid, b)
    return b


def run_checked(patch, case) -> dict[str, int]:
    """Run one engine with every solver call checked; windows per caller."""
    windows: dict[str, int] = {}

    def checked(residual, lo, hi):
        if sum(windows.values()) >= CHECKED_WINDOWS:
            raise EnoughWindows
        name = residual.__name__
        windows[name] = windows.get(name, 0) + 1
        if hi > lo:
            step = (hi - lo) / SCAN_POINTS
            signs = [residual(lo + i * step) >= 0.0
                     for i in range(SCAN_POINTS)]
            assert signs == sorted(signs), (name, lo, hi, signs)
        got = solver(residual, lo, hi)
        assert got == specification(residual, lo, hi), (name, lo, hi)
        return got

    patch.setattr(fluid_solver, "first_crossing", checked)
    try:
        FluidEngine(case["config"], case["bandwidth"], case["duration"],
                    sample_period=None).run()
    except EnoughWindows:
        pass
    return windows


def build(layer_rate, max_layers, k_max, slope, override, cap, add_rule,
          startup_delay, duration, initial, backoffs):
    """One engine's arguments from the box's coordinates.

    ``override`` scales the scripted slope into ``slope_override``,
    ``cap`` and ``initial`` scale the full consumption
    ``max_layers * layer_rate``, ``backoffs`` are fractions of
    ``duration``.
    """
    full = layer_rate * max_layers
    max_rate = None if cap is None else cap * full
    rate = initial * full if max_rate is None else min(initial * full,
                                                       max_rate)
    config = QAConfig(
        layer_rate=layer_rate, max_layers=max_layers, k_max=k_max,
        packet_size=200, startup_delay=startup_delay, add_rule=add_rule,
        slope_override=None if override is None else override * slope)
    bandwidth = ScriptedAimd(
        rate, slope, backoff_times=sorted(f * duration for f in backoffs),
        max_rate=max_rate)
    return dict(config=config, bandwidth=bandwidth, duration=duration)


BOX = dict(
    layer_rate=st.sampled_from((1000.0, 2500.0, 5000.0)),
    max_layers=st.integers(1, 8),
    k_max=st.integers(1, 5),
    slope=st.sampled_from((50.0, 120.0, 400.0, 1000.0, 5000.0)),
    # Decision slope below, at and above the scripted one; above it the
    # rule residual reaches t_fill in float dust.
    override=st.sampled_from((None, 0.01, 0.2, 0.5, 2.0, 5.0, 50.0, 500.0)),
    # Below consumption ("drains forever"), around it, never reached.
    cap=st.sampled_from((None, 0.4, 0.8, 1.3, 2.5)),
    add_rule=st.sampled_from(("buffer_only", "buffer_and_rate")),
    startup_delay=st.sampled_from((0.0, 0.5, 2.0)),
    duration=st.sampled_from((20.0, 60.0, 120.0)),
    initial=st.floats(0.2, 2.0),
    backoffs=st.lists(st.floats(0.01, 0.99), max_size=20),
)

#: One case per region ISSUE 21 names, so the box provably holds them.
SCRIPT = [0.08, 0.2, 0.31, 0.33, 0.5, 0.62, 0.8, 0.93]
REGIONS = {
    "override_above": dict(override=5.0, cap=2.5,
                           add_rule="buffer_only", k_max=2),
    "override_below": dict(override=0.2, cap=2.5,
                           add_rule="buffer_only", k_max=2),
    "cap_below_consumption": dict(override=None, cap=0.4,
                                  add_rule="buffer_only", k_max=2),
    "buffer_and_rate": dict(override=None, cap=1.3,
                            add_rule="buffer_and_rate", k_max=3),
    "k_max_5": dict(override=None, cap=None,
                    add_rule="buffer_only", k_max=5),
}


def region(name):
    return dict(dict(layer_rate=2500.0, max_layers=6, slope=1000.0,
                     startup_delay=0.5, duration=60.0, initial=0.9,
                     backoffs=SCRIPT), **REGIONS[name])


@pytest.mark.parametrize("name", sorted(REGIONS))
def test_each_named_region_exercises_all_three_callers(monkeypatch, name):
    windows = run_checked(monkeypatch, build(**region(name)))
    assert set(windows) == {"residual", "rule_residual", "empty_residual"}


def _check(case) -> None:
    with pytest.MonkeyPatch.context() as patch:
        run_checked(patch, build(**case))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.fixed_dictionaries(BOX))
@example(case=region("override_above"))
@example(case=region("cap_below_consumption"))
def test_live_windows_meet_the_contract_fast(case):
    _check(case)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.fixed_dictionaries(BOX))
def test_live_windows_meet_the_contract_sweep(case):
    _check(case)


def test_two_upward_changes_are_out_of_contract():
    """Not silently handled: the search reports *a* crossing, and which
    one depends on where the probes land — the docstring says so."""
    def twice(t):
        return 1.0 if 1.0 <= t < 2.0 or t >= 60.0 else -1.0

    assert specification(twice, 0.0, 64.0) == pytest.approx(1.0)
    assert solver(twice, 0.0, 64.0) == pytest.approx(60.0)
