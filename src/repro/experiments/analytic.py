"""Figures 3, 4, 7-10, 14 and the non-linear layer ablation: arithmetic
on the Appendix A formulas over one worked example, so they read no runs.
"""

from __future__ import annotations

import math

from repro.analysis import format_kv, format_table
from repro.core import formulas, nonlinear
from repro.core.states import StateSequence
from repro.experiments import Results, artifact

R, C, S = 30_000.0, 6500.0, 8000.0


@artifact("fig03")
def fig03(results: Results) -> str:
    """Figure 3: filling/draining phase geometry (analytic).

    Reproduces the annotated sawtooth cycle: with ``na`` layers of rate C,
    slope S and pre-backoff rate R, the filling phase stores the area of
    triangle *abc* and the draining phase consumes the area of triangle
    *cde* = ``(na*C - R/2)^2 / (2S)``.
    """
    return format_kv(cycle_geometry(),
                     title="Figure 3: one congestion-control cycle")


def cycle_geometry(rate: float = R, layer_rate: float = C,
                   active_layers: int = 3, slope: float = S) -> dict:
    """Figure 3's cycle. The climb from the consumption rate up to
    ``rate`` lasts ``(rate - consumption)/S`` and stores the triangle
    above the consumption line (abc); the backoff then draws cde from
    the buffers."""
    consumption = active_layers * layer_rate
    return {
        "R_pre_backoff_Bps": rate,
        "consumption_na_C_Bps": consumption,
        "slope_S_Bps2": slope,
        "filling_phase_s": max(0.0, (rate - consumption) / slope),
        "filling_stored_bytes (triangle abc)": formulas.triangle_area(
            max(0.0, rate - consumption), slope),
        "draining_phase_s": formulas.drain_duration(
            consumption - rate / 2.0, slope),
        "draining_deficit_bytes (triangle cde)":
            formulas.one_backoff_requirement(rate, consumption, slope),
    }


@artifact("fig04")
def fig04(results: Results) -> str:
    """Figure 4: optimal single-backoff inter-layer buffer distribution.

    The draining-phase deficit triangle is sliced into horizontal bands of
    height C; the bottom (largest, longest-lived) band belongs to the base
    layer. This experiment prints the per-layer shares and verifies the
    figure's key properties: shares decrease with layer index, they sum to
    the whole triangle, and only ``nb`` layers need buffering.
    """
    shares, deficit, total, nb = optimal_allocation()
    rows = [(f"L{i}", share, 100.0 * share / total if total else 0)
            for i, share in enumerate(shares)]
    out = format_table(
        ("layer", "optimal share (bytes)", "% of total"), rows,
        title="Figure 4: optimal inter-layer buffer distribution "
        "(one backoff)")
    out += format_kv({
        "deficit_D0_Bps": deficit,
        "total_required_bytes": total,
        "min_buffering_layers_nb": nb,
    })
    return out


def optimal_allocation(rate: float = R, layer_rate: float = C,
                       active_layers: int = 4, slope: float = S) -> tuple:
    """Figure 4's numbers: the per-layer shares, the deficit
    ``D0 = na*C - R/2``, the triangle it spans and ``nb``."""
    deficit = active_layers * layer_rate - rate / 2.0
    shares = formulas.scenario_shares(
        rate, layer_rate, active_layers, slope, k=1,
        scenario=formulas.SCENARIO_ONE)
    return (shares, deficit, formulas.triangle_area(deficit, slope),
            formulas.min_buffering_layers(deficit, layer_rate))


@artifact("fig07")
def fig07(results: Results) -> str:
    """Figure 7: the possible double-backoff scenarios.

    Scenario 1: the second backoff follows immediately (both at the start of
    the draining phase). Scenario 2: the second backoff waits until the rate
    has climbed back to the consumption rate. Scenario 3: anything between.

    This experiment computes the total buffer requirement for the second
    backoff landing at every point of the first draining phase (numerically
    integrating the deficit), confirming the paper's claim that scenarios 1
    and 2 bracket all the intermediate cases: scenario 1 needs the most
    buffering *layers*, scenario 2 the most total buffering.
    """
    out = format_table(
        ("2nd backoff position (0=scen.1, 1=scen.2)",
         "required buffering (bytes)"),
        double_backoff_rows(),
        title="Figure 7: double-backoff scenarios")
    out += format_kv({
        f"analytic_scenario{scenario}_k2": formulas.scenario_total(
            R, 3 * C, S, k=2, scenario=scenario)
        for scenario in (formulas.SCENARIO_ONE, formulas.SCENARIO_TWO)
    })
    return out


def double_backoff_rows(rate: float = R, consumption: float = 3 * C,
                        slope: float = S, steps: int = 5) -> list[tuple]:
    """(position of the 2nd backoff, required bytes) across the first
    recovery, from scenario 1 (0) to scenario 2 (1)."""
    return [(i / steps, double_backoff_total(rate, consumption, slope,
                                             i / steps))
            for i in range(steps + 1)]


def double_backoff_total(rate: float, consumption: float, slope: float,
                         fraction: float, dt: float = 1e-3) -> float:
    """Bytes of buffering needed when the 2nd backoff lands ``fraction``
    of the way through the 1st recovery (0 = scenario 1, 1 = scenario 2).

    Numerical integration of the deficit ``consumption - rate(t)``:
    rate halves at t=0, climbs at S, halves again when it reaches
    ``rate/2 + fraction * (consumption - rate/2)``, climbs until it
    crosses consumption again.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    current = rate / 2.0
    trigger = current + fraction * max(0.0, consumption - current)
    total = 0.0
    halved = fraction <= 0.0
    if halved:
        current /= 2.0
    guard = int(1e7)
    while current < consumption and guard:
        total += max(0.0, consumption - current) * dt
        current += slope * dt
        if not halved and current >= trigger:
            current /= 2.0
            halved = True
        guard -= 1
    return total


@artifact("fig08")
def fig08(results: Results) -> str:
    """Figure 8: optimal buffer states for k backoffs, scenarios 1 and 2.

    For each k = 1..k_max the per-layer optimal allocation under both
    scenarios, illustrating the paper's observations: scenario 1 spreads
    buffering over more layers (deeper immediate deficit), scenario 2 needs
    more total buffering but concentrates it lower.
    """
    return format_table(
        ("scenario", "k", "total", *(f"L{i}" for i in range(4))),
        buffer_state_rows(),
        title=f"Figure 8: optimal buffer states (bytes), R={R:.0f}, "
        f"C={C:.0f}, na=4, S={S:.0f}")


def buffer_state_rows(rate: float = R, layer_rate: float = C,
                      active_layers: int = 4, slope: float = S,
                      k_max: int = 5) -> list[tuple]:
    consumption = active_layers * layer_rate
    return [
        (f"S{scenario}", k,
         round(formulas.scenario_total(rate, consumption, slope, k,
                                       scenario)),
         *(round(s) for s in formulas.scenario_shares(
             rate, layer_rate, active_layers, slope, k, scenario)))
        for k in range(1, k_max + 1)
        for scenario in (formulas.SCENARIO_ONE, formulas.SCENARIO_TWO)
    ]


@artifact("fig09")
def fig09(results: Results) -> str:
    """Figure 9: the buffer states ordered by total required buffering.

    The same states as Figure 8, sorted the way the filling phase traverses
    them. The interleaving of scenario-1 and scenario-2 states is parameter
    dependent (the paper's example shows S1k1, S2k1, S2k2, S1k2, ...); the
    experiment prints the realized order and flags where the raw per-layer
    shares would have required draining a buffer mid-filling -- the
    motivation for Figure 10's monotone path.
    """
    return format_table(
        ("state", "total", *(f"L{i}" for i in range(4)), "raw share dips"),
        state_order_rows(StateSequence(R, C, 4, S, 5)),
        title="Figure 9: states in increasing order of total "
        "buffering (bytes)")


def state_order_rows(sequence: StateSequence) -> list[tuple]:
    out = []
    previous = None
    for state in sequence:
        dips = "" if previous is None else ",".join(
            f"L{i}" for i, (a, b) in enumerate(zip(previous.shares,
                                                   state.shares))
            if b < a - 1e-6)
        out.append((state.label(), round(state.total),
                    *(round(s) for s in state.shares), dips))
        previous = state
    return out


@artifact("fig10")
def fig10(results: Results) -> str:
    """Figure 10: the step-by-step monotone filling sequence.

    The effective per-layer targets along the maximally efficient path: the
    same ordered states as Figure 9, but with the monotonicity constraint
    applied so no layer's target ever decreases (nothing drains during a
    filling phase). The experiment prints both the targets and, per state,
    how much the constraint lifted each layer above its raw optimal share.
    """
    return format_table(
        ("step", "state", "eff. total", *(f"L{i}" for i in range(4)),
         "layers lifted"),
        filling_step_rows(StateSequence(R, C, 4, S, 5)),
        title="Figure 10: monotone filling targets along the "
        "maximally efficient path (bytes)")


def filling_step_rows(sequence: StateSequence) -> list[tuple]:
    return [
        (step, state.label(), round(state.effective_total),
         *(round(s) for s in state.effective_shares),
         sum(1 for raw, eff in zip(state.shares, state.effective_shares)
             if eff > raw + 1e-6))
        for step, state in enumerate(sequence)
    ]


@artifact("fig14")
def fig14(results: Results) -> str:
    """Figure 14 (appendix): Buf_total geometry for scenario 2.

    ``k1`` immediate backoffs push the rate just below the consumption rate;
    the remaining ``k - k1`` backoffs then occur sequentially, each costing
    one identical triangle of height consumption/2. The experiment tabulates
    the decomposition and cross-checks it against the closed form.
    """
    consumption, k = 3 * C, 4
    k1 = formulas.k1_backoffs(R, consumption)
    first = formulas.triangle_area(
        formulas.deficit_after_backoffs(R, consumption, k1), S)
    sequential = formulas.triangle_area(consumption / 2.0, S)
    rows = [("first triangle (k1 immediate backoffs)", first)]
    rows += [(f"sequential triangle {i + 1}", sequential)
             for i in range(max(0, k - k1))]
    out = format_table(("component", "bytes"), rows,
                       title="Figure 14: scenario-2 decomposition")
    out += format_kv({
        "k": k,
        "k1 (backoffs to cross consumption)": k1,
        "sum_of_components": first + max(0, k - k1) * sequential,
        "closed_form_total": formulas.scenario_total(
            R, consumption, S, k, formulas.SCENARIO_TWO),
    })
    return out


@artifact("ablation-nonlinear")
def ablation_nonlinear(results: Results) -> str:
    """Ablation: non-linear layer spacing (section 7 future work).

    The paper's analysis assumes linearly spaced layers and defers
    "quality adaptation with a non-linear distribution of bandwidth among
    layers" to future work. This experiment works out the analytic side of
    that extension with :mod:`repro.core.nonlinear`: for the same *total*
    consumption rate, how does the optimal buffer distribution change when
    the layer ladder is geometric (fat base, thin enhancements) instead of
    linear?

    Findings the table shows (asserted by the tests):

    - the totals are identical -- the deficit triangle only depends on the
      total consumption rate;
    - the fat-base ladder needs *fewer* buffering layers (the base alone
      covers more of the deficit), concentrating buffering even more in the
      base layer;
    - under the drop rule, thin top layers are shed in bunches: dropping a
      thin enhancement frees little consumption, so deep deficits cut
      deeper into the ladder.
    """
    ladders = layer_ladders()
    linear = ladders["linear"]
    out = format_table(
        ("spacing", "k", "total (B)", "nb",
         *(f"L{i}" for i in range(len(linear)))),
        ladder_share_rows(ladders),
        title="Ablation: optimal shares, linear vs geometric layer "
        "spacing (same total rate)")
    out += format_table(
        ("spacing", "post-backoff rate", "layers kept"),
        ladder_drop_rows(ladders),
        title="Drop rule under deep deficits (2 KB buffered)")
    out += format_kv({
        "linear_rates": ", ".join(f"{r:.0f}" for r in linear),
        "geometric_rates": ", ".join(f"{r:.0f}"
                                     for r in ladders["geometric"]),
        "total_rate": math.fsum(linear),
    })
    return out


def layer_ladders(total_rate: float = 26_000.0, n_layers: int = 4,
                  ratio: float = 0.5) -> dict[str, tuple[float, ...]]:
    """Linear and geometric per-layer rates with the same total."""
    geo = nonlinear.geometric_rates(1.0, n_layers, ratio)
    scale = total_rate / math.fsum(geo)
    return {"linear": tuple([total_rate / n_layers] * n_layers),
            "geometric": tuple(g * scale for g in geo)}


def ladder_share_rows(ladders: dict, rate: float = R,
                      slope: float = S) -> list[tuple]:
    out = []
    for label, rates in ladders.items():
        for k in (1, 2):
            shares = nonlinear.scenario_shares(rate, rates, slope, k,
                                               formulas.SCENARIO_ONE)
            out.append((label, k, round(math.fsum(shares)),
                        sum(1 for s in shares if s > 0),
                        *(round(s) for s in shares)))
    return out


def ladder_drop_rows(ladders: dict, slope: float = S) -> list[tuple]:
    """Layers kept after a backoff to 75/50/25 % of the ladder's total."""
    out = []
    for label, rates in ladders.items():
        for post_rate_frac in (0.75, 0.5, 0.25):
            post = post_rate_frac * math.fsum(rates)
            out.append((label, round(post), nonlinear.layers_to_keep(
                post, 2_000.0, rates, slope)))
    return out
