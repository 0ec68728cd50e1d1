"""Closed-form building blocks of the fluid fast path.

The paper's §2.2 analysis is stated over an idealized AIMD sawtooth: the
rate is piecewise linear, consumption is a constant ``na*C`` per phase,
and every buffering quantity is an area under those two curves. Between
*epochs* — backoffs, layer adds/drops, playout start, rate-cap
crossings — nothing discrete happens, so the whole state advances in
closed form:

- the rate is ``r(t) = min(r0 + S*(t - t0), max_rate)``;
- total receiver buffering integrates ``r(t) - na*C`` exactly
  (:func:`net_buffer_delta`), a piecewise quadratic in ``t``;
- the §2.1/§3.1 add condition and the §2.2 drop rule are scalar
  *residual* functions of ``t`` built from :mod:`repro.core.formulas`;
  their crossing instants are located by bracketing the residual on a
  coarse grid of closed-form evaluations and bisecting
  (:func:`first_crossing`) — no per-packet events anywhere. The
  bracket is a binary search: a caller owes it a residual that changes
  sign upward at most once inside the window (contract in its docstring).

:mod:`repro.sim.fluid` drives these helpers per flow. The §3.1 add
requirement and the split read the one Appendix A ladder
(:func:`repro.core.states.ladder`'s kernel, through ``kmax_targets``,
or bound once per window by :func:`add_requirement_form`);
:mod:`repro.sim.fluid_batch` composes the same ladder's ``K_max``
totals vectorized over numpy arrays for homogeneous flow classes, and
a property test pins the two bit for bit at N = 1. The packet-vs-fluid
differential harness (``tests/differential/``) pins the agreement of the
two backends on the paper-figure quantities.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core import formulas
from repro.core.config import QAConfig
from repro.core.states import kmax_form, kmax_targets

# Re-exported: every tolerance is defined once, in core.tolerances.
from repro.core.tolerances import TIME_TOLERANCE as TIME_TOLERANCE
from repro.core.units import Bytes, BytesPerSec, BytesPerSec2, Seconds

#: Default grid density for :func:`first_crossing`: the answer is
#: defined on this grid, whichever way its cell is found.
SCAN_POINTS = 64


def rate_at(anchor_rate: BytesPerSec, slope: BytesPerSec2,
            anchor_time: Seconds, t: Seconds,
            max_rate: Optional[BytesPerSec] = None) -> BytesPerSec:
    """The AIMD ramp ``r(t)`` from an anchor, optionally capped."""
    value: BytesPerSec = anchor_rate + slope * (t - anchor_time)
    if max_rate is not None:
        value = min(value, max_rate)
    return value


def ramp_integral(anchor_rate: BytesPerSec, slope: BytesPerSec2,
                  anchor_time: Seconds, t0: Seconds, t1: Seconds,
                  max_rate: Optional[BytesPerSec] = None) -> Bytes:
    """``∫ r(t) dt`` over ``[t0, t1]`` for the capped ramp, exactly.

    The ramp crosses its cap at most once; both segments integrate to
    trapezoid areas, so the result is exact (no quadrature).
    """
    if t1 <= t0:
        return 0.0
    r0 = rate_at(anchor_rate, slope, anchor_time, t0, max_rate)
    r1 = rate_at(anchor_rate, slope, anchor_time, t1, max_rate)
    if max_rate is None or r1 < max_rate - formulas.EPSILON:
        return 0.5 * (r0 + r1) * (t1 - t0)
    if r0 >= max_rate - formulas.EPSILON:
        return max_rate * (t1 - t0)
    # The ramp hits the cap inside the window: trapezoid + plateau.
    t_cap: Seconds = anchor_time + (max_rate - anchor_rate) / slope
    return (0.5 * (r0 + max_rate) * (t_cap - t0)
            + max_rate * (t1 - t_cap))


def net_buffer_delta(anchor_rate: BytesPerSec, slope: BytesPerSec2,
                     anchor_time: Seconds, consumption: BytesPerSec,
                     t0: Seconds, t1: Seconds,
                     max_rate: Optional[BytesPerSec] = None) -> Bytes:
    """Exact change of total buffering over ``[t0, t1]``.

    Valid only within one epoch: the layer count (hence ``consumption``)
    and the sawtooth anchor must not change inside the window.
    """
    sent = ramp_integral(anchor_rate, slope, anchor_time, t0, t1, max_rate)
    return sent - consumption * (t1 - t0)


def add_requirement(rate: BytesPerSec, config: QAConfig,
                    active_layers: int, slope: BytesPerSec2,
                    base_reserve: Bytes) -> Bytes:
    """Total buffering needed before a layer add is allowed at ``rate``.

    Mirrors :meth:`repro.core.add_drop.AddDropPolicy.can_add` for the
    ``buffer_only``/``buffer_and_rate`` rules under the fluid split
    (buffers distributed bottom-up toward their targets, see
    :func:`split_total`): every per-layer target of the ``K_max``
    sequence is met, and §2.1's condition 2 (one further backoff with
    the new layer) holds, exactly when the *total* clears this level.
    This per-call form is the reference; the fluid add residual binds
    :func:`add_requirement_form` once per window instead, which returns
    the same float at every rate (tested with ``==``).
    """
    targets = kmax_targets(
        rate, config.layer_rate, active_layers, slope, config.k_max)
    condition2 = formulas.one_backoff_requirement(
        rate, config.consumption(active_layers + 1), slope)
    return base_reserve + max(formulas.share_sum(targets), condition2)


def add_requirement_form(config: QAConfig, active_layers: int,
                         slope: BytesPerSec2, base_reserve: Bytes
                         ) -> Callable[[BytesPerSec], Bytes]:
    """:func:`add_requirement` bound for one window: ``rate -> bytes``.

    Everything but the rate is fixed while no epoch passes: the
    sequential triangle's bands (:func:`repro.core.states.kmax_form`),
    condition 2's consumption ``(na + 1)*C`` and the base reserve are
    bound here, once, so a probe only walks the ``K_max`` rungs of its
    rate.
    """
    targets_at = kmax_form(
        config.layer_rate, active_layers, slope, config.k_max)
    consumption = config.consumption(active_layers + 1)
    one_backoff, share_sum = (formulas.one_backoff_requirement,
                              formulas.share_sum)

    def required(rate: BytesPerSec) -> Bytes:
        return base_reserve + max(share_sum(targets_at(rate)),
                                  one_backoff(rate, consumption, slope))

    return required


def drop_margin(rate: BytesPerSec, consumption: BytesPerSec,
                slope: BytesPerSec2, drainable: Bytes) -> BytesPerSec:
    """The §2.2 drop inequality as a residual (fires at ``>= 0``).

    ``na*C - R >= sqrt(2*S*drainable)`` rearranged; both sides are B/s.
    """
    deficit: BytesPerSec = consumption - rate
    return deficit - formulas.drop_threshold(slope, drainable)


def split_total(total: Bytes, rate: BytesPerSec, config: QAConfig,
                active_layers: int, slope: BytesPerSec2) -> list[Bytes]:
    """Distribute a total fluid buffer across layers, base first.

    Approximates where the §4.1 filling policy would have put the data:
    the base layer first holds its stall-protection floor, then every
    layer fills bottom-up toward its ``K_max`` target
    (:func:`repro.core.states.kmax_targets`, plus the maintenance
    floor), and any excess parks in the base layer (§2.3: lower-layer
    buffering is the most efficient). The exact per-layer
    walk is packet-level detail; this split preserves the totals the
    drop rule reasons about and the base-first shape of Figure 5.
    """
    if active_layers < 1:
        return []
    path_rate: BytesPerSec = max(rate, config.consumption(active_layers))
    targets = kmax_targets(
        path_rate, config.layer_rate, active_layers, slope, config.k_max)
    caps: list[Bytes] = []
    for layer in range(active_layers):
        floor: Bytes = (config.base_floor_bytes if layer == 0
                        else config.floor_bytes)
        caps.append(targets[layer] + floor)
    levels = [0.0] * active_layers
    remaining: Bytes = max(0.0, total)
    for layer in range(active_layers):
        take: Bytes = min(remaining, caps[layer])
        levels[layer] = take
        remaining -= take
    levels[0] += remaining  # excess parks in the base layer
    return levels


def first_crossing(residual: Callable[[Seconds], float],
                   lo: Seconds, hi: Seconds,
                   points: int = SCAN_POINTS,
                   tol: Seconds = TIME_TOLERANCE) -> Optional[Seconds]:
    """Earliest ``t`` in ``(lo, hi]`` where ``residual(t) >= 0``.

    Defined on the grid ``lo + i*(hi - lo)/points`` with ``hi`` as its
    last point: the first non-negative grid point closes a cell, which
    is bisected to ``tol``; ``None`` when there is none. A residual
    already non-negative at ``lo`` reports ``lo`` (the event is due now).

    **Contract.** The window holds no epoch, and the residual changes
    sign upward *at most once strictly before* ``hi`` and never downward
    there (docs/MECHANISM.md §10 derives this for the three residuals of
    :mod:`repro.sim.fluid`). The cell is then found by binary search
    over the grid indices — 3 probes for an empty window. ``hi`` may sit
    on a phase boundary in float dust of either sign, so it is probed on
    its own and never rules out a crossing before it. A residual with
    two upward changes is out of contract: which one is reported is
    unspecified, not searched for.
    """
    if hi <= lo:
        return None
    if residual(lo) >= 0.0:
        return lo
    step: Seconds = (hi - lo) / points
    # Grid indices: ``below`` is known negative, ``above`` non-negative.
    below, above = 0, points - 1
    a, b = lo + above * step, hi
    if residual(a) >= 0.0:
        while above - below > 1:
            index = (below + above) // 2
            if residual(lo + index * step) >= 0.0:
                above = index
            else:
                below = index
        a, b = lo + below * step, lo + above * step
    elif residual(hi) < 0.0:
        return None
    # Bracketed in (a, b]: bisect.
    while b - a > tol:
        mid: Seconds = 0.5 * (a + b)
        if residual(mid) >= 0.0:
            b = mid
        else:
            a = mid
    return b


def conservation_error(sent: Bytes, consumed: Bytes, discarded: Bytes,
                       stalled: Bytes, buffered: Bytes) -> Bytes:
    """Byte-conservation residual of a fluid flow (should be ~0).

    Every sent byte is either still buffered, already consumed,
    discarded with a dropped layer, or was never consumed because the
    base layer stalled (the stall shortfall is accounted as consumption
    the receiver *wanted*; see ``FluidQAFlow``).
    """
    return sent - consumed - discarded - buffered + stalled
