"""FlowClassBatch: one numpy program simulating thousands of QA flows.

The per-flow :class:`~repro.sim.fluid.FluidEngine` is exact between
epochs but advances one flow at a time. For population questions —
Chen-style admission control, fairness at scale — the bottleneck is flow
*count*, and the flows of interest form homogeneous classes: same
mechanism config, same AIMD slope, per-flow differences confined to the
sawtooth script (initial rate, backoff phase). This module vectorizes
that class: all per-flow state lives in float64 arrays and one
fixed-step loop advances every flow at once, so 10k flows cost a few
hundred numpy passes instead of 10k event-driven runs.

Fidelity tier (documented in docs/MECHANISM.md): the batch evaluates
add/drop decisions at window boundaries (``step`` seconds — the same
cadence the packet adapter's ``drain_period`` tick uses) and replaces
two per-flow exact forms with vectorized bounds:

- the add requirement uses the dominant ``K_max`` state's *total*
  (closed form via the ``k1`` halving count) instead of the per-layer
  running-max split; at N = 1 it is, bit for bit, the
  :func:`repro.core.states.ladder`'s ``max(total(S1, K_max),
  total(S2, K_max), condition 2)`` and never above the scalar
  requirement by more than one ulp of its share sum
  (``tests/sim/test_fluid_batch_bounds.py``, the ladder pin);
- a dropped layer discards at most its maintenance floor (top layers
  drain first; the per-flow engine computes the exact split share).

Everything else — capped-ramp integrals, the §2.2 drop inequality,
stall bookkeeping — is the same closed forms as the scalar engine,
applied elementwise. One class means one rule: the buffer-only add at
the scripted ``slope``; a config asking for another ``add_rule`` or a
``slope_override`` is rejected, not simulated as something else. Flows
never interact, so results are independent of batch partitioning:
running a class in two halves and concatenating is bit-identical to one
batch (the seed-split differential test).

A window does dense work only where every flow needs it — one ramp
across the window, the consumption/stall bookkeeping — and puts before
each rule the cheapest condition that can rule it out: the ramp is split
and halved only for flows whose next scripted backoff falls inside the
window; the drop rule is one comparison over every flow, then over those
that just fired; the add requirement is computed for the flows that hold
its first term (a term of a ``max``, so an exact lower bound) and are
filling under the layer ceiling. ``na*C`` is state, written where a
layer is added or dropped. Windows tile ``[0, duration]``; the last one
is shorter when ``duration`` is not a multiple of ``step``.

numpy loads when the first ``FlowClassBatch`` is built, not when this
module is imported: a process that builds no batch never pays for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core import formulas
from repro.core.config import QAConfig
from repro.sim.flowmon import jain_index
from repro.sim.rng import SeededRNG, derive_seed

if TYPE_CHECKING:
    import numpy as np

#: Decision cadence when the caller does not pick one: the packet
#: adapter's default drain_period, so batch decision lag matches tick lag.
DEFAULT_STEP = 0.1


def _load_numpy() -> None:
    """Bind the module's ``np`` (a no-op after the first batch)."""
    global np
    import numpy as np


def scripted_backoffs(seed: int, flow_index: int, duration: float,
                      mean_interval: float, min_gap: float,
                      jitter: float = 0.3) -> list[float]:
    """A deterministic per-flow backoff script.

    Seeding goes through :func:`repro.sim.rng.derive_seed` keyed by the
    flow's *index*, never by batch position — the property that makes a
    sub-batch's flow ``i`` identical to the full batch's flow ``i``.
    ``min_gap`` must be at least twice the batch step so no window holds
    two backoffs.
    """
    rng = SeededRNG(derive_seed(seed, "fluid-batch-flow", flow_index))
    times: list[float] = []
    t = mean_interval * (0.2 + 0.8 * rng.random())
    while t < duration:
        times.append(t)
        gap = mean_interval * (1.0 + jitter * (2.0 * rng.random() - 1.0))
        t += max(min_gap, gap)
    return times


#: Flows whose uniforms :func:`backoff_table` draws per pass: bounds the
#: pass's word buffer and temporaries, not the result.
_TABLE_ROWS = 1024
#: CPython's ``random()``: ``(a * 2**26 + b) * 2**-53`` from the top 27
#: and 26 bits of two consecutive 32-bit Mersenne Twister outputs.
_HIGH_SCALE = 67108864.0
_UNIT = 1.0 / 9007199254740992.0


def backoff_table(seed: int, n_flows: int, duration: float,
                  mean_interval: float, min_gap: float,
                  jitter: float = 0.3) -> np.ndarray:
    """Flows ``0..n_flows-1``'s :func:`scripted_backoffs`, as one table.

    Row ``i`` holds flow ``i``'s script padded with ``inf``, equal to
    the list to the last bit; the table is as wide as the widest script
    (at least one column). Each flow's stream is still its own
    ``SeededRNG``, read as raw words (``randbytes``: the same outputs,
    in order, that ``random()`` consumes) and turned into uniforms,
    first instants, gaps and running sums by the same IEEE operations
    in the same order as the per-flow loop — no float is boxed. A row
    draws a fixed number of uniforms, bounded by the narrowest gap;
    drawing past a script's end touches only that flow's private
    stream, so rows do not depend on which other flows share the table.
    """
    _load_numpy()
    narrowest = max(min_gap, mean_interval * (1.0 - abs(jitter)))
    if not narrowest > 0.0:
        raise ValueError("min_gap or 1 - jitter must be positive")
    # The first instant, a gap per backoff before ``duration``, the gap
    # that crosses it, and one more for rounding in the running sum.
    draws = max(0, int(duration / narrowest)) + 3
    table = np.empty((n_flows, draws))
    words = np.empty((min(_TABLE_ROWS, n_flows), 2 * draws), dtype="<u4")
    width = 1
    for lo in range(0, n_flows, _TABLE_ROWS):
        rows = table[lo:lo + _TABLE_ROWS]
        chunk = words[:len(rows)]
        for row in range(len(rows)):
            rng = SeededRNG(derive_seed(seed, "fluid-batch-flow", lo + row))
            chunk[row] = np.frombuffer(rng.randbytes(8 * draws), "<u4")
        np.multiply(chunk[:, 0::2] >> 5, _HIGH_SCALE, out=rows)
        rows += chunk[:, 1::2] >> 6
        rows *= _UNIT
        first = rows[:, 0]
        first *= 0.8
        first += 0.2
        first *= mean_interval
        gaps = rows[:, 1:]
        gaps *= 2.0
        gaps -= 1.0
        gaps *= jitter
        gaps += 1.0
        gaps *= mean_interval
        np.maximum(gaps, min_gap, out=gaps)
        np.cumsum(rows, axis=1, out=rows)
        if (rows[:, -1] < duration).any():
            raise ValueError(
                f"a backoff script outgrew its {draws - 1} columns")
        past = rows >= duration
        rows[past] = np.inf
        width = max(width, draws - int(past.all(axis=0).sum()))
    return table[:, :width].copy()


@dataclass
class BatchResult:
    """Per-flow outcome arrays plus class-level aggregates."""

    n_flows: int
    duration: float
    #: final active layers per flow (int64).
    layers: np.ndarray
    #: time-averaged active layers per flow.
    mean_layers: np.ndarray
    #: mean transmission rate per flow (bytes/s).
    mean_rate: np.ndarray
    #: final buffered bytes per flow.
    buffer: np.ndarray
    sent_bytes: np.ndarray
    consumed_bytes: np.ndarray
    discarded_bytes: np.ndarray
    stall_bytes: np.ndarray
    adds: np.ndarray
    drops: np.ndarray

    def conservation_error(self) -> np.ndarray:
        """Per-flow ``sent - consumed - discarded - buffered`` (~0)."""
        return (self.sent_bytes - self.consumed_bytes
                - self.discarded_bytes - self.buffer)

    def summary(self) -> dict[str, float]:
        # ndarray methods: a result unpickled where no batch ran has no np.
        return {
            "n_flows": float(self.n_flows),
            "mean_layers": float(self.mean_layers.mean()),
            "mean_rate": float(self.mean_rate.mean()),
            "fairness": jain_index([float(r) for r in self.mean_rate]),
            "adds_per_flow": float(self.adds.mean()),
            "drops_per_flow": float(self.drops.mean()),
            "stall_fraction": float((self.stall_bytes > 0.0).mean()),
            "mean_buffer": float(self.buffer.mean()),
        }


class FlowClassBatch:
    """A homogeneous class of fluid QA flows advanced in lockstep.

    Args:
        config: shared mechanism config (one class, one codec).
        n_flows: population size.
        slope: shared AIMD slope S (bytes/s^2).
        initial_rate: per-flow start rates, shape ``(n_flows,)`` (or a
            scalar broadcast to all).
        backoff_times: per-flow scripts as a padded 2D array (or nested
            lists) — row i holds flow i's backoff instants, padded with
            ``np.inf``.
            Consecutive entries in a row must be at least ``2 * step``
            apart (one backoff per window).
        duration: simulated seconds.
        step: decision/update cadence (defaults to the packet tick).
        max_rate: shared rate cap (None: uncapped).
        min_rate: floor a halving never goes below.
    """

    def __init__(
        self,
        config: QAConfig,
        n_flows: int,
        slope: float,
        initial_rate: "np.ndarray | float",
        backoff_times: "np.ndarray | Sequence[Sequence[float]]",
        duration: float,
        step: float = DEFAULT_STEP,
        max_rate: Optional[float] = None,
        min_rate: float = 100.0,
    ) -> None:
        _load_numpy()
        if n_flows < 1:
            raise ValueError("n_flows must be positive")
        if duration <= 0 or step <= 0:
            raise ValueError("duration and step must be positive")
        if config.add_rule != "buffer_only":
            raise ValueError(
                f"add_rule={config.add_rule!r}: the batch is buffer_only")
        if config.slope_override is not None:
            raise ValueError("slope_override is set: the batch takes slope")
        self.config = config
        self.n = n_flows
        self.slope = float(slope)
        self.duration = float(duration)
        self.step = float(step)
        self.max_rate = max_rate
        self.min_rate = float(min_rate)
        self.rate = np.broadcast_to(
            np.asarray(initial_rate, dtype=np.float64), (n_flows,)).copy()
        self.backoffs = np.asarray(backoff_times, dtype=np.float64)
        if self.backoffs.ndim != 2 or self.backoffs.shape[0] != n_flows:
            raise ValueError("backoff_times must be (n_flows, k)")
        with np.errstate(invalid="ignore"):  # inf-padded rows: inf - inf
            gaps = np.diff(self.backoffs, axis=1)
        closest = gaps.min(where=np.isfinite(gaps), initial=np.inf)
        if closest < 2.0 * self.step:
            raise ValueError(
                "backoff scripts need >= 2*step spacing per flow")
        #: 2.0 ** k for k in 0..k_max, exact: the k1 halvings' divisors.
        self._pow2 = np.array([2.0 ** k for k in range(config.k_max + 1)])

    @classmethod
    def jittered(
        cls,
        config: QAConfig,
        n_flows: int,
        slope: float,
        duration: float,
        seed: int = 1,
        fair_share: float = 20_000.0,
        mean_backoff_interval: float = 6.0,
        step: float = DEFAULT_STEP,
    ) -> "FlowClassBatch":
        """A class of flows oscillating around a fair share.

        Per-flow backoff phases come from index-keyed derived seeds, so
        the class is identical however it is partitioned into batches;
        the scripts are built as one table (:func:`backoff_table`).
        """
        padded = backoff_table(seed, n_flows, duration,
                               mean_backoff_interval, min_gap=2.0 * step)
        return cls(
            config, n_flows, slope,
            initial_rate=fair_share,
            backoff_times=padded,
            duration=duration,
            step=step,
            max_rate=2.5 * fair_share,
        )

    # ---------------------------------------------------------- closed forms

    def _ramp_area(self, r0: np.ndarray,
                   dt: "np.ndarray | float") -> np.ndarray:
        """Exact ``∫ r dt`` of the capped ramp, elementwise.

        If no flow reaches the cap within a shared ``dt``, ``t_cap`` is
        ``dt`` and the plateau adds ``0.0``: the uncapped form, exactly.
        """
        if self.max_rate is None or (
                np.ndim(dt) == 0
                and (self.max_rate - r0.max()) / self.slope >= dt):
            return r0 * dt + 0.5 * self.slope * dt * dt
        t_cap = ((self.max_rate - r0) / self.slope).clip(0.0, dt)
        ramp = r0 * t_cap + 0.5 * self.slope * t_cap * t_cap
        return ramp + self.max_rate * (dt - t_cap)

    def _rate_after(self, r0: np.ndarray,
                    dt: "np.ndarray | float") -> np.ndarray:
        out = r0 + self.slope * dt
        if self.max_rate is not None:
            out = np.minimum(out, self.max_rate)
        return out

    def _add_requirement(self, rate: np.ndarray,
                         na: np.ndarray) -> np.ndarray:
        """Vectorized total-buffer form of the buffer-only add rule.

        The dominant ``K_max`` state total of the ladder (scenario 1 vs
        scenario 2 at ``k = K_max``, via the closed-form ``k1`` halving
        count) stands in for the per-layer running-max split — a lower
        bound up to rounding, so the batch adds at most one
        tick-quantized step early.
        """
        cfg = self.config
        cons = na * cfg.layer_rate
        k_max = cfg.k_max
        # k1: halvings needed to push the rate below consumption (>= 1).
        ratio = np.maximum(rate / np.maximum(cons, 1e-12), 1e-12)
        k1 = np.maximum(1, np.floor(np.log2(ratio)).astype(np.int64) + 1)
        k1 = np.minimum(k1, k_max)
        d1 = np.maximum(cons - rate / (2.0 ** k_max), 0.0)
        s1_total = d1 * d1 / (2.0 * self.slope)
        d_first = np.maximum(cons - rate / self._pow2[k1], 0.0)
        seq = (cons / 2.0) ** 2 / (2.0 * self.slope)
        s2_total = (d_first * d_first / (2.0 * self.slope)
                    + (k_max - k1) * seq)
        state_total = np.maximum(s1_total, s2_total)
        d_c2 = np.maximum((na + 1) * cfg.layer_rate - rate / 2.0, 0.0)
        condition2 = d_c2 * d_c2 / (2.0 * self.slope)
        return np.maximum(state_total, condition2)

    # ---------------------------------------------------------------- run

    def run(self) -> BatchResult:
        cfg = self.config
        n = self.n
        step = self.step
        layer_rate = cfg.layer_rate
        base_floor = cfg.base_floor_bytes
        floor = cfg.floor_bytes
        eps = formulas.EPSILON
        # Run-local trajectory state: the batch stays as constructed.
        rate = self.rate.copy()
        pad = self.backoffs.shape[1]
        cursor = np.zeros(n, dtype=np.int64)
        next_backoff = (self.backoffs[:, 0].copy() if pad
                        else np.full(n, np.inf, dtype=np.float64))
        na = np.ones(n, dtype=np.int64)
        # na * C, kept: it moves only where a layer is added or dropped.
        cons = na * layer_rate
        buf = np.zeros(n, dtype=np.float64)
        sent = np.zeros(n, dtype=np.float64)
        consumed = np.zeros(n, dtype=np.float64)
        discarded = np.zeros(n, dtype=np.float64)
        stalled = np.zeros(n, dtype=np.float64)
        adds = np.zeros(n, dtype=np.int64)
        drops = np.zeros(n, dtype=np.int64)
        layer_time = np.zeros(n, dtype=np.float64)
        playout_at = cfg.startup_delay
        two_s = 2.0 * self.slope
        last_state = 2.0 ** cfg.k_max
        # Whole windows plus a shorter last one; the guard keeps float
        # dust in the quotient (1.1 / 0.1) from becoming a window.
        n_steps = max(1, math.ceil(self.duration / step - 1e-9))

        for k in range(n_steps):
            t0 = k * step
            t1 = min(self.duration, t0 + step)
            dt = t1 - t0
            # Every flow ramps across the window; the few with a
            # scripted backoff inside it are redone: split at the
            # instant, halve, continue. Scripts guarantee at most one
            # per window per flow.
            area = self._ramp_area(rate, dt)
            after = self._rate_after(rate, dt)
            due = (next_backoff < t1).nonzero()[0]
            if due.size:
                pre_dt = (next_backoff[due] - t0).clip(0.0, dt)
                before = rate[due]
                halved = np.maximum(
                    self._rate_after(before, pre_dt) / 2.0, self.min_rate)
                post_dt = dt - pre_dt
                area[due] = (self._ramp_area(before, pre_dt)
                             + self._ramp_area(halved, post_dt))
                after[due] = self._rate_after(halved, post_dt)
                nxt = cursor[due] + 1
                cursor[due] = nxt
                next_backoff[due] = np.where(
                    nxt < pad,
                    self.backoffs[due, np.minimum(nxt, pad - 1)], np.inf)
            rate = after

            sent += area
            # Consumption covers the playout-overlapping part of the
            # window; the shortfall clamp is the stall/underflow path.
            cons_dt = min(max(t1 - max(t0, playout_at), 0.0), dt)
            want = cons * cons_dt
            buf += area
            buf -= want
            shortfall = np.maximum(-buf, 0.0)
            np.maximum(buf, 0.0, out=buf)
            consumed += want - shortfall
            stalled += shortfall

            # §2.2 drop rule at the tick, iteratively (bounded by the
            # layer ceiling): one comparison over every flow (the
            # threshold is never negative, so a flow that is not
            # draining cannot pass it), then only the flows that just
            # fired. A dropped layer discards at most its maintenance
            # floor (top layers drain first).
            have = buf - base_floor
            drainable = np.maximum(have, 0.0)
            idx = ((na > 1) & (cons - rate >= np.sqrt(two_s * drainable)
                               - eps)).nonzero()[0]
            drainable = drainable[idx]
            while idx.size:
                loss = np.minimum(drainable, floor)
                buf[idx] -= loss
                discarded[idx] += loss
                drops[idx] += 1
                layers = na[idx] - 1
                na[idx] = layers
                cons[idx] = left = layers * layer_rate
                have[idx] = room = buf[idx] - base_floor
                drainable = np.maximum(room, 0.0)
                fire = (layers > 1) & (
                    left - rate[idx] >= np.sqrt(two_s * drainable) - eps)
                idx = idx[fire]
                drainable = drainable[fire]

            # Buffer-only add, one layer per tick (the adapter's
            # cadence). ``_add_requirement`` is a max whose first term
            # is the K_max scenario-1 total: only a flow holding that
            # much can be granted, and only those are asked about the
            # ceiling, about filling and for the full requirement.
            bound = np.maximum(cons - rate / last_state, 0.0)
            maybe = (have >= bound * bound / two_s).nonzero()[0]
            can = maybe[(na[maybe] < cfg.max_layers) & (
                (t1 <= playout_at) | (rate[maybe] + eps >= cons[maybe]))]
            if can.size:
                required = self._add_requirement(rate[can], na[can])
                grant = can[have[can] >= required]
                adds[grant] += 1
                layers = na[grant] + 1
                na[grant] = layers
                cons[grant] = layers * layer_rate

            layer_time += na * dt

        return BatchResult(
            n_flows=n,
            duration=self.duration,
            layers=na,
            mean_layers=layer_time / self.duration,
            mean_rate=sent / self.duration,
            buffer=buf,
            sent_bytes=sent,
            consumed_bytes=consumed,
            discarded_bytes=discarded,
            stall_bytes=stalled,
            adds=adds,
            drops=drops,
        )
