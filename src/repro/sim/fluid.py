"""FluidEngine: analytic epoch-to-epoch QA dynamics, no packets.

The packet engine replays the mechanism one transmission opportunity at
a time; :class:`~repro.core.fluid.FluidRun` already smooths that into
small quanta. This module removes the event loop entirely: between
*epochs* — scripted backoffs, layer adds/drops, playout start, stall
boundaries — the §2.2 state advances in closed form using
:mod:`repro.core.fluid_solver`, and decision instants are located by
root-bracketing the add/drop residuals. A 40 s scenario costs a few
dozen epochs instead of hundreds of thousands of events.

What the fluid model keeps exact (oracle feedback, scripted sawtooth):

- the AIMD rate trajectory (identical closed form to ScriptedAimd);
- total buffering as the integral of ``r(t) - na*C`` per phase;
- the §3.1 buffer-only add condition and the §2.2 drop rule, evaluated
  continuously (the packet adapter evaluates them once per
  ``drain_period`` tick, so packet decisions lag fluid ones by up to
  one tick plus packet-quantization).

What it approximates (documented in docs/MECHANISM.md):

- per-layer buffer *levels* come from a bottom-up split of the total
  (:func:`repro.core.fluid_solver.split_total`), not a replay of the
  §4.1 per-packet walk;
- the underflow/shortfall critical situations collapse into the drop
  rule: with fluid buffers the rule's threshold reaches zero exactly
  when drainable data runs out, so the rule fires first; the packet
  engine's UNDERFLOW/SHORTFALL drops are packetization artifacts of the
  same boundary.

The packet-vs-fluid differential harness (``tests/differential/``)
pins these claims on the paper-figure scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.core import fluid_solver, formulas
from repro.core.config import QAConfig
from repro.core.metrics import DropCause, DropEvent, QualityMetrics
from repro.core.tolerances import TIME_SLACK as _TOL
from repro.core.units import Bytes, BytesPerSec, BytesPerSec2, Seconds
from repro.sim.trace import EventHook, Tracer

if TYPE_CHECKING:
    from repro.core.fluid import ScriptedAimd

#: Phases of the fluid state machine (Figure 3's filling/draining plus
#: the stalled-base corner the paper calls playback starvation).
_FILL = "fill"
_DRAIN = "drain"
_STALL = "stall"

#: Hard ceiling on epochs per run: real dynamics take a handful of
#: epochs per backoff; hitting this means a residual is oscillating at
#: float precision and the run must fail loudly, not spin.
MAX_EPOCHS = 100_000

_INF = float("inf")


@dataclass
class FluidFlowResult:
    """Outcome of one analytic fluid flow.

    ``tracer``/``metrics`` mirror what a packet session exposes so the
    same summaries work on both; the byte accumulators feed the
    conservation property tests.
    """

    tracer: Tracer
    metrics: QualityMetrics
    duration: float
    sent_bytes: float
    consumed_bytes: float
    discarded_bytes: float
    stall_shortfall_bytes: float
    final_buffer: float
    final_layers: int
    epochs: int

    @property
    def conservation_error(self) -> float:
        """Sent minus (consumed + discarded + still buffered); ~0."""
        return fluid_solver.conservation_error(
            self.sent_bytes, self.consumed_bytes, self.discarded_bytes,
            0.0, self.final_buffer)

    def summary(self) -> dict:
        out = self.metrics.summary()
        try:
            out["mean_layers"] = self.tracer.get("layers").time_average()
            out["mean_rate"] = self.tracer.get("rate").time_average()
        except KeyError:
            pass
        out["sent_bytes"] = self.sent_bytes
        out["epochs"] = self.epochs
        return out


class FluidEngine:
    """Advance one QA flow analytically under a scripted AIMD sawtooth.

    Args:
        config: the mechanism's tunables. Interpreted under oracle
            feedback (nothing in flight, losses impossible) — the same
            conditions :class:`~repro.core.fluid.FluidRun` forces.
        bandwidth: the scripted sawtooth. Mutated during the run (its
            pending backoffs are consumed), so build one per run.
        duration: simulated seconds. The flow starts at 0 and playout
            ``config.startup_delay`` later.
        sample_period: trace sampling grid; ``None`` disables the
            tracer entirely (decision events and metrics still record).
        on_event: optional ``(t, kind, fields)`` hook, fired for
            add/drop/backoff/playout/stall transitions. ``None`` (a
            disabled telemetry sink) costs nothing.
    """

    def __init__(
        self,
        config: QAConfig,
        bandwidth: ScriptedAimd,
        duration: float,
        sample_period: Optional[float] = 0.02,
        on_event: Optional[EventHook] = None,
    ) -> None:
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.config = config
        self.bandwidth = bandwidth
        self.duration = duration
        self.sample_period = sample_period
        self.on_event = on_event

        self.tracer = Tracer()
        self.metrics = QualityMetrics()
        self.t: Seconds = 0.0
        self.active_layers = 1  # the base layer is always sent
        self.buffer: Bytes = 0.0
        self.playout_started = False
        self.playout_time: Seconds = config.startup_delay

        self.sent_bytes: Bytes = 0.0
        self.consumed_bytes: Bytes = 0.0
        self.discarded_bytes: Bytes = 0.0
        self.stall_shortfall_bytes: Bytes = 0.0
        self.epochs = 0

        self._stall_since: Optional[Seconds] = None
        self._next_sample: Optional[Seconds] = (
            0.0 if sample_period is not None else None)

    # ------------------------------------------------------------- helpers

    @property
    def slope(self) -> BytesPerSec2:
        """Decision slope: the override if set, else the scripted S.

        The packet adapter EWMAs its transport's estimate; under a
        scripted sawtooth that estimate is the constant ``S``, so the
        two agree exactly.
        """
        if self.config.slope_override is not None:
            return self.config.slope_override
        return self.bandwidth.slope

    @property
    def consumption(self) -> BytesPerSec:
        return self.config.consumption(self.active_layers)

    def _emit(self, kind: str, **fields: object) -> None:
        if self.on_event is not None:
            self.on_event(self.t, kind, fields)

    def _drainable(self, total: Bytes) -> Bytes:
        """Buffering usable for recovery: total minus the base margin.

        Oracle feedback keeps nothing in flight, so the protected slice
        is exactly the base layer's stall floor (capped by what exists).
        """
        return max(0.0, total - min(total, self.config.base_floor_bytes))

    def _net_since(self, t0: Seconds,
                   cons: BytesPerSec) -> Callable[[Seconds], Bytes]:
        """``t -> buffer change over [t0, t]`` for a window with no epoch.

        The sawtooth has no pending backoff in the window, so the rate
        is the capped ramp anchored at ``(t0, r(t0))``. The anchor is
        read once here, not at every probe of a residual.
        """
        rate0 = self.bandwidth.rate(t0)
        slope, cap = self.bandwidth.slope, self.bandwidth.max_rate
        net = fluid_solver.net_buffer_delta

        def delta(t: Seconds) -> Bytes:
            return net(rate0, slope, t0, cons, t0, t, cap)

        return delta

    def _sent(self, t0: Seconds, t1: Seconds) -> Bytes:
        return fluid_solver.ramp_integral(
            self.bandwidth.rate(t0), self.bandwidth.slope, t0, t0, t1,
            self.bandwidth.max_rate)

    # -------------------------------------------------------------- phases

    def _phase(self) -> str:
        if not self.playout_started:
            return _FILL
        rate = self.bandwidth.rate(self.t)
        if rate + formulas.EPSILON >= self.consumption:
            return _FILL
        if self.buffer > formulas.EPSILON:
            return _DRAIN
        return _STALL

    def _fill_resume_time(self) -> Optional[Seconds]:
        """When the climbing rate reaches ``na*C`` again (drain ends)."""
        target = self.consumption
        if (self.bandwidth.max_rate is not None
                and self.bandwidth.max_rate < target - formulas.EPSILON):
            return None  # capped below consumption: drains forever
        rate = self.bandwidth.rate(self.t)
        if rate >= target:
            return self.t
        return self.t + (target - rate) / self.bandwidth.slope

    # --------------------------------------------------------------- moves

    def _do_add(self) -> None:
        self.active_layers += 1
        self.metrics.record_add(self.t, self.active_layers - 1)
        self._emit("add", layer=self.active_layers - 1,
                   active=self.active_layers)

    def _drop_top(self, cause: DropCause, rate: BytesPerSec) -> None:
        """Drop the top layer, discarding its (split) buffer share."""
        layer = self.active_layers - 1
        levels = fluid_solver.split_total(
            self.buffer, rate, self.config, self.active_layers, self.slope)
        share: Bytes = levels[-1] if levels else 0.0
        buf_total = self.buffer
        required = formulas.draining_recovery_requirement(
            rate, self.consumption, self.slope)
        drainable = self._drainable(buf_total)
        self.metrics.record_drop(DropEvent(
            time=self.t, layer=layer, buf_drop=share, buf_total=buf_total,
            required=required, cause=cause, drainable=drainable))
        self.buffer -= share
        self.discarded_bytes += share
        self.active_layers -= 1
        self._emit("drop", layer=layer, cause=cause.value,
                   active=self.active_layers, buf_drop=share,
                   buf_total=buf_total, required=required, rate=rate,
                   slope=self.slope, drainable=drainable)

    def _apply_drop_rule(self, rate: BytesPerSec) -> None:
        """§2.2, iteratively: each drop discards buffer, then re-check."""
        while self.active_layers > 1:
            margin = fluid_solver.drop_margin(
                rate, self.consumption, self.slope,
                self._drainable(self.buffer))
            if margin < -formulas.EPSILON:
                return
            self._drop_top(DropCause.RULE, rate)

    def _apply_backoff(self, at: Seconds) -> None:
        new_rate = self.bandwidth.apply_backoff(at)
        self._emit("backoff", rate=new_rate)
        self._apply_drop_rule(new_rate)

    def _start_playout(self) -> None:
        self.playout_started = True
        self.metrics.startup_latency = self.config.startup_delay
        self._emit("playout_start")

    def _enter_stall(self) -> None:
        if self._stall_since is None:
            self._stall_since = self.t
            self._emit("stall_start")

    def _exit_stall(self) -> None:
        if self._stall_since is not None:
            self.metrics.record_stall(self.t - self._stall_since)
            self._emit("stall_end", duration=self.t - self._stall_since)
            self._stall_since = None

    # ------------------------------------------------------------ sampling

    def _record_sample(self, t: Seconds, rate: BytesPerSec,
                       total: Bytes) -> None:
        tr = self.tracer
        tr.record("rate", t, rate)
        tr.record("consumption", t, self.consumption)
        tr.record("layers", t, self.active_layers)
        levels = fluid_solver.split_total(
            total, rate, self.config, self.active_layers, self.slope)
        for i in range(self.config.max_layers):
            tr.record(f"buffer_L{i}", t,
                      levels[i] if i < len(levels) else 0.0)
        tr.record("total_buffer", t, total)

    def _sample_segment(self, t0: Seconds, t1: Seconds,
                        cons: BytesPerSec, frozen: bool) -> None:
        """Emit grid samples in ``[t0, t1]`` from the closed forms.

        ``frozen`` marks stall segments where the buffer holds level
        instead of integrating the net rate.
        """
        if self._next_sample is None or self.sample_period is None:
            return
        delta = self._net_since(t0, cons)
        while self._next_sample <= t1 + _TOL:
            g = self._next_sample
            if g > self.duration + _TOL:
                return
            g = min(g, t1)
            total = self.buffer if frozen else self.buffer + delta(g)
            self._record_sample(g, self.bandwidth.rate(g), max(0.0, total))
            self._next_sample += self.sample_period

    # ------------------------------------------------------------ run loop

    def run(self) -> FluidFlowResult:
        while self.t < self.duration - _TOL:
            self.epochs += 1
            if self.epochs > MAX_EPOCHS:
                raise RuntimeError(
                    f"fluid epoch solver did not converge by t={self.t}")
            self._advance_one_epoch()
        self._exit_stall()
        return FluidFlowResult(
            tracer=self.tracer, metrics=self.metrics,
            duration=self.duration, sent_bytes=self.sent_bytes,
            consumed_bytes=self.consumed_bytes,
            discarded_bytes=self.discarded_bytes,
            stall_shortfall_bytes=self.stall_shortfall_bytes,
            final_buffer=self.buffer, final_layers=self.active_layers,
            epochs=self.epochs)

    def _advance_one_epoch(self) -> None:
        t0 = self.t
        # Backoffs due now fire before anything else (mirrors FluidRun's
        # step ordering: backoff, then sends).
        next_backoff = self.bandwidth.next_backoff()
        if next_backoff is not None and next_backoff <= t0 + _TOL:
            for at in self.bandwidth.backoffs_until(t0 + _TOL):
                self._apply_backoff(at)
            return
        horizon: Seconds = self.duration
        if next_backoff is not None:
            horizon = min(horizon, next_backoff)
        phase = self._phase()
        if phase == _FILL:
            self._advance_fill(t0, horizon)
        elif phase == _DRAIN:
            self._advance_drain(t0, horizon)
        else:
            self._advance_stall(t0, horizon)
        # Boundary events reached at the epoch's end.
        if not self.playout_started and self.t >= self.playout_time - _TOL:
            self._start_playout()
        if next_backoff is not None and self.t >= next_backoff - _TOL:
            for at in self.bandwidth.backoffs_until(self.t + _TOL):
                self._apply_backoff(at)

    # Per-phase epoch advances. Each finds the earliest decision crossing
    # inside its window, moves the closed-form state there, and lets the
    # main loop reclassify.

    def _advance_fill(self, t0: Seconds, horizon: Seconds) -> None:
        if not self.playout_started:
            horizon = min(horizon, self.playout_time)
        cons: BytesPerSec = self.consumption if self.playout_started else 0.0
        t_add = self._find_add_crossing(t0, horizon, cons)
        t1 = t_add if t_add is not None else horizon
        self._move(t0, t1, cons, frozen=False)
        if t_add is not None:
            self._do_add()

    def _find_add_crossing(self, t0: Seconds, hi: Seconds,
                           cons: BytesPerSec) -> Optional[Seconds]:
        config, na = self.config, self.active_layers
        if na >= config.max_layers:
            return None
        # Everything constant over the window is bound here, so a probe
        # of the residual (the add condition's headroom) is the rate's
        # arithmetic only. The buffer_and_rate rule also refuses while
        # the rate is below the consumption with the new layer.
        b0 = self.buffer
        rate_at, delta = self.bandwidth.rate, self._net_since(t0, cons)
        required = fluid_solver.add_requirement_form(
            config, na, self.slope, config.base_floor_bytes)
        floor = (config.consumption(na + 1)
                 if config.add_rule == "buffer_and_rate" else -_INF)

        def residual(t: Seconds) -> float:
            rate = rate_at(t)
            if rate < floor:
                return -_INF
            return b0 + delta(t) - required(rate)

        return fluid_solver.first_crossing(residual, t0, hi)

    def _advance_drain(self, t0: Seconds, horizon: Seconds) -> None:
        cons = self.consumption
        t_fill = self._fill_resume_time()
        if t_fill is not None:
            horizon = min(horizon, t_fill)
        b0, slope = self.buffer, self.slope
        rate_at, delta = self.bandwidth.rate, self._net_since(t0, cons)
        drop_margin, drainable = fluid_solver.drop_margin, self._drainable

        # Rule crossing: the deficit shrinks linearly while the drop
        # threshold sinks with the draining buffer; first sign change
        # wins. Checked continuously — the packet adapter re-evaluates
        # once per drain_period tick, hence the documented decision lag.
        def rule_residual(t: Seconds) -> float:
            return drop_margin(rate_at(t), cons, slope,
                               drainable(b0 + delta(t)))

        def empty_residual(t: Seconds) -> float:
            return -(b0 + delta(t))

        t_rule = (fluid_solver.first_crossing(rule_residual, t0, horizon)
                  if self.active_layers > 1 else None)
        t_empty = fluid_solver.first_crossing(empty_residual, t0, horizon)
        t1 = min(x for x in (t_rule, t_empty, horizon) if x is not None)
        self._move(t0, t1, cons, frozen=False)
        if t_rule is not None and t1 >= t_rule - _TOL:
            self._apply_drop_rule(self.bandwidth.rate(self.t))
        elif t_empty is not None and t1 >= t_empty - _TOL:
            self.buffer = 0.0
            if self.active_layers == 1:
                self._enter_stall()
            else:
                # Drainable ran out with layers still active: the rule's
                # threshold is zero against a positive deficit, so this
                # is a rule drop at the exhaustion instant.
                self._apply_drop_rule(self.bandwidth.rate(self.t))

    def _advance_stall(self, t0: Seconds, horizon: Seconds) -> None:
        """Base-layer starvation: arrivals play out instantly, no refill.

        Ends when the rate climbs back to the (base-only) consumption.
        """
        self._enter_stall()
        t_fill = self._fill_resume_time()
        if t_fill is not None:
            horizon = min(horizon, t_fill)
        t1 = horizon
        arrived = self._sent(t0, t1)
        wanted = self.consumption * (t1 - t0)
        self._sample_segment(t0, t1, 0.0, frozen=True)
        self.sent_bytes += arrived
        self.consumed_bytes += min(arrived, wanted)
        shortfall = max(0.0, wanted - arrived)
        self.stall_shortfall_bytes += shortfall
        self.metrics.base_underflow_bytes += shortfall
        self.buffer += max(0.0, arrived - wanted)
        self.t = t1
        if (t_fill is not None and t1 >= t_fill - _TOL) or shortfall <= 0:
            self._exit_stall()

    def _move(self, t0: Seconds, t1: Seconds, cons: BytesPerSec,
              frozen: bool) -> None:
        """Advance accumulators and clock across a smooth segment."""
        if t1 <= t0:
            self.t = max(self.t, t1)
            return
        self._sample_segment(t0, t1, cons, frozen)
        sent = self._sent(t0, t1)
        self.sent_bytes += sent
        self.consumed_bytes += cons * (t1 - t0)
        self.buffer = max(0.0, self.buffer + sent - cons * (t1 - t0))
        self.t = t1
