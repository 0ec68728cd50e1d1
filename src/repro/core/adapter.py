"""The quality adaptation mechanism itself (sections 2-4 end to end).

:class:`QualityAdapter` is the server-side controller. It is transport
agnostic: it consumes three callables (current time, current transmission
rate, current AIMD slope estimate) plus two event streams (per-layer
delivery confirmations and backoff notifications), and it answers one
question per transmission opportunity -- *which layer does the next packet
carry?*

Control flow, mirroring the paper:

- **Filling phase** (rate >= na*C): every packet is assigned by the
  section 4.1 per-packet algorithm (:class:`~repro.core.filling.
  FillingPolicy`), stepping the receiver's buffer distribution through the
  maximally efficient sequence of optimal states. When all ``K_max``
  targets are met, a layer is added (section 3.1's buffer-only rule by
  default).
- **Backoff**: the rate halves; the section 2.2 drop rule fires
  immediately; the state path is frozen at the pre-backoff rate so the
  draining phase can walk it backwards.
- **Draining phase** (rate < na*C): every ``drain_period`` the
  section 4.2 planner decides how much each layer's buffer contributes,
  and packets are spent against the resulting per-layer quotas. Critical
  situations (further backoffs, slope mis-estimates, planner shortfall,
  estimator underflow) drop the top layer as soon as they are detected.

The adapter tracks its own *estimate* of the receiver's buffers:
deliveries come from ACKs (one RTT stale, hence conservative) and
consumption from the playout clock agreed at session start. An ``oracle``
feedback mode (deliveries applied at send time) exists for tests and
sensitivity studies.

``pick_layer``, ``tick`` and ``on_backoff`` read the clock and the rate
once, advance the consumption clocks, then take one snapshot of the
buffer levels that the rest of the call works from. Only a layer move
(``_activate_layer`` / ``_drop_top_layer``) makes the snapshot stale; a
helper that may move a layer returns the one current afterwards
(docs/MECHANISM.md, "What an entry point reads").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core import formulas
from repro.core.add_drop import AddDropPolicy
from repro.core.buffers import LayerBufferSet
from repro.core.config import QAConfig
from repro.core.draining import DrainingPlanner, DrainPlan
from repro.core.filling import FillingPolicy
from repro.core.metrics import DropCause, DropEvent, QualityMetrics
from repro.core.states import StateSequence
from repro.core.units import (
    Bytes,
    ByteCount,
    BytesPerSec,
    BytesPerSec2,
    Seconds,
)

if TYPE_CHECKING:  # pragma: no cover - repro.sim imports repro.core
    from repro.sim.trace import EventHook

Clock = Callable[[], Seconds]
RateFn = Callable[[], BytesPerSec]
SlopeFn = Callable[[], BytesPerSec2]


class QualityAdapter:
    """Server-side layered quality adaptation controller."""

    def __init__(
        self,
        config: QAConfig,
        now_fn: Clock,
        rate_fn: RateFn,
        slope_fn: SlopeFn,
        start_time: Seconds = 0.0,
        on_event: Optional[EventHook] = None,
    ) -> None:
        self.config = config
        self.now_fn = now_fn
        self.rate_fn = rate_fn
        self.slope_fn = slope_fn
        self.on_event = on_event

        # Past 29 instance attributes CPython stops sharing the instance
        # dict's keys and every attribute load gets slower (measured: a
        # few % of qa_contended), so the adapter reads plain fields from
        # its frozen config and binds only what a property would derive.
        self._base_floor = config.base_floor_bytes

        self.buffers = LayerBufferSet(config.layer_rate, config.max_layers)
        self.metrics = QualityMetrics()
        self.filling_policy, self.planner = self._make_policies(config)
        self.add_drop = AddDropPolicy(config)

        self.active_layers = 0
        self.playout_started = False
        self.playout_start_time: Seconds = start_time + config.startup_delay
        self.average_rate: BytesPerSec = 0.0
        self.sent_bytes_per_layer: list[Bytes] = [0.0] * config.max_layers
        #: Consumption shortfall owed per layer; a layer owing nothing
        #: has no entry, so an empty dict means no debt at all.
        self._shortfall_debt: dict[int, Bytes] = {}
        self._inflight: list[Bytes] = [0.0] * config.max_layers
        self._slope_avg: Optional[BytesPerSec2] = None
        self._plan_shortfall_debt: Bytes = 0.0
        self._delivered_accum: Bytes = 0.0
        self._last_average_update: Seconds = start_time
        #: Bytes of lost low-layer data owed a retransmission (§1.3).
        self._retransmit_debt: list[Bytes] = [0.0] * config.max_layers
        self.retransmitted_bytes: Bytes = 0.0

        self._frozen_rate: Optional[BytesPerSec] = None
        self._sequence: Optional[StateSequence] = None
        self._plan: Optional[DrainPlan] = None
        self._plan_until: Seconds = -1.0
        self._quota: list[Bytes] = []

        self._activate_layer(start_time)  # the base layer is always sent

    # ------------------------------------------------------------ helpers

    @staticmethod
    def _make_policies(
        config: QAConfig,
    ) -> tuple[FillingPolicy, DrainingPlanner]:
        """Pick the filling/draining pair for the configured allocator.

        The strawman allocators live in :mod:`repro.baselines` (imported
        lazily to avoid a package cycle).
        """
        if config.allocator == "equal_share":
            from repro.baselines.allocators import (
                EqualShareFillingPolicy, SimpleDrainingPlanner)
            return (EqualShareFillingPolicy(config),
                    SimpleDrainingPlanner(config, order="equal"))
        if config.allocator == "base_first":
            from repro.baselines.allocators import (
                BaseFirstFillingPolicy, SimpleDrainingPlanner)
            return (BaseFirstFillingPolicy(config),
                    SimpleDrainingPlanner(config, order="bottom_up"))
        return FillingPolicy(config), DrainingPlanner(config)

    @property
    def consumption(self) -> BytesPerSec:
        """Total consumption rate na*C in bytes/s."""
        return self.active_layers * self.config.layer_rate

    @property
    def slope(self) -> BytesPerSec2:
        """Smoothed AIMD slope S used by every buffering decision.

        The instantaneous estimate (``P/srtt^2`` for RAP) swings with
        queueing delay; using it raw makes filling targets and the drop
        rule disagree across an RTT spike (the paper's "estimate of the
        slope ... may be incorrect" critical situation). A slow EWMA
        keeps the two consistent.
        """
        if self.config.slope_override is not None:
            return self.config.slope_override
        if self._slope_avg is None:
            self._slope_avg = self.slope_fn()
        return self._slope_avg

    def _update_slope(self) -> None:
        if self.config.slope_override is not None:
            return
        sample = self.slope_fn()
        if self._slope_avg is None:
            self._slope_avg = sample
        else:
            self._slope_avg += 0.05 * (sample - self._slope_avg)

    def _emit(self, kind: str, values: tuple = ()) -> None:
        """Hand a decision event to the hook: ``values`` laid out by
        :data:`repro.sim.trace.EVENT_FIELDS` (one tuple, no mapping)."""
        if self.on_event is not None:
            self.on_event(self.now_fn(), kind, values)

    def buffer_levels(self) -> list[Bytes]:
        """Per-layer buffered-byte estimates for the active layers."""
        return self.buffers.levels(self.active_layers)

    def is_filling(self) -> bool:
        """Is the session in a filling phase at the current rate?"""
        return self._filling(self.rate_fn())

    def _filling(self, rate: BytesPerSec) -> bool:
        """Filling phase: nothing drains before playout starts, and once
        it has, the phase is set by rate vs. consumption (Figure 3)."""
        return not self.playout_started or rate >= self.consumption

    # -------------------------------------------------------- layer moves

    def _activate_layer(self, now: float) -> None:
        layer = self.active_layers
        self.buffers.activate(layer, now)
        # A new layer plays out "immediately" (section 2.1) -- in packet
        # terms, as soon as its first data reaches the receiver; see
        # :meth:`on_delivered`.
        self.active_layers += 1
        self._shortfall_debt.pop(layer, None)
        if self._frozen_rate is not None:
            self._refreeze_sequence()
        self._invalidate_plan()
        if layer > 0:  # the initial base-layer activation is not an "add"
            self.metrics.record_add(now, layer)
            self._emit("add", (layer, self.active_layers))

    def _drainable_total(self, levels: list[Bytes]) -> Bytes:
        """Receiver buffering actually available to absorb a deficit:
        everything but the base-layer bytes unusable for recovery
        (stall margin + flight)."""
        return max(0.0, sum(levels) - min(levels[0], self._base_reserve()))

    def _drop_top_layer(self, cause: DropCause, rate: BytesPerSec) -> None:
        if self.active_layers <= 1:
            return  # the base layer is always sent
        now = self.now_fn()
        layer = self.active_layers - 1
        # Measure what the receiver actually holds: data still in flight
        # for the dropped layer arrives and is played out, so it is not
        # wasted buffering.
        levels = self.buffer_levels()
        safety = self._safety(levels)
        buf_total = sum(safety)
        buf_drop = safety[layer]
        required = formulas.draining_recovery_requirement(
            rate, self.consumption, self.slope)
        drainable = self._drainable_total(levels)
        consumption = self.consumption  # na*C as the drop rule saw it
        self.metrics.record_drop(DropEvent(
            time=now, layer=layer, buf_drop=buf_drop, buf_total=buf_total,
            required=required, cause=cause,
            drainable=drainable))
        self.buffers.deactivate(layer)
        self.active_layers -= 1
        self._shortfall_debt.pop(layer, None)
        self._retransmit_debt[layer] = 0.0
        # Every drop is annotated with the section 2.2 inequality inputs
        # (R, na*C, S, sqrt(2*S*buf)) regardless of which critical
        # situation triggered it, so a decision log can always answer
        # "would the rule alone have fired here?".
        if self.on_event is not None:
            slope = self.slope
            self._emit("drop", (
                layer, cause.value, self.active_layers, buf_drop,
                buf_total, required, rate, consumption, slope, drainable,
                formulas.drop_threshold(slope, drainable), safety))
        if self._frozen_rate is not None:
            self._refreeze_sequence()
        self._invalidate_plan()

    def _refreeze_sequence(self) -> None:
        assert self._frozen_rate is not None
        self._sequence = StateSequence(
            self._frozen_rate, self.config.layer_rate, self.active_layers,
            self.slope, self.config.k_max)

    def _invalidate_plan(self) -> None:
        self._plan = None
        self._plan_until = -1.0
        self._quota = []

    # ------------------------------------------------------ transport API

    def pick_layer(self, seq: int) -> Optional[dict[str, int]]:
        """Assign the next packet to a layer (transmission opportunity).

        Returns the packet metadata ``{"layer": i, "active": na}``. A
        stored-video server always has data, so the only ``None`` case
        is receiver flow control (``max_buffer_seconds``): the chosen
        layer's buffer is at its cap and the slot is left idle.
        """
        now = self.now_fn()
        rate = self.rate_fn()
        self._advance_clocks(now, rate)
        cfg, buffers = self.config, self.buffers
        levels = buffers.levels(self.active_layers)
        quota_spent = 0.0
        resend = (self._retransmission_due() if cfg.retransmit_layers
                  else None)
        if resend is not None:
            layer = resend
        elif (not self.playout_started  # _filling(rate), inlined
              or rate >= self.active_layers * cfg.layer_rate):
            layer = self._pick_filling(rate, levels)
        else:
            layer, quota_spent = self._pick_draining(now, rate, levels)
        cap = cfg.max_buffer_seconds
        if (cap is not None
                and buffers.level(layer) >= cap * cfg.layer_rate):
            # Receiver flow control: the layer's buffer is at its cap.
            # Idle this slot, returning exactly the draining quota the
            # pick spent on it.
            if quota_spent:
                self._quota[layer] += quota_spent
            return None
        if resend is not None:
            self._spend_retransmission(layer)
        size = cfg.packet_size
        feedback = cfg.feedback
        self.sent_bytes_per_layer[layer] += size
        if feedback != "oracle":
            # Oracle mode models instant delivery: nothing is in flight.
            self._inflight[layer] += size
        if feedback != "ack":
            # "send" and "oracle": the server knows its own transmission
            # history (the paper's model): credit the receiver estimate
            # right away.
            buffers.deliver(layer, size)
            if self.playout_started and not buffers.is_consuming(layer):
                self._start_consumption_if_due(layer)
        return {"layer": layer, "active": self.active_layers}

    def on_delivered(self, layer: int, nbytes: ByteCount) -> None:
        """An ACK confirmed ``nbytes`` of ``layer`` reached the receiver."""
        if layer >= self.config.max_layers:
            return
        self._delivered_accum += nbytes
        flight = self._inflight[layer] - nbytes
        self._inflight[layer] = flight if flight > 0.0 else 0.0
        if self.config.feedback != "ack":
            return  # already credited at send time
        buffers = self.buffers
        if not buffers.is_active(layer):
            return  # data for an already-dropped layer
        buffers.deliver(layer, nbytes)
        if self.playout_started and not buffers.is_consuming(layer):
            self._start_consumption_if_due(layer)

    def on_lost(self, layer: int, nbytes: ByteCount) -> None:
        """The congestion controller detected the loss of layer data."""
        if layer >= self.config.max_layers:
            return
        flight = self._inflight[layer] - nbytes
        self._inflight[layer] = flight if flight > 0.0 else 0.0
        # The drain plan assumed these bytes would reach the layer; owe
        # them back so a lossy period does not silently starve it.
        if layer < len(self._quota):
            self._quota[layer] += nbytes
        # Selective retransmission (§1.3): lost data from protected low
        # layers is re-sent with priority at the next opportunities.
        if (layer < self.config.retransmit_layers
                and self.buffers.is_active(layer)):
            self._retransmit_debt[layer] += nbytes
        if self.config.feedback != "send":
            return  # "ack" never credited it; "oracle" ignores losses
        self.buffers.withdraw(layer, nbytes)

    def _retransmission_due(self) -> Optional[int]:
        """The lowest layer owed a packet of retransmission, if any."""
        for layer in range(min(self.config.retransmit_layers,
                               self.active_layers)):
            if self._retransmit_debt[layer] >= self.config.packet_size:
                return layer
        return None

    def _spend_retransmission(self, layer: int) -> None:
        """A packet of ``layer``'s retransmission debt is going out."""
        self._retransmit_debt[layer] -= self.config.packet_size
        self.retransmitted_bytes += self.config.packet_size
        if self.on_event is not None:
            self.on_event(self.now_fn(), "retransmit", (
                layer, self.config.packet_size,
                self._retransmit_debt[layer]))

    def _start_consumption_if_due(self, layer: int) -> None:
        """Playout of a layer begins once it has a cushion of data.

        A freshly added layer first bootstraps ``floor_bytes`` of buffer
        (a fraction of a second); starting its playout from zero would
        make it underflow on the very next packet gap. The base layer at
        playout start already holds the whole startup-delay's worth.
        """
        if not self.playout_started or self.buffers.is_consuming(layer):
            return
        threshold = (0.0 if layer == 0
                     else float(self.config.packet_size))
        if self.buffers.delivered(layer) >= max(threshold,
                                                formulas.EPSILON):
            self.buffers.start_consuming(layer, self.now_fn())

    def on_backoff(self, new_rate: BytesPerSec) -> None:
        """The congestion controller halved its rate."""
        now = self.now_fn()
        rate = self.rate_fn()  # the controller's, which may have moved on
        self._advance_clocks(now, rate)
        # Freeze the state path at the pre-backoff rate: the draining
        # phase walks the same path the filling phase climbed.
        self._frozen_rate = max(new_rate * 2.0, self.consumption)
        self._refreeze_sequence()
        self._emit("backoff", (new_rate,))
        self._apply_drop_rule(new_rate, rate,
                              self.buffers.levels(self.active_layers))
        self._invalidate_plan()

    def tick(self) -> None:
        """Periodic housekeeping; call every ``config.drain_period``."""
        now = self.now_fn()
        rate = self.rate_fn()
        self._advance_clocks(now, rate)
        # The "average available bandwidth" of section 3.1 is measured
        # from acknowledged deliveries: the instantaneous send rate
        # overshoots the path capacity between loss detections, which
        # would make the average-bandwidth add rule look better than it
        # is. (Without ACK feedback -- oracle mode -- fall back to the
        # send rate.)
        elapsed = now - self._last_average_update
        if elapsed > 0:
            if self.config.feedback == "oracle":
                sample = rate
            else:
                sample = self._delivered_accum / elapsed
            self._delivered_accum = 0.0
            self._last_average_update = now
            gain = self.config.average_bandwidth_gain
            self.average_rate += gain * (sample - self.average_rate)
        self._update_slope()

        levels = self.buffers.levels(self.active_layers)
        if self._filling(rate):
            added = self._maybe_add(rate, levels)
            if self.on_event is not None:
                # One causal record per coarse-grain add evaluation (not
                # per packet: _pick_filling also probes _maybe_add, but
                # the tick cadence is the decision loop the paper
                # describes). The record's kmax_margin (the worst
                # layer's headroom over the Figure-4 targets) is worked
                # out when it is read, from the policy, slope and base
                # reserve kept here.
                if added:
                    levels = self.buffer_levels()
                self.on_event(now, "add_eval", (
                    rate, self.average_rate, self.consumption,
                    self.active_layers, levels, added, self.add_drop,
                    self.slope, self._base_reserve()))
        else:
            levels = self._apply_drop_rule(rate, rate, levels)
            self._ensure_plan(now, rate, levels)

    # ----------------------------------------------------------- internals

    def _advance_clocks(self, now: Seconds, rate: BytesPerSec) -> None:
        if not self.playout_started and now >= self.playout_start_time:
            self.playout_started = True
            self.metrics.startup_latency = self.config.startup_delay
            for layer in range(self.active_layers):
                self._start_consumption_if_due(layer)
            self._emit("playout_start")
        shortfalls = self.buffers.consume_until(now)
        debt = self._shortfall_debt
        if not shortfalls:
            # Nothing starved: every debt resets, so the starvation drop
            # below cannot fire (its limit is positive).
            if debt:
                debt.clear()
            return
        for layer in range(self.active_layers):
            missing = shortfalls.get(layer, 0.0)
            if missing > 0:
                debt[layer] = debt.get(layer, 0.0) + missing
            else:
                debt.pop(layer, None)
        if 0 in shortfalls:
            self.metrics.base_underflow_bytes += shortfalls[0]
        # A persistently starving enhancement layer during a *draining*
        # phase is a critical situation: shed load from the top so the
        # survivors can be fed (section 2.2). During filling the rate
        # covers consumption, so starvation is transient packet jitter
        # that the maintenance floor absorbs. The debt threshold filters
        # shortfalls caused by packetization and feedback lag.
        debt_limit = (self.config.underflow_debt_packets
                      * self.config.packet_size)
        if (not self._filling(rate)
                and any(debt.get(layer, 0.0) > debt_limit
                        for layer in range(1, self.active_layers))):
            self._drop_top_layer(DropCause.UNDERFLOW, rate)

    def _apply_drop_rule(self, rule_rate: BytesPerSec, rate: BytesPerSec,
                         levels: list[Bytes]) -> list[Bytes]:
        """Shed top layers while the section 2.2 rule says so.

        ``rule_rate`` is what the rule is evaluated at (the post-backoff
        rate in :meth:`on_backoff`), ``rate`` the controller's current
        rate that each drop is annotated with. Returns the levels
        snapshot, refreshed if a layer went.
        """
        while True:
            # Only drainable buffering counts: the base layer's
            # stall-protection margin cannot absorb the deficit.
            total = self._drainable_total(levels)
            keep = self.add_drop.layers_after_drop_rule(
                rule_rate, total, self.active_layers, self.slope)
            if self.on_event is not None:
                slope = self.slope
                self.on_event(self.now_fn(), "drop_rule", (
                    rule_rate, self.consumption, slope, total,
                    formulas.drop_threshold(slope, total),
                    self.active_layers, keep, self._safety(levels)))
            if keep >= self.active_layers:
                return levels
            self._drop_top_layer(DropCause.RULE, rate)
            levels = self.buffer_levels()
            if self.active_layers <= 1:
                return levels

    def _base_reserve(self) -> Bytes:
        """Stall-protection bytes the base must hold beyond its targets."""
        if self.config.feedback == "ack":
            return self._base_floor
        return self._base_floor + self._inflight[0]

    def _maybe_add(self, rate: BytesPerSec, levels: list[Bytes]) -> bool:
        if not self.add_drop.can_add(
                rate, self.average_rate, self.active_layers, levels,
                self.slope, base_reserve=self._base_reserve()):
            return False
        self._activate_layer(self.now_fn())
        return True

    def safety_levels(self) -> list[Bytes]:
        """Lower bounds on the receiver's true per-layer buffering.

        With send-time crediting, the estimate leads the receiver by the
        bytes still in flight; subtracting them gives what has certainly
        arrived. (In "ack" mode the estimate itself is the lower bound.)
        """
        return self._safety(self.buffer_levels())

    def _safety(self, levels: list[Bytes]) -> list[Bytes]:
        """:meth:`safety_levels` of a levels snapshot."""
        if self.config.feedback == "ack":
            return levels
        return [spare if (spare := level - flight) > 0.0 else 0.0
                for level, flight in zip(levels, self._inflight)]

    def _pick_filling(self, rate: BytesPerSec, levels: list[Bytes]) -> int:
        # Read even when the floor decides: the very first use samples
        # the slope, and that sample must come from this call.
        slope = self.slope
        na = self.active_layers
        policy = self.filling_policy
        if self.playout_started:
            # Once playback runs, every active layer needs the maintenance
            # floor: consuming layers so they keep playing, and freshly
            # added (not yet consuming) layers as their bootstrap cushion.
            # The floor decides most filling picks, so it goes first.
            layer = policy.starved_layer(na, self._safety(levels))
            if layer is not None:
                return layer
        layer = policy.choose_target(rate, levels, na, slope).layer
        if layer is not None:
            return layer
        # Every current-layer target is satisfied: time to add a layer
        # (the first packet of the new layer goes out immediately) ...
        if self._maybe_add(rate, levels):
            return self.active_layers - 1
        # ... or, when adding is not yet possible (the base must still
        # build its stall-protection reserve on top of the targets, or
        # the codec is at its layer ceiling), park excess in the base
        # layer, where buffering is most efficient (section 2.3).
        return 0

    def _ensure_plan(self, now: Seconds, rate: BytesPerSec,
                     levels: list[Bytes]) -> list[Bytes]:
        """Plan the coming drain period unless a plan is still current.

        Returns the levels snapshot, refreshed if planning shed a layer.
        """
        if self._plan is not None and now < self._plan_until:
            return levels
        if self._sequence is None or self._frozen_rate is None:
            # Draining without a recorded backoff (e.g. a slow start below
            # consumption): freeze a path at the current consumption rate.
            self._frozen_rate = max(rate, self.consumption)
            self._refreeze_sequence()
        elif self._sequence.active_layers != self.active_layers:
            self._refreeze_sequence()
        sequence = self._sequence
        assert sequence is not None  # _refreeze_sequence just set it
        period = self.config.drain_period
        base_protection = (self._inflight[0]
                           if self.config.feedback != "ack" else 0.0)
        plan = self.planner.plan(
            rate, levels, self.active_layers, period, sequence,
            base_protection=base_protection)
        if plan.shortfall > formulas.EPSILON:
            # Regressing the whole path cannot cover this period's
            # deficit. A single period's sliver can be jitter; a
            # persistent shortfall is the critical situation of
            # section 2.2 and sheds the top layer.
            self._plan_shortfall_debt += plan.shortfall
        else:
            self._plan_shortfall_debt = 0.0
        debt_limit = (self.config.underflow_debt_packets
                      * self.config.packet_size)
        if (self._plan_shortfall_debt > debt_limit
                and self.active_layers > 1):
            self._drop_top_layer(DropCause.SHORTFALL, rate)
            self._plan_shortfall_debt = 0.0
            sequence = self._sequence
            assert sequence is not None  # refrozen by _drop_top_layer
            levels = self.buffer_levels()
            plan = self.planner.plan(
                rate, levels, self.active_layers, period, sequence,
                base_protection=base_protection)
        self._plan = plan
        self._plan_until = now + period
        self._quota = list(plan.quotas)
        return levels

    def _pick_draining(self, now: Seconds, rate: BytesPerSec,
                       levels: list[Bytes]) -> tuple[int, Bytes]:
        """The layer for a draining-phase packet and the quota it spent
        (none when the slot is surplus, filling-phase bandwidth)."""
        levels = self._ensure_plan(now, rate, levels)
        # Starvation override for the *base* layer only: it must never run
        # dry (stall), whatever the quotas say. Enhancement layers are
        # allowed to drain to empty during a draining phase -- that is the
        # maximally efficient pattern, and an empty top layer is the one
        # that gets dropped (with nothing wasted) when the phase turns
        # critical.
        safety = self._safety(levels)
        quota = self._quota
        if self.buffers.is_consuming(0) and safety[0] < self._base_floor:
            layer = 0
        else:
            # Spend quotas emptiest-layer-first (ties: largest remaining
            # quota). If the controller under-delivers this period, the
            # unspent quota then belongs to layers that still hold buffer
            # -- they absorb the shortage instead of a dry top layer.
            layer = -1
            best = best_quota = 0.0
            for i in range(self.active_layers):
                left = quota[i]
                if left > 0 and (layer < 0 or safety[i] < best
                                 or (safety[i] == best
                                     and left > best_quota)):
                    layer, best, best_quota = i, safety[i], left
            if layer < 0:
                # Every quota is spent: the controller is sending faster
                # than the plan assumed, and the surplus is filling-phase
                # bandwidth.
                return self._pick_filling(rate, levels), 0.0
        quota[layer] -= self.config.packet_size
        return layer, self.config.packet_size
