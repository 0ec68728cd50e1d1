"""Coarse-grain layer add/drop rules (sections 2.1, 2.2, 3.1).

Adding is the smoothing knob. The paper examines three rules and settles
on the third:

1. ``buffer_and_rate`` -- section 2.1's minimal criteria: the
   instantaneous rate exceeds the consumption rate of existing plus new
   layers (C1) *and* there is enough buffering to survive one immediate
   backoff with the new layer (C2).
2. ``average_bandwidth`` -- section 3.1's first alternative: add when the
   *average* rate exceeds the consumption of existing plus new layers
   (kept here as a baseline; the paper rejects it because a link fitting
   2.9 layers would then never see the third layer).
3. ``buffer_only`` -- the paper's final rule ("the only condition for
   adding a new layer is availability of optimal buffer allocation for
   recovery from K_max backoffs"): every active layer holds at least its
   target share for the last state of the K_max sequence, in both
   scenarios.

Dropping (section 2.2) is mechanical: after a backoff (and on every
draining-planner tick, which covers further backoffs and slope
mis-estimates -- the paper's "critical situations"), drop top layers while
the deficit triangle exceeds what total buffering can cover.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core import formulas
from repro.core.config import QAConfig
from repro.core.states import kmax_targets
from repro.core.units import Bytes, BytesPerSec, BytesPerSec2


class AddDropPolicy:
    """Implements the configured add rule plus the universal drop rule."""

    def __init__(self, config: QAConfig) -> None:
        self.config = config

    # ------------------------------------------------------------- adding

    def can_add(
        self,
        rate: BytesPerSec,
        average_rate: BytesPerSec,
        active_layers: int,
        buffers: Sequence[Bytes],
        slope: BytesPerSec2,
        base_reserve: Bytes = 0.0,
    ) -> bool:
        """Should a new layer be added right now?

        Args:
            rate: instantaneous transmission rate (bytes/s).
            average_rate: smoothed rate for the ``average_bandwidth`` rule.
            active_layers: current ``na``.
            buffers: per-layer buffered bytes, base first, length ``na``.
            slope: AIMD slope S.
            base_reserve: bytes of the base buffer that do not count as
                recovery buffering (the stall-protection margin); the base
                must hold its target share on top of this.
        """
        cfg = self.config
        if active_layers >= cfg.max_layers:
            return False
        rule = cfg.add_rule
        if rule == "average_bandwidth":
            new_consumption = cfg.consumption(active_layers + 1)
            if average_rate < new_consumption:
                return False
            # Keep section 2.1's C2 so the baseline is not suicidal: enough
            # buffering to survive one immediate backoff with the new layer.
            required = formulas.one_backoff_requirement(
                rate, new_consumption, slope)
            return sum(buffers) + formulas.EPSILON >= required

        if rule == "buffer_and_rate":
            if rate < cfg.consumption(active_layers + 1):
                return False
        # Section 2.1's minimal criterion (condition 2) always applies:
        # enough usable buffering to survive one immediate backoff while
        # playing the existing layers *plus the new one*. Without it, an
        # add at a marginal rate is followed by an immediate rule drop.
        usable = max(0.0, sum(buffers) - base_reserve)
        condition2 = formulas.one_backoff_requirement(
            rate, cfg.consumption(active_layers + 1), slope)
        if usable + formulas.EPSILON < condition2:
            return False
        # Both buffer_only and buffer_and_rate additionally need the
        # K_max smoothing targets met, computed with the existing layers
        # (section 3.1: "sufficient amount of buffered data to survive
        # K_max backoffs with existing layers"). When the rate hovers
        # just above the new consumption level this deliberately produces
        # add / ride-the-buffers / drop cycles -- the paper's modem
        # example expects the extra layer to be delivered "90% of the
        # time" rather than never.
        targets = list(kmax_targets(
            rate, cfg.layer_rate, active_layers, slope, cfg.k_max))
        targets[0] += base_reserve
        return all(
            buffers[i] + formulas.EPSILON >= targets[i]
            for i in range(active_layers)
        )

    def kmax_margin(
        self,
        rate: BytesPerSec,
        active_layers: int,
        buffers: Sequence[Bytes],
        slope: BytesPerSec2,
        base_reserve: Bytes = 0.0,
    ) -> Optional[Bytes]:
        """Worst-layer headroom over the ``K_max`` smoothing targets.

        ``min_i(buffers[i] - targets[i])`` against the final state of the
        ``K_max`` sequence (the ``buffer_only`` add condition): positive
        means every layer holds its recovery share and an add is
        buffer-feasible, negative says how many bytes the worst layer is
        short. ``None`` at the codec's layer ceiling, where no add can
        ever happen. This is diagnostic-only (decision records): the add
        path keeps its own exact rule in :meth:`can_add`.
        """
        cfg = self.config
        if active_layers >= cfg.max_layers:
            return None
        targets = list(kmax_targets(
            rate, cfg.layer_rate, active_layers, slope, cfg.k_max))
        targets[0] += base_reserve
        return min(
            buffers[i] - targets[i] for i in range(active_layers)
        )

    # ----------------------------------------------------------- dropping

    def layers_after_drop_rule(
        self,
        rate: BytesPerSec,
        total_buffer: Bytes,
        active_layers: int,
        slope: BytesPerSec2,
    ) -> int:
        """Apply the section 2.2 rule; returns the surviving layer count."""
        return formulas.layers_to_keep(
            rate, total_buffer, self.config.layer_rate, slope, active_layers)
