"""Strawman inter-layer buffer allocators (section 2.3).

The paper motivates its optimal allocation with two simple schemes that
fail in instructive ways:

- **Equal share** ("Dropping layers with buffered data"): every active
  layer gets the same buffer target. When the highest layer is dropped
  after a backoff, its buffered data no longer assists recovery, so
  buffering efficiency suffers.
- **Base first** ("Insufficient distribution of buffered data"): all
  buffering concentrates in the base layer. With fewer buffering layers
  than the deficit needs (a layer can only be played from its own buffer
  at rate C), upper layers must be fed entirely from the network and get
  dropped even when total buffering was plentiful.

Both reuse the optimal policy's *total* requirement (the same state
ladder) and only change how it is distributed, so comparisons isolate the
distribution decision -- exactly the ablation Table 2 quantifies.
"""

from __future__ import annotations

from typing import Sequence

from repro.core import formulas
from repro.core.draining import DrainingPlanner, DrainPlan
from repro.core.filling import FillingPolicy
from repro.core.formulas import SCENARIO_ONE, SCENARIO_TWO
from repro.core.states import StateSequence, state


class _RedistributedFillingPolicy(FillingPolicy):
    """Shares the optimal policy's ladder but redistributes each state's
    total across layers according to ``_distribute``."""

    def _distribute(self, total: float, active_layers: int) -> list[float]:
        raise NotImplementedError

    def _targets(self, built, buffers, s1_k, s2_k):
        na = len(buffers)
        req2 = state(built, SCENARIO_TWO, s2_k)[0]
        if s1_k <= self.config.k_max:
            req1 = state(built, SCENARIO_ONE, s1_k)[0]
            if req1 <= req2:
                return SCENARIO_ONE, self._distribute(req1, na)
        return SCENARIO_TWO, self._distribute(req2, na)


class EqualShareFillingPolicy(_RedistributedFillingPolicy):
    """Every layer buffers ``total / na`` (section 2.3, first strawman)."""

    def _distribute(self, total: float, active_layers: int) -> list[float]:
        return [total / active_layers] * active_layers


class BaseFirstFillingPolicy(_RedistributedFillingPolicy):
    """All buffering goes to the base layer (second strawman)."""

    def _distribute(self, total: float, active_layers: int) -> list[float]:
        return [total] + [0.0] * (active_layers - 1)


class SimpleDrainingPlanner(DrainingPlanner):
    """Draining without the reverse-path targets.

    ``order="equal"`` spreads each period's deficit evenly over layers;
    ``order="bottom_up"`` drains the base first (the natural companion of
    the base-first allocator). The base stall-protection margin is still
    honoured -- the baselines are strawmen, not saboteurs.
    """

    def __init__(self, config, order: str = "equal") -> None:
        super().__init__(config)
        if order not in ("equal", "bottom_up", "top_down"):
            raise ValueError(f"unknown drain order {order!r}")
        self.order = order

    def plan(
        self,
        rate: float,
        buffers: Sequence[float],
        active_layers: int,
        period: float,
        sequence: StateSequence,
        base_protection: float = 0.0,
    ) -> DrainPlan:
        cfg = self.config
        na = active_layers
        consumption = na * cfg.layer_rate
        need = max(0.0, (consumption - rate) * period)
        levels = [max(0.0, b) for b in buffers[:na]]
        cap = cfg.layer_rate * period
        floor = cfg.base_floor_bytes + max(0.0, base_protection)
        available = [
            max(0.0, min(cap, levels[i] - (floor if i == 0 else 0.0)))
            for i in range(na)
        ]

        drain = [0.0] * na
        remaining = need
        if self.order == "equal":
            # Waterfill evenly across layers.
            active = list(range(na))
            while remaining > formulas.EPSILON and active:
                share = remaining / len(active)
                progressed = False
                for i in list(active):
                    take = min(share, available[i] - drain[i])
                    if take > formulas.EPSILON:
                        drain[i] += take
                        remaining -= take
                        progressed = True
                    if available[i] - drain[i] <= formulas.EPSILON:
                        active.remove(i)
                if not progressed:
                    break
        else:
            order = (range(na) if self.order == "bottom_up"
                     else range(na - 1, -1, -1))
            for i in order:
                if remaining <= formulas.EPSILON:
                    break
                take = min(available[i], remaining)
                drain[i] += take
                remaining -= take

        quotas = [max(0.0, cap - drain[i]) for i in range(na)]
        return DrainPlan(drain=drain, quotas=quotas, shortfall=remaining,
                         state_index=-1)
