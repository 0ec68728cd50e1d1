"""Fine-grain bandwidth allocation during the filling phase (section 4.1).

This is the paper's per-packet ``SendPacket`` algorithm: every
transmission opportunity is assigned to one layer so that the receiver's
per-layer buffers climb through the maximally efficient sequence of
optimal states (Figure 10) without ever draining a buffer mid-filling.

The algorithm, restated:

1. Find ``s1_k``: the smallest k whose scenario-1 total requirement is not
   yet covered by the available buffering (stop past ``k_max`` -- scenario
   1 fully provisioned).
2. Find ``s2_k`` likewise for scenario 2 (not capped: once both scenarios
   reach ``k_max`` the adapter adds a layer, which restarts the walk; at
   the codec's maximum layer count the walk simply keeps deepening
   protection).
3. Walk layers base-first. If the pending scenario-1 state needs less
   total buffering than the pending scenario-2 state, fill the first layer
   below its scenario-1 share. Otherwise fill the first layer below its
   scenario-2 share **and** still below its scenario-1 share -- the clamp
   of section 4 ("no more than the next scenario 1 state"), which pushes
   any excess to higher layers where it can still substitute for
   lower-layer buffering.

One practical addition for a packetized (non-fluid) system: a small
per-layer *maintenance floor*. In the fluid model a layer at its target
keeps receiving exactly C, so its buffer never moves; with packets and
one-RTT-stale feedback a layer could momentarily starve. Layers whose
buffer falls below the floor get absolute priority (most-depleted first).
The floor is a fraction of a second of layer data (see
:attr:`repro.core.config.QAConfig.maintenance_floor`) and is far below any
optimal share, so it does not disturb the filling path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core import formulas
from repro.core.config import QAConfig
from repro.core.formulas import SCENARIO_ONE, SCENARIO_TWO
from repro.core.states import Ladder, ladder, state
from repro.core.units import Bytes, BytesPerSec, BytesPerSec2

#: Runaway guard for the (normally small) scenario-2 search.
_MAX_K_SEARCH = 10_000


@dataclass
class FillingDecision:
    """Outcome of one per-packet decision (kept for traces and tests)."""

    layer: Optional[int]
    s1_k: int
    s2_k: int
    working_scenario: int
    maintenance: bool = False

    @property
    def working_state(self) -> str:
        k = self.s1_k if self.working_scenario == SCENARIO_ONE else self.s2_k
        return f"S{self.working_scenario}k{k}"


class FillingPolicy:
    """Chooses the layer for each packet sent during a filling phase."""

    def __init__(self, config: QAConfig) -> None:
        self.config = config
        # The three maintenance floors (see :meth:`starved_layer`).
        self._base_floor = config.base_floor_bytes
        self._floor = config.floor_bytes
        self._top_floor = min(self._floor, float(config.packet_size))

    def choose(
        self,
        rate: BytesPerSec,
        buffers: Sequence[Bytes],
        active_layers: int,
        slope: BytesPerSec2,
        needs_floor: Optional[Sequence[bool]] = None,
        safety_levels: Optional[Sequence[Bytes]] = None,
    ) -> FillingDecision:
        """Pick the layer the next packet should carry.

        Args:
            rate: current transmission rate R (bytes/s).
            buffers: per-layer buffered bytes (server's estimate), base
                first, length >= ``active_layers``.
            active_layers: na.
            slope: AIMD slope S.
            needs_floor: per-layer flags -- which layers the maintenance
                floor protects (typically all of them once playback has
                begun; none before). Defaults to all.
            safety_levels: per-layer *lower bounds* on what the receiver
                actually holds (the estimate minus in-flight bytes for a
                send-time-crediting estimator). The maintenance floor is
                checked against these; target filling uses ``buffers``.
                Defaults to ``buffers``.

        Returns a :class:`FillingDecision`; ``layer`` is None only when
        every target is met (the adapter then adds a layer or parks excess
        bandwidth in the base layer).
        """
        layer = self.starved_layer(
            active_layers, buffers if safety_levels is None
            else safety_levels, needs_floor)
        if layer is not None:
            return FillingDecision(layer, 0, 0, SCENARIO_ONE,
                                   maintenance=True)
        return self.choose_target(rate, buffers, active_layers, slope)

    def choose_target(
        self,
        rate: BytesPerSec,
        buffers: Sequence[Bytes],
        active_layers: int,
        slope: BytesPerSec2,
    ) -> FillingDecision:
        """:meth:`choose` once no layer is below its maintenance floor:
        the first layer below its working state's target."""
        cfg = self.config
        k_max = cfg.k_max
        na = active_layers
        buffers = buffers[:na]
        bound = sum(buffers) + formulas.EPSILON
        built = ladder(rate, cfg.layer_rate, na, slope, k_max)
        k1, rungs, sequential, _ = built
        # The pseudocode's WHILE loops, read off the ladder: the first
        # state of each scenario whose total the buffering does not
        # cover. Scenario 1 stops past K_max (fully provisioned);
        # scenario 2 is scenario 1 up to k1 and is not capped.
        s1_k = next((k for k in range(1, k_max + 1)
                     if rungs[k - 1][0] > bound), k_max + 1)
        s2_k = next((k for k in range(1, k1 + 1)
                     if rungs[k - 1][0] > bound), None)
        if s2_k is None:
            s2_k = k1 + self._sequential_backoffs(
                rungs[k1 - 1][0], sequential[0], bound, k1)

        scenario, targets = self._targets(built, buffers, s1_k, s2_k)
        for layer in range(na):
            if targets[layer] > buffers[layer] + formulas.EPSILON:
                return FillingDecision(layer, s1_k, s2_k, scenario)
        return FillingDecision(None, s1_k, s2_k, scenario)

    def _targets(self, built: Ladder, buffers: Sequence[Bytes], s1_k: int,
                 s2_k: int) -> tuple[int, Sequence[Bytes]]:
        """The working scenario and the per-layer targets to fill to."""
        k_max = self.config.k_max
        if s1_k > k_max and s2_k > k_max:
            # Every state up to K_max is covered *in total*; before
            # deepening protection beyond K_max, make sure the K_max
            # distribution itself is complete per layer (the pseudocode's
            # total-based loops can leave a middle layer below its share
            # while the base over-fills, which would stall the add rule).
            targets = built[3]
            if any(target > held + formulas.EPSILON
                   for target, held in zip(targets, buffers)):
                return SCENARIO_TWO, targets
        req2, shares2 = state(built, SCENARIO_TWO, s2_k)
        if s1_k > k_max:
            return SCENARIO_TWO, shares2
        req1, shares1 = state(built, SCENARIO_ONE, s1_k)
        if req1 <= req2:
            return SCENARIO_ONE, shares1
        # Working towards the scenario-2 state, clamped by the pending
        # scenario-1 state: no layer is filled beyond its share at the
        # *next* scenario-1 state; the excess is redistributed to higher
        # layers (where it can still substitute for lower-layer
        # buffering). This is the section 4 constraint that keeps the
        # path monotone.
        return SCENARIO_TWO, self._clamp_shares(shares2, shares1)

    def starved_layer(
        self, na: int, safety_levels: Sequence[Bytes],
        needs_floor: Optional[Sequence[bool]] = None,
    ) -> Optional[int]:
        """The emptiest protected layer below its maintenance floor.

        The floor keeps every protected layer playable. The top layer
        gets only a one-packet floor -- in the optimal allocation it
        holds (near) nothing, riding the network at C, so that when it
        is dropped almost no buffered data is wasted (this is what
        drives the paper's buffering efficiency to ~100%). The base
        never goes thin. Ties go to the lower layer. ``needs_floor``
        flags the protected layers (default: all).

        The one floor check: :meth:`choose` makes it first, and so does
        the adapter, before it asks for a target at all.
        """
        base, middle, top = self._base_floor, self._floor, self._top_floor
        worst = None
        for layer in range(na):
            floor = (base if layer == 0
                     else middle if layer < na - 1 else top)
            level = safety_levels[layer]
            if (level < floor
                    and (needs_floor is None or needs_floor[layer])
                    and (worst is None or level < safety_levels[worst])):
                worst = layer
        return worst

    @staticmethod
    def _clamp_shares(
        raw: Sequence[Bytes], caps: Sequence[Bytes]
    ) -> tuple[Bytes, ...]:
        """Clamp ``raw`` element-wise at ``caps``, carrying any excess to
        higher layers; leftover that no cap can hold lands on the top
        layer (total protection is preserved either way)."""
        clamped: list[float] = []
        carry = 0.0
        for share, cap in zip(raw, caps):
            want = share + carry
            give = min(want, cap)
            clamped.append(give)
            carry = want - give
        if carry > 0 and clamped:
            clamped[-1] += carry
        return tuple(clamped)

    @staticmethod
    def _sequential_backoffs(first: Bytes, sequential: Bytes,
                             bound: Bytes, k1: int) -> int:
        """Smallest ``n >= 1`` whose scenario-2 total ``first + n *
        sequential`` (the ladder's state ``k1 + n``) exceeds ``bound``.

        The total grows linearly past ``k1``, so ``n`` comes from one
        division, corrected by at most a couple of exact comparisons of
        the same expression :func:`repro.core.states.state` uses.
        """
        n = max(1, int((bound - first) / sequential))
        while n > 1 and first + (n - 1) * sequential > bound:
            n -= 1
        while first + n * sequential <= bound and k1 + n < _MAX_K_SEARCH:
            n += 1
        if k1 + n > _MAX_K_SEARCH:  # pragma: no cover - runaway guard
            n = _MAX_K_SEARCH - k1
        return n
