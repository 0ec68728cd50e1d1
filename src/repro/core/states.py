"""Optimal buffer states and the maximally efficient filling path.

Section 4 of the paper organizes buffering targets as a sequence of
*states* ``(scenario, k)`` -- "enough optimally-distributed buffering to
survive k backoffs under that scenario" -- ordered by increasing total
requirement (Figure 9). Because that raw ordering sometimes asks a layer
for *less* buffer than an earlier state did (which would mean draining
during a filling phase), the per-layer targets along the path are made
monotone (Figure 10): a later state's effective target for a layer is at
least every earlier state's target. Buffering kept in a lower layer than
strictly necessary is always usable for recovery (lower-layer buffering is
*more* efficient, section 2.3), so the monotone path still protects every
state it has passed.

:class:`StateSequence` is used two ways:

- analytically, to regenerate Figures 8, 9 and 10;
- operationally, by the draining planner (section 4.2), which walks the
  same path backwards.

The per-packet filling algorithm (:mod:`repro.core.filling`) does not read
a precomputed sequence -- following the paper's pseudocode it recomputes
its working state on the fly -- but the two agree (tested).

The add condition (section 3.1) needs only the *end* of the path, the
per-layer maxima over all states. :func:`kmax_targets` computes that
vector directly; nothing on the add path builds a sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core import formulas
from repro.core.formulas import SCENARIO_ONE, SCENARIO_TWO
from repro.core.units import Bytes, BytesPerSec, BytesPerSec2


@dataclass(frozen=True)
class BufferState:
    """One optimal buffer state.

    Attributes:
        scenario: 1 or 2.
        k: number of backoffs survived.
        total: total buffering the raw state requires (bytes).
        shares: raw optimal per-layer allocation (base first, bytes).
        effective_shares: per-layer targets after the monotonicity
            constraint of Figure 10 (only set when the state is part of a
            :class:`StateSequence`).
    """

    scenario: int
    k: int
    total: Bytes
    shares: tuple[Bytes, ...]
    effective_shares: tuple[Bytes, ...] = ()

    @property
    def effective_total(self) -> Bytes:
        return formulas.share_sum(self.effective_shares or self.shares)

    def label(self) -> str:
        return f"S{self.scenario}k{self.k}"


class StateSequence:
    """The ordered, monotone sequence of buffer states for one situation.

    Args:
        rate: transmission rate R the scenarios back off from (bytes/s).
        layer_rate: per-layer consumption C (bytes/s).
        active_layers: na.
        slope: AIMD linear-increase slope S (bytes/s^2).
        k_max: largest number of backoffs to provision for.

    The sequence contains, for each ``k`` in ``1..k_max``, the scenario-1
    and scenario-2 states (deduplicated when they coincide, i.e. when
    ``k <= k1``), sorted by raw total requirement with scenario 1 first on
    ties (matching Figure 9). ``effective_shares`` are the running
    element-wise maxima, so they are monotone along the sequence.
    """

    def __init__(self, rate: BytesPerSec, layer_rate: BytesPerSec,
                 active_layers: int, slope: BytesPerSec2,
                 k_max: int) -> None:
        if k_max < 1:
            raise ValueError("k_max must be at least 1")
        if active_layers < 1:
            raise ValueError("need at least one active layer")
        self.rate = rate
        self.layer_rate = layer_rate
        self.active_layers = active_layers
        self.slope = slope
        self.k_max = k_max
        self.states: list[BufferState] = self._build()

    def _build(self) -> list[BufferState]:
        # Raw states as ``(total, scenario, k, shares)`` tuples, computed
        # with the float expressions of ``formulas.scenario_total`` and
        # ``formulas.scenario_shares`` (bands once per k, not per state).
        rate, layer_rate, slope = self.rate, self.layer_rate, self.slope
        na = self.active_layers
        consumption = na * layer_rate
        k1 = formulas.k1_backoffs(rate, consumption)
        padding = (0.0,) * na
        first_total = sequential = 0.0
        first = seq = padding
        raw: list[tuple[Bytes, int, int, tuple[Bytes, ...]]] = []
        for k in range(1, self.k_max + 1):
            deficit = formulas.deficit_after_backoffs(rate, consumption, k)
            total = formulas.triangle_area(deficit, slope)
            bands = formulas.band_shares(deficit, layer_rate, slope) + padding
            raw.append((total, SCENARIO_ONE, k, bands[:na]))
            if k == k1:
                # Scenario 2 departs from here (it equals scenario 1 up
                # to k1): these bands plus (k - k1) sequential triangles.
                first_total, first = total, bands
                sequential = formulas.triangle_area(consumption / 2.0, slope)
                seq = formulas.band_shares(
                    consumption / 2.0, layer_rate, slope) + padding
            elif k > k1:
                n = k - k1
                raw.append((first_total + n * sequential, SCENARIO_TWO, k,
                            tuple([a + n * b
                                   for a, b in zip(first[:na], seq)])))
        # Figure 9 ordering: increasing total requirement; scenario 1 wins
        # ties; then smaller k first. No two states share (scenario, k),
        # so the tuples never compare their shares.
        raw.sort()
        running = padding
        out: list[BufferState] = []
        for total, scenario, k, shares in raw:
            running = tuple(map(max, running, shares))
            out.append(BufferState(scenario, k, total, shares, running))
        return out

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[BufferState]:
        return iter(self.states)

    def __getitem__(self, index: int) -> BufferState:
        return self.states[index]

    @property
    def final_targets(self) -> tuple[Bytes, ...]:
        """Per-layer targets whose satisfaction allows adding a layer."""
        if not self.states:
            return tuple([0.0] * self.active_layers)
        return self.states[-1].effective_shares

    def position(self, buffers: Sequence[Bytes]) -> int:
        """Index of the last state fully satisfied by ``buffers``.

        A state is satisfied when every layer holds at least its effective
        share. Returns -1 when not even the first state is satisfied.
        Because effective shares are monotone, satisfaction is a prefix
        property: this is the filling progress pointer.
        """
        pos = -1
        for i, state in enumerate(self.states):
            if all(b + formulas.EPSILON >= s
                   for b, s in zip(buffers, state.effective_shares)):
                pos = i
            else:
                break
        return pos

    def survivable_position(self, total_buffer: Bytes) -> int:
        """Index of the largest state whose *total* fits in ``total_buffer``.

        The draining planner uses totals (not per-layer shares) to decide
        how far back along the path it must regress; -1 when even the
        first state's total exceeds the buffering.
        """
        pos = -1
        for i, state in enumerate(self.states):
            if state.total <= total_buffer + formulas.EPSILON:
                pos = i
            else:
                break
        return pos


def kmax_targets(rate: BytesPerSec, layer_rate: BytesPerSec,
                 active_layers: int, slope: BytesPerSec2,
                 k_max: int) -> tuple[Bytes, ...]:
    """``StateSequence(...).final_targets`` without the sequence.

    The last state's effective shares are the element-wise maximum over
    every raw state, and a maximum does not depend on the Figure 9 order:
    no totals, no sort, no :class:`BufferState` objects. Every share is
    computed with the float expressions :func:`formulas.scenario_shares`
    uses, so the result is the same tuple of floats (tested with ``==``).
    """
    # Checks in the order the sequence meets them (k1 validates the rate).
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if active_layers < 1:
        raise ValueError("need at least one active layer")
    consumption = active_layers * layer_rate
    k1 = formulas.k1_backoffs(rate, consumption)
    if slope <= 0:
        raise ValueError("slope must be positive")
    targets = [0.0] * active_layers
    padding = (0.0,) * active_layers
    first = seq = padding
    for k in range(1, k_max + 1):
        # Scenario 1: one triangle after k immediate backoffs.
        bands = formulas.band_shares(
            consumption - rate / (2.0 ** k), layer_rate, slope)
        for i, share in enumerate(bands[:active_layers]):
            if share > targets[i]:
                targets[i] = share
        if k == k1:
            # Scenario 2 departs from here: these bands plus (k - k1)
            # sequential triangles of height consumption/2.
            first = bands + padding
            seq = formulas.band_shares(
                consumption / 2.0, layer_rate, slope) + padding
        elif k > k1:
            for i in range(active_layers):
                share = first[i] + (k - k1) * seq[i]
                if share > targets[i]:
                    targets[i] = share
    return tuple(targets)
