"""Appendix A's ladder of buffer states, and the maximally efficient path.

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

:func:`ladder` computes every state once, with the float expressions of
eqs A.4-A.5: ``k1``, the scenario-1 state of each k, scenario 2's first
and sequential triangles, and the per-layer maxima over the states up to
``K_max``. One kernel does it in two halves: the sequential triangle's
bands depend on ``(C, na, S)`` and not on the rate, and one rate walk
takes ``k1``, the rungs up to ``K_max`` and the maxima. Everything else
reads it:

- :func:`state` composes any ``(scenario, k)`` state from a ladder;
- :func:`kmax_targets` is the end of the path, which the add condition
  (section 3.1), the filling policy's K_max step and the fluid split
  read per call -- a plain function, no sequence and no sort;
  :func:`kmax_form` binds its rate-free half once, for the fluid add
  residual's probes;
- :class:`StateSequence` sorts the states up to ``K_max`` (Figure 9) and
  takes the running maximum (Figure 10), for the draining planner
  (section 4.2) and the analytic figures;
- the per-packet filling algorithm (:mod:`repro.core.filling`) searches
  the ladder's totals for its working states on the fly, following the
  paper's pseudocode.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Iterator, Sequence

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
        self.rate = rate
        self.layer_rate = layer_rate
        self.active_layers = active_layers
        self.slope = slope
        self.k_max = k_max
        self.states: list[BufferState] = self._build()

    def _build(self) -> list[BufferState]:
        k_max = self.k_max
        built = ladder(self.rate, self.layer_rate, self.active_layers,
                       self.slope, k_max)
        # Scenario 2 coincides with scenario 1 up to k1: one state each.
        raw: list[tuple[Bytes, int, int, tuple[Bytes, ...]]] = []
        for scenario, first in ((SCENARIO_ONE, 1),
                                (SCENARIO_TWO, built[0] + 1)):
            for k in range(first, k_max + 1):
                total, shares = state(built, scenario, k)
                raw.append((total, scenario, k, shares))
        # Figure 9 ordering: increasing total requirement; scenario 1 wins
        # ties; then smaller k first. No two states share (scenario, k),
        # so the tuples never compare their shares.
        raw.sort()
        running = (0.0,) * self.active_layers
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


#: One buffer state: its total requirement and its base-first per-layer
#: shares.
State = tuple[Bytes, tuple[Bytes, ...]]
#: What :func:`ladder` returns: ``(k1, rungs, sequential, targets)``.
Ladder = tuple[int, list[State], State, tuple[Bytes, ...]]


def ladder(rate: BytesPerSec, layer_rate: BytesPerSec,
           active_layers: int, slope: BytesPerSec2, k_max: int) -> Ladder:
    """Appendix A's states for one situation, each computed once.

    Returns ``(k1, rungs, sequential, targets)``:

    - ``k1`` (A.4): the immediate backoffs that take ``rate`` below the
      consumption ``na*C``;
    - ``rungs[k - 1]``: the scenario-1 state of ``k`` backoffs, the
      triangle of height ``na*C - R/2^k`` (equation 1) sliced into bands
      of height C (A.5, Figure 4), for every ``k`` up to
      ``max(k_max, k1)``; scenario 2 is the same state up to ``k1``;
    - ``sequential``: one recovery triangle of height ``na*C/2``;
      scenario 2's state ``k1 + n`` is ``rungs[k1 - 1]`` plus ``n`` of
      them;
    - ``targets``: the per-layer maxima over every state up to ``k_max``
      in both scenarios, the end of the monotone path.

    ``sequential`` is the rate-free half (:func:`_rate_free`); ``k1``,
    the rungs and the targets come from one rate walk (:func:`_walk`),
    the same code :func:`kmax_targets` and :func:`kmax_form` run. A
    rung holds only the bands its triangle reaches (the layers above
    hold nothing), cut to ``na`` when repeated additions of C fall short
    of ``na*C`` and the slicer yields a sliver more; :func:`state` pads
    them to ``na`` layers.
    """
    sequential = _rate_free(layer_rate, active_layers, slope, k_max)
    rungs: list[State] = []
    k1, targets = _walk(rate, layer_rate, active_layers, slope, k_max,
                        sequential[1], rungs)
    return k1, rungs, sequential, tuple(targets)


def state(built: Ladder, scenario: int, k: int) -> State:
    """``(total, shares)`` of the state ``(scenario, k)`` of a ladder,
    its shares padded with zeros to the active layer count.

    Scenario 1, and scenario 2 up to ``k1``, is a rung; scenario 2 past
    ``k1`` adds ``k - k1`` sequential triangles to rung ``k1`` (Figure
    14). ``k`` must be covered by the ladder (a scenario-2 ``k`` past
    ``k1`` always is).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    k1, rungs, sequential, targets = built
    if scenario == SCENARIO_ONE or (scenario == SCENARIO_TWO and k <= k1):
        total, shares = rungs[k - 1]
    elif scenario == SCENARIO_TWO:
        (first_total, first), (seq_total, seq) = rungs[k1 - 1], sequential
        total = first_total + (k - k1) * seq_total
        shares = tuple(_past_k1(first, seq, k - k1))
    else:
        raise ValueError(f"scenario must be 1 or 2, got {scenario}")
    return total, shares + (0.0,) * (len(targets) - len(shares))


def kmax_targets(rate: BytesPerSec, layer_rate: BytesPerSec,
                 active_layers: int, slope: BytesPerSec2,
                 k_max: int) -> tuple[Bytes, ...]:
    """The ladder's ``targets``: the per-layer shares whose satisfaction
    allows adding a layer (section 3.1).

    Equal, float for float, to ``StateSequence(...).final_targets``
    (tested with ``==``), with no :class:`BufferState` objects, no sort
    and no rung past ``K_max``: the add condition asks for it per call.
    """
    sequential = _rate_free(layer_rate, active_layers, slope, k_max)[1]
    return tuple(_walk(rate, layer_rate, active_layers, slope, k_max,
                       sequential)[1])


def kmax_form(layer_rate: BytesPerSec, active_layers: int,
              slope: BytesPerSec2,
              k_max: int) -> Callable[[BytesPerSec], list[Bytes]]:
    """:func:`kmax_targets` bound for one ``(C, na, S, K_max)``: ``rate
    -> targets``, as a list.

    The rate-free half (the checks of these arguments and the
    sequential triangle's bands) is done here, once; a call is the rate
    walk alone. The fluid add residual binds one per window and calls
    it at every probe.
    """
    sequential = _rate_free(layer_rate, active_layers, slope, k_max)[1]

    def targets(rate: BytesPerSec) -> list[Bytes]:
        return _walk(rate, layer_rate, active_layers, slope, k_max,
                     sequential)[1]

    return targets


def _rate_free(layer_rate: BytesPerSec, active_layers: int,
               slope: BytesPerSec2, k_max: int) -> State:
    """Check the arguments no rate enters, and slice scenario 2's
    sequential triangle, of height ``na*C/2`` (Figure 14), into bands
    cut to ``na``."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if active_layers < 1:
        raise ValueError("need at least one active layer")
    if slope <= 0:
        raise ValueError("slope must be positive")
    half = active_layers * layer_rate / 2.0
    return (half * half / (2.0 * slope), formulas.band_shares(
        half, layer_rate, slope)[:active_layers])


def _walk(rate: BytesPerSec, layer_rate: BytesPerSec, active_layers: int,
          slope: BytesPerSec2, k_max: int, sequential: tuple[Bytes, ...],
          rungs: list[State] | None = None) -> tuple[int, list[Bytes]]:
    """The rate walk: ``(k1, targets)`` for one rate, given the
    sequential triangle's bands.

    Slices the rungs ``1..K_max``, and lifts ``targets`` to the
    per-layer maxima over every state up to ``K_max``. A maximum does
    not depend on the Figure 9 order, and ``a + n*b`` with ``b >= 0``
    never falls as ``n`` grows, so scenario 2 contributes its ``K_max``
    state alone: rung ``k1`` plus ``K_max - k1`` sequential triangles.
    Given ``rungs``, appends ``(total, bands)`` of every rung to it, on
    to ``k1`` (the filling policy reads scenario 2 up to there).
    """
    consumption = active_layers * layer_rate
    # k1 validates the rate and the consumption.
    k1 = formulas.k1_backoffs(rate, consumption)
    targets = [0.0] * active_layers
    first: tuple[Bytes, ...] = ()
    for k in range(1, (k_max if rungs is None else max(k_max, k1)) + 1):
        deficit = consumption - rate / (2.0 ** k)
        bands = formulas.band_shares(
            deficit, layer_rate, slope)[:active_layers]
        if rungs is not None:
            rungs.append((deficit * deficit / (2.0 * slope)
                          if deficit > 0 else 0.0, bands))
        if k > k_max:
            continue
        if k == k1:
            first = bands
        for i, share in enumerate(bands):
            if share > targets[i]:
                targets[i] = share
    if k_max > k1:
        for i, share in enumerate(_past_k1(first, sequential, k_max - k1)):
            if share > targets[i]:
                targets[i] = share
    return k1, targets


def _past_k1(first: Sequence[Bytes], sequential: Sequence[Bytes],
             n: int) -> list[Bytes]:
    """Scenario 2's shares ``n`` sequential backoffs past ``k1``, from
    rung ``k1``'s; a layer either triangle does not reach adds
    nothing."""
    return [a + n * b for a, b in zip_longest(first, sequential,
                                               fillvalue=0.0)]
