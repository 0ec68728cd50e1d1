"""Per-layer receiver-buffer bookkeeping.

The same accounting is used twice: by the actual receiver (playout) and by
the server-side estimator that drives adaptation decisions (the server
learns deliveries from ACKs, one RTT late, and computes consumption from
the playout clock it agreed on with the client at session start).

Buffers are fluid byte counters, matching the paper's model: ``level =
delivered - consumed``, consumption is a constant ``C`` per active layer.
"""

from __future__ import annotations

from bisect import insort
from typing import Optional

from repro.core.tolerances import EPSILON
from repro.core.units import Bytes, BytesPerSec, Seconds


class LayerBufferSet:
    """A set of per-layer buffers with independent consumption clocks.

    ``consume_until(t)`` advances every *consuming* layer's clock to ``t``,
    draining ``C * dt`` from each and reporting shortfalls (bytes a layer
    wanted to play but did not have). A layer can be active (being sent and
    buffered) before its consumption starts -- that is the startup window.

    The state is a struct of arrays -- one list per field, indexed by
    layer -- plus the ascending list of consuming layers, so the
    per-packet calls (:meth:`consume_until`, :meth:`levels`) touch only
    floats in lists.
    """

    def __init__(self, layer_rate: BytesPerSec, max_layers: int) -> None:
        if layer_rate <= 0:
            raise ValueError("layer_rate must be positive")
        if max_layers < 1:
            raise ValueError("max_layers must be at least 1")
        self.layer_rate = layer_rate
        self.max_layers = max_layers
        self._delivered: list[Bytes] = [0.0] * max_layers
        self._consumed: list[Bytes] = [0.0] * max_layers
        #: Consumption clock position per layer (simulation time). Clocks
        #: are per layer: one can start without advancing the others.
        self._clock: list[Seconds] = [0.0] * max_layers
        self._active = [False] * max_layers
        self._consuming: list[int] = []  # ascending
        #: Bytes consumed since the set was made, by every layer it ever
        #: had: a running counter, so it never falls when a layer goes.
        self.played: Bytes = 0.0

    # ---------------------------------------------------------- lifecycle

    def activate(self, layer: int, now: Seconds) -> None:
        """Start buffering (and clocking) layer ``layer`` at time ``now``."""
        if self._active[layer]:
            raise ValueError(f"layer {layer} already active")
        self._active[layer] = True
        self._clock[layer] = now

    def start_consuming(self, layer: int, now: Seconds) -> None:
        """Begin draining ``layer`` at rate C from time ``now``."""
        if not self._active[layer]:
            raise ValueError(f"layer {layer} not active")
        if layer not in self._consuming:
            insort(self._consuming, layer)
        self._clock[layer] = now

    def deactivate(self, layer: int) -> Bytes:
        """Stop layer ``layer``; returns the buffered bytes discarded."""
        if not self._active[layer]:
            raise ValueError(f"layer {layer} not active")
        remaining = self.level(layer)
        self._delivered[layer] = self._consumed[layer] = 0.0
        self._clock[layer] = 0.0
        self._active[layer] = False
        if layer in self._consuming:
            self._consuming.remove(layer)
        return remaining

    def is_active(self, layer: int) -> bool:
        return self._active[layer]

    def is_consuming(self, layer: int) -> bool:
        return layer in self._consuming

    # --------------------------------------------------------------- data

    def deliver(self, layer: int, nbytes: Bytes) -> None:
        """Record ``nbytes`` of layer data arriving at the receiver."""
        if nbytes < 0:
            raise ValueError("cannot deliver negative bytes")
        if self._active[layer]:
            # (data for a dropped layer still plays but isn't tracked)
            self._delivered[layer] += nbytes

    def withdraw(self, layer: int, nbytes: Bytes) -> None:
        """Un-credit ``nbytes`` that turned out to be lost in transit.

        Used by send-time-crediting estimators when the congestion
        controller detects a loss. The account may momentarily go
        negative; :meth:`level` clamps reads at zero.
        """
        if nbytes < 0:
            raise ValueError("cannot withdraw negative bytes")
        if self._active[layer]:
            self._delivered[layer] -= nbytes

    def consume_until(self, now: Seconds) -> dict[int, Bytes]:
        """Advance all consumption clocks to ``now``.

        Returns ``{layer: shortfall_bytes}``, ascending by layer, for
        layers that wanted more data than they had (underflow). Clocks
        advance even on shortfall; stall semantics (pausing) are the
        playout policy's job and are implemented by it calling
        :meth:`pause` instead.
        """
        shortfalls: dict[int, float] = {}
        rate = self.layer_rate
        delivered, consumed, clock = (
            self._delivered, self._consumed, self._clock)
        played = 0.0
        for layer in self._consuming:
            dt = now - clock[layer]
            if dt <= 0:
                continue
            clock[layer] = now
            want = rate * dt
            have = delivered[layer] - consumed[layer]
            if have >= want:  # the per-packet case: the layer plays
                consumed[layer] += want
                played += want
                continue
            take = max(0.0, have)
            consumed[layer] += take
            played += take
            if want - take > EPSILON:
                shortfalls[layer] = want - take
        self.played += played
        return shortfalls

    def pause(self, now: Seconds) -> None:
        """Advance all clocks to ``now`` without consuming (playback stall)."""
        for layer in self._consuming:
            self._clock[layer] = now

    # ------------------------------------------------------------ queries

    def level(self, layer: int) -> Bytes:
        """Buffered bytes of ``layer`` (clamped at zero)."""
        return max(0.0, self._delivered[layer] - self._consumed[layer])

    def levels(self, active_layers: int) -> list[Bytes]:
        """Base-first buffer levels of the first ``active_layers`` layers."""
        delivered, consumed = self._delivered, self._consumed
        return [level if (level := delivered[i] - consumed[i]) > 0.0 else 0.0
                for i in range(active_layers)]

    def total(self, active_layers: Optional[int] = None) -> Bytes:
        """Sum of buffered bytes over the first ``active_layers`` layers
        (``0.0``, a float like every other sum, when there are none)."""
        return sum(self.levels(
            self.max_layers if active_layers is None else active_layers),
            0.0)

    def delivered(self, layer: int) -> Bytes:
        """Cumulative bytes credited to ``layer``."""
        return self._delivered[layer]

    def consumed(self, layer: int) -> Bytes:
        """Cumulative bytes the decoder has consumed from ``layer``."""
        return self._consumed[layer]
