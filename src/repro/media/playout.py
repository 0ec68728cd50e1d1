"""Client-side playout engine.

The receiver buffers each layer's data and the decoder drains every active
layer at C. Two failure modes matter:

- **base-layer underflow**: playback cannot continue at all; the player
  *stalls* -- the clock pauses until the base layer holds data again.
  The paper's mechanism is designed to make this (close to) impossible;
  the stall counters are how we verify that.
- **enhancement-layer underflow**: the layer has a gap; quality silently
  degrades. The server should have dropped the layer before this happens;
  we count the bytes of gap per layer.

The playout engine also keeps the receiver's notion of which layers are
active in sync with the server: every data packet carries the server's
current active-layer count, so adds/drops propagate with one-way latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.buffers import LayerBufferSet


@dataclass
class PlayoutStats:
    """Receiver-side quality-of-experience counters."""

    stall_count: int = 0
    stall_time: float = 0.0
    gap_bytes_per_layer: dict[int, float] = field(default_factory=dict)
    played_bytes: float = 0.0
    startup_time: Optional[float] = None

    def gap_bytes(self, layer: int) -> float:
        return self.gap_bytes_per_layer.get(layer, 0.0)

    @property
    def total_gap_bytes(self) -> float:
        return sum(self.gap_bytes_per_layer.values())


class PlayoutBuffer:
    """Per-layer receive buffers plus the playout clock.

    Args:
        layer_rate: per-layer consumption C (bytes/s).
        max_layers: codec layer count.
        playout_start: absolute time playback should begin.
        resume_threshold: seconds of base-layer data required to leave a
            stall (small, to keep stalls short but avoid flapping).
    """

    def __init__(
        self,
        layer_rate: float,
        max_layers: int,
        playout_start: float,
        resume_threshold: float = 0.1,
        layer_start_threshold: float = 0.0,
        on_event=None,
    ) -> None:
        self.layer_rate = layer_rate
        self.max_layers = max_layers
        self.playout_start = playout_start
        self.resume_bytes = resume_threshold * layer_rate
        #: Bytes an enhancement layer must hold before its playout starts
        #: (mirrors the server's bootstrap cushion; base plays from the
        #: startup-delay buffer immediately).
        self.layer_start_bytes = layer_start_threshold
        self.buffers = LayerBufferSet(layer_rate, max_layers)
        self.stats = PlayoutStats()
        self.active_layers = 0
        self.playing = False
        self.stalled = False
        self._stall_began = 0.0
        self._last_advance = 0.0
        #: ``(time, kind, fields)`` QoE-event sink, ``None`` when nobody
        #: listens (callers guard): ``playout_start``, ``stall_begin``, and
        #: ``stall_end`` (with the stall's ``duration``).
        self.on_event = on_event

    # ------------------------------------------------------------- arrival

    def on_packet(self, now: float, layer: int, size: int,
                  server_active: Optional[int] = None) -> None:
        """A media packet arrived."""
        # Each call below runs only when its own guard would let it do
        # something: most packets arrive at a new instant, announce no
        # drop, and find their layer already playing.
        if now > self._last_advance:
            self.advance(now)
        if (server_active is not None
                and self.active_layers > max(1, server_active)):
            self._sync_active(now, server_active)
        if layer >= self.max_layers:
            return
        buffers = self.buffers
        if not buffers.is_active(layer):
            self._activate_through(now, layer)
        buffers.deliver(layer, size)
        if self.stalled:
            self._maybe_resume(now)
        elif self.playing and not buffers.is_consuming(layer):
            self._maybe_start_layer(now, layer)

    def _activate_through(self, now: float, layer: int) -> None:
        """Activate every inactive layer up to ``layer`` (ordered adds)."""
        for i in range(layer + 1):
            if not self.buffers.is_active(i):
                self.buffers.activate(i, now)
        self.active_layers = max(self.active_layers, layer + 1)

    def _maybe_start_layer(self, now: float, layer: int) -> None:
        """Start a layer's playout once it has its bootstrap cushion."""
        if not self.playing or self.stalled:
            return
        if self.buffers.is_consuming(layer):
            return
        threshold = 0.0 if layer == 0 else self.layer_start_bytes
        if self.buffers.delivered(layer) >= threshold:
            self.buffers.start_consuming(layer, now)

    def _sync_active(self, now: float, server_active: int) -> None:
        """Follow the server's drops (its adds arrive as data packets)."""
        while self.active_layers > max(1, server_active):
            layer = self.active_layers - 1
            if self.buffers.is_active(layer):
                self.buffers.deactivate(layer)
            self.active_layers -= 1

    # -------------------------------------------------------------- clock

    def advance(self, now: float) -> None:
        """Advance the playout clock to ``now``."""
        if now <= self._last_advance:
            return
        self._last_advance = now
        if not self.playing:
            if now < self.playout_start:
                return
            # Consumption clocks anchor at the scheduled start, so data
            # consumed between playout_start and now is charged in this
            # same advance.
            self._begin_playout(now)
            if self.stalled:
                return
        if self.stalled:
            self.buffers.pause(now)
            self._maybe_resume(now)
            return
        shortfalls = self.buffers.consume_until(now)
        for layer, nbytes in shortfalls.items():
            if layer == 0:
                self._begin_stall(now)
            else:
                self.stats.gap_bytes_per_layer[layer] = (
                    self.stats.gap_bytes_per_layer.get(layer, 0.0) + nbytes)
        self.stats.played_bytes = self.buffers.played

    def _begin_playout(self, now: float) -> None:
        self.playing = True
        start = min(now, self.playout_start)
        self.stats.startup_time = self.playout_start
        if self.on_event is not None:
            self.on_event(now, "playout_start", {})
        for i in range(self.max_layers):
            if self.buffers.is_active(i):
                self._maybe_start_layer(start, i)
        if self.buffers.level(0) <= 0:
            self._begin_stall(now)

    def _begin_stall(self, now: float) -> None:
        if self.stalled:
            return
        self.stalled = True
        self._stall_began = now
        self.stats.stall_count += 1
        self.buffers.pause(now)
        if self.on_event is not None:
            self.on_event(now, "stall_begin", {})

    def _maybe_resume(self, now: float) -> None:
        if not self.stalled:
            return
        if self.buffers.level(0) >= self.resume_bytes:
            self.stalled = False
            self.stats.stall_time += now - self._stall_began
            self.buffers.pause(now)  # clocks restart from `now`
            if self.on_event is not None:
                self.on_event(now, "stall_end",
                              {"duration": now - self._stall_began})

    # ------------------------------------------------------------ queries

    @property
    def stall_began(self) -> float:
        """When the current stall started (meaningful while stalled)."""
        return self._stall_began

    def level(self, layer: int) -> float:
        return self.buffers.level(layer)

    def levels(self) -> list[float]:
        return self.buffers.levels(self.active_layers)

    def total_buffered(self) -> float:
        return self.buffers.total(self.active_layers)
