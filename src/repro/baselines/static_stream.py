"""No quality adaptation: a fixed-quality stream over RAP.

This is the situation the paper's introduction motivates against: stored
video "has an intrinsic transmission rate", so a non-adaptive server
simply streams its fixed layer set. Whenever the congestion-controlled
rate falls below that consumption rate for long, the receiver's playout
buffer drains and playback stalls. Comparing this against the quality
adapter quantifies what adaptation buys (fewer/no stalls at the cost of
variable quality).
"""

from __future__ import annotations

from typing import Optional

from repro.core.adapter import QualityAdapter
from repro.core.config import QAConfig


class FixedQualityAdapter(QualityAdapter):
    """A QualityAdapter with adaptation surgically removed.

    It streams a constant number of layers (``config.max_layers``),
    round-robining packets so every layer receives its consumption rate;
    it never adds, never drops, and ignores backoffs.
    """

    def __init__(self, config: QAConfig, now_fn, rate_fn, slope_fn,
                 start_time: float = 0.0, on_event=None) -> None:
        super().__init__(config, now_fn, rate_fn, slope_fn,
                         start_time=start_time, on_event=on_event)
        # Bring every layer up immediately: the quality is fixed.
        while self.active_layers < config.max_layers:
            self._activate_layer(start_time)

    def pick_layer(self, seq: int) -> Optional[dict]:
        """Round-robin: each layer gets an equal share of packets."""
        now = self.now_fn()
        self._advance_clocks_static(now)
        layer = seq % self.active_layers
        self.sent_bytes_per_layer[layer] += self.config.packet_size
        self._inflight[layer] += self.config.packet_size
        if self.config.feedback in ("send", "oracle"):
            self.buffers.deliver(layer, self.config.packet_size)
            self._start_consumption_if_due(layer)
        return {"layer": layer, "active": self.active_layers}

    def _advance_clocks_static(self, now: float) -> None:
        """Clock upkeep without the critical-situation machinery."""
        if not self.playout_started and now >= self.playout_start_time:
            self.playout_started = True
            self.metrics.startup_latency = self.config.startup_delay
            for layer in range(self.active_layers):
                self._start_consumption_if_due(layer)
        shortfalls = self.buffers.consume_until(now)
        if 0 in shortfalls:
            self.metrics.base_underflow_bytes += shortfalls[0]

    def tick(self) -> None:
        now = self.now_fn()
        self._advance_clocks_static(now)
        rate = self.rate_fn()
        gain = self.config.average_bandwidth_gain
        self.average_rate += gain * (rate - self.average_rate)

    def on_backoff(self, new_rate: float) -> None:
        """A non-adaptive server shrugs."""
        self._emit("backoff", (new_rate,))
