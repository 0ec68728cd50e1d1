"""Configuration of the quality adaptation mechanism.

One dataclass holds every tunable so experiments can sweep parameters
declaratively. Defaults follow the paper's section 5 setup where the paper
states a value, and sensible engineering choices where it does not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.core.units import (
    ByteCount,
    Bytes,
    BytesPerSec,
    BytesPerSec2,
    Scalar,
    Seconds,
)


@dataclass(frozen=True)
class QAConfig:
    """Tunables of the quality adaptation mechanism.

    Frozen: an adapter binds the values it derives from its config once,
    so a config never changes under it. :meth:`with_` makes a changed
    copy.

    Attributes:
        layer_rate: per-layer consumption rate ``C`` in bytes/s. The paper
            assumes linearly spaced layers (all layers share one ``C``).
        max_layers: hard ceiling on the number of encoded layers available
            at the server (the codec produced only this many).
        k_max: smoothing factor -- buffer for this many backoffs (in both
            scenarios) before adding a new layer. The paper evaluates
            2, 3, 4, 5 and 8.
        add_rule: ``"buffer_only"`` (the paper's final rule: the *only*
            adding condition is buffer availability for ``k_max`` backoffs),
            ``"buffer_and_rate"`` (also require the instantaneous rate to
            exceed the consumption rate of existing plus new layers --
            section 2.1's conditions 1+2), or ``"average_bandwidth"`` (the
            rejected alternative of section 3.1, kept as a baseline).
        allocator: ``"optimal"`` (the paper's mechanism),
            ``"equal_share"`` or ``"base_first"`` (section 2.3's strawmen,
            kept as ablation baselines).
        packet_size: media packet size in bytes (RAP default 1000).
        startup_delay: seconds between the first received byte and playout
            start (users "expect startup playback latency to be low").
        drain_period: how often the draining planner of section 4.2
            recomputes the per-layer drain pattern, in seconds.
        maintenance_floor: minimum per-layer buffer (in units of
            ``layer_rate`` seconds) that filling maintains so no active
            layer underflows between packets; absorbs packetization and
            the feedback delay of the server's buffer estimate. It also
            serves as the bootstrap cushion a newly added layer collects
            before its playout starts.
        base_floor: like ``maintenance_floor`` but for the base layer
            only (in ``layer_rate`` seconds). The base is the one layer
            whose underflow stalls playback outright, so it carries a
            larger protected margin; this margin is excluded from the
            "drainable" buffering the drop rule and Table 2 reason about.
        underflow_debt_packets: how many packets' worth of estimated
            consumption shortfall a layer tolerates before the adapter
            treats it as a critical situation and drops the top layer.
        slope_override: fixed AIMD slope ``S`` in bytes/s^2; ``None`` means
            ask the congestion controller (RAP exposes ``P/srtt^2``).
        average_bandwidth_gain: EWMA gain for the rate average used by the
            ``"average_bandwidth"`` add rule.
        feedback: how the server estimates receiver buffers.
            ``"send"`` (default, the paper's model: the server knows its
            own transmission history) credits a layer at send time and
            debits it when the congestion controller detects the loss;
            ``"ack"`` credits only acknowledged data (one RTT stale,
            conservative -- a sensitivity baseline); ``"oracle"`` credits
            at send time and ignores losses (upper bound, for tests).
        retransmit_layers: selective retransmission (section 1.3: the
            layered approach "provides an opportunity for selective
            retransmission of the more important information"). Lost
            data from layers below this index is re-sent with priority;
            0 disables retransmission (the paper's evaluated
            configuration), 1 protects the base layer only.
        max_buffer_seconds: receiver flow control -- cap any layer's
            buffered data at this many seconds of its consumption rate.
            The paper "ignores flow control issues for simplicity";
            ``None`` reproduces that (a lone flow on a fat link then
            parks data without bound). When set, the server idles
            transmission slots once the target layer is full.
    """

    layer_rate: BytesPerSec = 2500.0
    max_layers: int = 8
    k_max: int = 2
    add_rule: str = "buffer_only"
    allocator: str = "optimal"
    packet_size: ByteCount = 1000
    startup_delay: Seconds = 1.0
    drain_period: Seconds = 0.1
    maintenance_floor: Seconds = 0.1
    base_floor: Seconds = 1.2
    underflow_debt_packets: Scalar = 6.0
    slope_override: Optional[BytesPerSec2] = None
    average_bandwidth_gain: Scalar = 0.05
    feedback: str = "send"
    retransmit_layers: int = 0
    max_buffer_seconds: Optional[Seconds] = None

    VALID_ADD_RULES = ("buffer_only", "buffer_and_rate", "average_bandwidth")
    VALID_ALLOCATORS = ("optimal", "equal_share", "base_first")
    VALID_FEEDBACK = ("send", "ack", "oracle")

    def __post_init__(self) -> None:
        if self.layer_rate <= 0:
            raise ValueError("layer_rate must be positive")
        if self.max_layers < 1:
            raise ValueError("max_layers must be at least 1")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1 (1 = no smoothing)")
        if self.add_rule not in self.VALID_ADD_RULES:
            raise ValueError(f"unknown add_rule {self.add_rule!r}")
        if self.allocator not in self.VALID_ALLOCATORS:
            raise ValueError(f"unknown allocator {self.allocator!r}")
        if self.feedback not in self.VALID_FEEDBACK:
            raise ValueError(f"unknown feedback {self.feedback!r}")
        if self.packet_size <= 0:
            raise ValueError("packet_size must be positive")
        if self.drain_period <= 0:
            raise ValueError("drain_period must be positive")
        if self.maintenance_floor < 0:
            raise ValueError("maintenance_floor cannot be negative")
        if self.base_floor < 0:
            raise ValueError("base_floor cannot be negative")
        if self.underflow_debt_packets <= 0:
            raise ValueError("underflow_debt_packets must be positive")
        if self.retransmit_layers < 0:
            raise ValueError("retransmit_layers cannot be negative")
        if self.max_buffer_seconds is not None \
                and self.max_buffer_seconds <= 0:
            raise ValueError("max_buffer_seconds must be positive")

    def with_(self, **changes: Any) -> "QAConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)

    @property
    def floor_bytes(self) -> Bytes:
        """The per-layer maintenance floor expressed in bytes."""
        return self.maintenance_floor * self.layer_rate

    @property
    def base_floor_bytes(self) -> Bytes:
        """The base layer's stall-protection margin in bytes."""
        return self.base_floor * self.layer_rate

    def consumption(self, active_layers: int) -> BytesPerSec:
        """Total consumption rate ``na * C`` in bytes/s."""
        return active_layers * self.layer_rate
