"""Packet model.

Packets are small mutable records. Sizes are in bytes; the paper (and RAP)
use 1000-byte data packets and small ACKs. The ``meta`` dictionary carries
transport- or application-specific annotations (e.g. the video layer id a
packet belongs to) without the core simulator caring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional


class PacketType(Enum):
    """Coarse packet classification used by nodes and traces."""

    DATA = "data"
    ACK = "ack"


#: Module-level aliases for the per-hop ``packet.ptype is DATA`` checks
#: (one global read instead of an enum attribute lookup).
DATA = PacketType.DATA
ACK = PacketType.ACK

_packet_uid = itertools.count()


@dataclass(slots=True)
class Packet:
    """A simulated packet.

    Attributes:
        flow_id: identifier of the owning flow; sinks demultiplex on this.
        seq: per-flow sequence number.
        size: bytes on the wire (headers included; we do not model headers
            separately, matching the paper's byte accounting).
        ptype: DATA or ACK.
        src / dst: node names (informational; routing in the dumbbell is
            positional).
        created_at: simulation time the source emitted the packet.
        meta: free-form annotations (e.g. ``{"layer": 2}`` for video data,
            or ACK feedback fields). Never copied: a sender's dict rides
            on the packet (and in its ledger) as it is, so whoever builds
            one hands over a fresh dict and never mutates it afterwards.
        uid: globally unique id (monotone), used for deterministic tracing.
    """

    flow_id: int
    seq: int
    size: int
    ptype: PacketType = DATA
    src: str = ""
    dst: str = ""
    created_at: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)
    uid: int = field(default_factory=_packet_uid.__next__)

    def is_data(self) -> bool:
        return self.ptype is DATA

    def is_ack(self) -> bool:
        return self.ptype is ACK

    @property
    def layer(self) -> Optional[int]:
        """Video layer this packet carries, if any."""
        return self.meta.get("layer")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" L{self.layer}" if self.layer is not None else ""
        return (
            f"Packet(flow={self.flow_id}, seq={self.seq}, "
            f"{self.ptype.value}{tag}, {self.size}B)"
        )
