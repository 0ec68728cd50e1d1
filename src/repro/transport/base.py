"""Common transport-agent plumbing.

A transport agent lives on a :class:`~repro.sim.node.Host` and exchanges
packets with a peer agent on another host. Sources own a ``flow_id``;
sinks attach under the same id on the destination host so the dumbbell's
demultiplexing delivers both directions correctly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.sim.engine import Simulator
from repro.sim.node import Host
from repro.sim.packet import DATA, Packet, PacketType

_flow_ids = itertools.count(1)


def next_flow_id() -> int:
    """Allocate a globally unique flow id."""
    return next(_flow_ids)


@dataclass
class FlowStats:
    """Counters every agent keeps; traces and tests read these."""

    packets_sent: int = 0
    bytes_sent: int = 0
    packets_received: int = 0
    bytes_received: int = 0
    packets_lost: int = 0
    acks_received: int = 0
    retransmissions: int = 0
    backoffs: int = 0
    timeouts: int = 0

    def goodput(self, duration: float) -> float:
        """Received bytes per second over ``duration``."""
        return self.bytes_received / duration if duration > 0 else 0.0


class TransportAgent:
    """Base class wiring an agent to a host and keeping stats."""

    def __init__(self, sim: Simulator, host: Host, peer_name: str,
                 flow_id: int) -> None:
        self.sim = sim
        self.host = host
        self.peer_name = peer_name
        self.flow_id = flow_id
        self.stats = FlowStats()
        host.attach(flow_id, self)

    def _make_packet(self, seq: int, size: int, ptype: PacketType = DATA,
                     meta: Optional[dict[str, Any]] = None) -> Packet:
        """A packet from this agent, stamped now; ``meta`` is not copied."""
        return Packet(self.flow_id, seq, size, ptype, self.host.name,
                      self.peer_name, self.sim.now,
                      {} if meta is None else meta)

    def _transmit(self, packet: Packet) -> bool:
        ok = self.host.send(packet)
        if ok and packet.ptype is DATA:
            self.stats.packets_sent += 1
            self.stats.bytes_sent += packet.size
        return ok

    def receive(self, packet: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError
