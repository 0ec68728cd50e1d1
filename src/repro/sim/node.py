"""Nodes: hosts (traffic endpoints) and routers (forwarders).

Routing is static-table based: each node knows, per destination name, which
outgoing link to use. The dumbbell builder fills these tables in. Hosts
demultiplex arriving packets to attached transport agents by ``flow_id``.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet


class PacketHandler(Protocol):
    """Anything able to accept a packet (transport agents implement this)."""

    def receive(self, packet: Packet) -> None: ...


class Node:
    """Base node with a static routing table."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.routes: dict[str, Link] = {}
        self.default_route: Optional[Link] = None

    def add_route(self, dst: str, link: Link) -> None:
        """Route packets destined to node ``dst`` out of ``link``."""
        self.routes[dst] = link

    def set_default_route(self, link: Link) -> None:
        self.default_route = link

    def forward(self, packet: Packet) -> bool:
        """Send ``packet`` toward its destination; False if unroutable/dropped."""
        link = self.routes.get(packet.dst, self.default_route)
        if link is None:
            raise RuntimeError(f"{self.name}: no route for dst={packet.dst!r}")
        return link.send(packet)

    def receive(self, packet: Packet) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


class Router(Node):
    """A pure forwarder; it counts a packet it takes ahead, at its arrival."""

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._received = 0

    @property
    def packets_received(self) -> int:
        links = {*self.routes.values(), self.default_route} - {None}
        return self._received + sum(link.arrived_ahead for link in links)

    def receive(self, packet: Packet) -> None:
        self._received += 1
        self.forward(packet)

    def receive_ahead(self, packet: Packet, at: float) -> bool:
        """Take ``packet`` now if its next link is in order and accepts it."""
        link = self.routes.get(packet.dst, self.default_route)
        return link is not None and link.in_order and link.send(packet, at)


class Host(Node):
    """An endpoint. Transport agents attach by flow id.

    A packet arriving at a host whose ``flow_id`` has a registered handler is
    delivered to that handler; otherwise it is counted as stray (tests assert
    this stays zero).
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._handlers: dict[int, PacketHandler] = {}
        self.stray_packets = 0

    def attach(self, flow_id: int, handler: PacketHandler) -> None:
        """Register ``handler`` for packets of ``flow_id`` arriving here."""
        if flow_id in self._handlers:
            raise ValueError(f"{self.name}: flow {flow_id} already attached")
        self._handlers[flow_id] = handler

    def detach(self, flow_id: int) -> None:
        self._handlers.pop(flow_id, None)

    def receive(self, packet: Packet) -> None:
        if packet.dst and packet.dst != self.name:
            # Transit traffic through a host is a wiring bug in a dumbbell.
            self.forward(packet)
            return
        handler = self._handlers.get(packet.flow_id)
        if handler is None:
            self.stray_packets += 1
            return
        handler.receive(packet)

    def send(self, packet: Packet) -> bool:
        """Inject a locally generated packet into the network."""
        packet.src = packet.src or self.name
        return self.forward(packet)
