"""A virtual-time asyncio loop with in-memory datagram endpoints.

The streaming service and its load fleet are wall-clock programs: their
loopback numbers swing with the scheduler (feedback p99 1.1-3.8 ms
between identical runs). Run on this loop instead, the *unmodified*
``StreamingService`` and ``LoadFleet`` are CPU-bound and bit-
deterministic: ``loop.time()`` is a counter that only moves when the
loop would otherwise sleep, and ``create_datagram_endpoint`` hands out
endpoints joined by a constant-latency in-memory wire.

Only public asyncio surface is used: ``SelectorEventLoop(selector)``
with a selector whose ``select(timeout)`` advances the clock instead of
blocking, and overrides of ``time`` and ``create_datagram_endpoint``.
"""

from __future__ import annotations

import asyncio
import selectors
from collections import deque
from typing import Any, Callable, Mapping, Optional

Address = tuple[str, int]


class VirtualSelector(selectors.BaseSelector):
    """A selector that never waits: ``select`` jumps the clock forward."""

    def __init__(self) -> None:
        self.now = 0.0
        self._keys: dict[Any, selectors.SelectorKey] = {}

    def register(self, fileobj: Any, events: int, data: Any = None
                 ) -> selectors.SelectorKey:
        fd = fileobj if isinstance(fileobj, int) else fileobj.fileno()
        key = selectors.SelectorKey(fileobj, fd, events, data)
        self._keys[fileobj] = key
        return key

    def unregister(self, fileobj: Any) -> selectors.SelectorKey:
        return self._keys.pop(fileobj)

    def get_map(self) -> Mapping[Any, selectors.SelectorKey]:
        return self._keys

    def select(self, timeout: Optional[float] = None) -> list:
        # The loop passes 0 while callbacks are ready, the time to its
        # next timer when idle, and None when nothing is scheduled at
        # all. No I/O can ever arrive here, so None would block forever.
        if timeout is None:
            raise RuntimeError(
                "virtual loop asked to wait with no timer pending")
        if timeout > 0:
            self.now += timeout
        return []

    def close(self) -> None:
        self._keys.clear()


class MemoryEndpoint(asyncio.DatagramTransport):
    """One socket's worth of the in-memory network."""

    def __init__(self, net: "MemoryNet", protocol: Any, addr: Address,
                 peer: Optional[Address]) -> None:
        super().__init__(extra={"sockname": addr, "peername": peer})
        self.net = net
        self.protocol = protocol
        self.addr = addr
        self.peer = peer
        self._closing = False

    def sendto(self, data: bytes, addr: Optional[Address] = None) -> None:
        if not self._closing:
            self.net.send(data, self.addr, addr or self.peer)

    def is_closing(self) -> bool:
        return self._closing

    def close(self) -> None:
        if self._closing:
            return
        self._closing = True
        self.net.endpoints.pop(self.addr, None)
        self.net.loop.call_soon(self.protocol.connection_lost, None)

    def abort(self) -> None:
        self.close()


class MemoryNet:
    """Constant-latency wire between endpoints of one loop.

    Every datagram waits in one FIFO and each send arms one timer that
    delivers the FIFO's head, so datagrams arrive in send order even
    when several share a due time (timer handles tie arbitrarily).
    """

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 latency: float) -> None:
        self.loop = loop
        self.latency = latency
        self.endpoints: dict[Address, MemoryEndpoint] = {}
        self._wire: deque[tuple[bytes, Address, Address]] = deque()
        self._next_port = 40_000

    async def open(self, protocol: Any, local_addr: Optional[Address],
                   remote_addr: Optional[Address]
                   ) -> tuple[MemoryEndpoint, Any]:
        host, port = local_addr or ("127.0.0.1", 0)
        if port == 0:
            self._next_port += 1
            port = self._next_port
        if (host, port) in self.endpoints:
            raise OSError(f"address {(host, port)} already in use")
        endpoint = MemoryEndpoint(self, protocol, (host, port),
                                  remote_addr)
        self.endpoints[endpoint.addr] = endpoint
        self.loop.call_soon(protocol.connection_made, endpoint)
        await asyncio.sleep(0)
        return endpoint, protocol

    def send(self, data: bytes, src: Address, dst: Address) -> None:
        self._wire.append((data, src, dst))
        self.loop.call_later(self.latency, self.deliver_next)

    def deliver_next(self) -> None:
        data, src, dst = self._wire.popleft()
        endpoint = self.endpoints.get(dst)
        if endpoint is not None:
            endpoint.protocol.datagram_received(data, src)


class VirtualLoop(asyncio.SelectorEventLoop):
    """``SelectorEventLoop`` on a virtual clock and an in-memory wire."""

    def __init__(
        self, latency: float = 0.0005,
        wrap_selector: Optional[Callable[[selectors.BaseSelector],
                                         selectors.BaseSelector]] = None,
    ) -> None:
        self.clock = VirtualSelector()
        super().__init__(wrap_selector(self.clock)
                         if wrap_selector is not None else self.clock)
        self.net = MemoryNet(self, latency)

    def time(self) -> float:
        return self.clock.now

    async def create_datagram_endpoint(  # type: ignore[override]
            self, protocol_factory: Callable[[], Any],
            local_addr: Optional[Address] = None,
            remote_addr: Optional[Address] = None, **kwargs: Any):
        return await self.net.open(protocol_factory(), local_addr,
                                   remote_addr)
