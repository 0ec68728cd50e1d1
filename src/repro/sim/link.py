"""Point-to-point links.

A :class:`Link` serializes packets at a fixed bandwidth (bytes/s), holds
them for a propagation delay, and hands them to a receiver callable. Each
link owns an output queue (drop-tail by default); arrivals while the
transmitter is busy wait in the queue, arrivals to a full queue are dropped.
This is the standard store-and-forward model ns-2 uses, and is the sole
source of packet loss in the paper's simulations.

Event model: a FIFO link is a recurrence. A packet offered at ``now``
starts at ``max(now, _free_at)`` and leaves the wire at ``_free_at =
start + size/bw``, so its delivery ``delay`` later is its one event.
Waiting packets stay in the queue beside their start instants and are
released lazily, before offers and reads; the wire frees first. A link
that feeds a router hands it, at transmit time, the packets bound for an
``in_order`` link (one offered each packet no earlier than the one
before, or ``SimulationError``), with the arrival instant as the clock
(:meth:`Router.receive_ahead`): they cost the router no event.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.engine import SimulationError, Simulator
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover - layering: sim never imports
    from repro.telemetry.metrics import MetricsRegistry  # telemetry at runtime

Receiver = Callable[[Packet], None]


class Link:
    """Unidirectional link with bandwidth, propagation delay and a queue.

    Args:
        sim: the event engine.
        bandwidth: serialization rate in **bytes per second**.
        delay: one-way propagation delay in seconds.
        queue: output queue; a generous default is created if omitted.
        name: label used in traces.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        delay: float,
        queue: Optional[DropTailQueue] = None,
        name: str = "link",
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if delay < 0:
            raise ValueError("delay cannot be negative")
        self.sim = sim
        self.bandwidth = bandwidth
        self.delay = delay
        self.name = name
        self.receiver: Optional[Receiver] = None
        self.in_order = False
        #: End of the last packet accepted; arrival of the last one taken
        #: ahead of time; arrival of the last one refused ahead of time.
        self._free_at, self._clock, self._behind = 0.0, 0.0, float("-inf")
        #: Accepted, not started: ``(start, end, size, queued)``; not
        #: ``queued``: taken ahead of time, arriving at ``start``.
        self._pending: deque[tuple[float, float, int, bool]] = deque()
        #: Packets accepted via the queue, past it (idle wire) and ahead of
        #: time; their bytes; size and end of the last packet started.
        self._queued = self._passed = self._ahead = self._sent_bytes = 0
        self._last_size, self._busy_until = 0, 0.0
        #: Called ``(packet, arrival instant)`` for every packet accepted.
        self.watchers: list[Callable[[Packet, float], None]] = []
        self._receive_ahead: Optional[Callable[[Packet, float], bool]] = None
        # Metrics hook (None unless attach_metrics ran): the hot path
        # pays one attribute load + None check when metrics are off.
        self._qdrop_hook: Optional[Callable[[float], None]] = None
        self.queue = queue if queue is not None else DropTailQueue(10_000)

    @property
    def queue(self) -> DropTailQueue:
        return self._queue

    @queue.setter
    def queue(self, queue: DropTailQueue) -> None:
        self._queue = queue
        queue._passed_by = lambda: self._passed + self.arrived_ahead
        # An idle link passes by an (empty) drop-tail queue without a byte limit.
        self._bypass = type(queue) is DropTailQueue and not queue.capacity_bytes

    def connect(self, receiver: Receiver) -> None:
        """Attach the downstream receiver (a node's ``receive`` method)."""
        self.receiver = receiver
        self._receive_ahead = getattr(
            getattr(receiver, "__self__", None), "receive_ahead", None)

    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Wire this link into a metrics registry.

        Queue drops bind as a hook that is ``None`` when the registry is
        disabled (callers guard); forwarded bytes and the gauges are
        fed by a collector, read only at export time.
        """
        self._qdrop_hook = registry.counter_hook(
            "link_queue_drops_total", "Packets dropped at the full queue",
            link=self.name)
        registry.register_collector(self._collect_metrics)

    def _collect_metrics(self, registry: "MetricsRegistry") -> None:
        sent = registry.counter("link_tx_bytes_total",
                                "Bytes serialized onto the wire", link=self.name)
        sent.inc(self.bytes_forwarded - sent.value)
        registry.gauge(
            "link_queue_depth", "Packets waiting in the output queue",
            link=self.name).set(float(len(self.queue)))
        registry.gauge(
            "link_packets_forwarded", "Packets forwarded end to end",
            link=self.name).set(float(self.packets_forwarded))

    @property
    def busy(self) -> bool:
        """True while a packet is being serialized onto the wire."""
        return self._catch_up() < self._busy_until

    @property
    def bytes_forwarded(self) -> int:
        """Bytes whose serialization has completed."""
        busy = self.busy  # releases first
        waiting = sum(entry[2] for entry in self._pending)
        return self._sent_bytes - waiting - self._last_size * busy

    @property
    def packets_forwarded(self) -> int:
        """Packets whose serialization has completed."""
        busy = self.busy  # releases first
        return self._queued + self._passed + self._ahead - len(self._pending) - busy

    @property
    def arrived_ahead(self) -> int:
        """Packets offered ahead of time whose arrival instant has come."""
        self._catch_up()
        return self._ahead - sum(not entry[3] for entry in self._pending)

    def _catch_up(self) -> float:
        """Start the pending packets whose start has come; returns the clock."""
        now = self.sim.now
        pending = self._pending
        while pending and pending[0][0] <= now:
            _, self._busy_until, self._last_size, queued = pending.popleft()
            if queued:
                self._queue.dequeue()
        return now

    def send(self, packet: Packet, at: Optional[float] = None) -> bool:
        """Offer ``packet``; False if the queue drops it, or if it is offered
        ahead of time for its arrival at ``at`` and the link will not be
        idle then (its counters move when the clock reaches ``at``)."""
        if self.receiver is None:
            raise RuntimeError(f"{self.name}: receiver not connected")
        now = self.sim.now
        clock = now if at is None else at
        if clock < self._clock:
            raise SimulationError(f"{self.name}: in-order link offered a "
                                  f"packet for t={clock} after t={self._clock}")
        pending = self._pending
        if pending and pending[0][0] <= now:
            self._catch_up()
        size = packet.size
        start = self._free_at
        if at is not None:
            if start > at or self._behind >= now or not self._bypass:
                self._behind = at
                return False
            self._clock = start = at
            self._ahead += 1
        elif start <= now and self._bypass:
            self._passed += 1
        else:
            queue = self._queue
            if not queue.enqueue(packet):
                hook = self._qdrop_hook
                if hook is not None:
                    hook(1.0)
                return False
            self._queued += 1
            if start <= now:
                queue.dequeue()
        self._sent_bytes += size
        # Two additions, in this order: the delivery instant is the float
        # a tx-complete event followed by a propagation event gave.
        if start > now:
            end = self._free_at = start + size / self.bandwidth
            pending.append((start, end, size, at is None))
        else:
            self._last_size = size
            end = self._free_at = self._busy_until = now + size / self.bandwidth
        arrive = end + self.delay
        for watcher in self.watchers:
            watcher(packet, arrive)
        receive_ahead = self._receive_ahead
        if receive_ahead is None or not receive_ahead(packet, arrive):
            self.sim.schedule_at(arrive, self._deliver, 0, (packet,))
        return True

    def _deliver(self, packet: Packet) -> None:
        assert self.receiver is not None
        self.receiver(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.name}, {self.bandwidth:.0f} B/s, {self.delay * 1e3:.1f} ms, "
            f"qlen={len(self.queue)})"
        )
