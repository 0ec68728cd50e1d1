"""Point-to-point links.

A :class:`Link` serializes packets at a fixed bandwidth (bytes/s), holds
them for a propagation delay, and hands them to a receiver callable. Each
link owns an output queue (drop-tail by default); arrivals while the
transmitter is busy wait in the queue, arrivals to a full queue are dropped.
This is the standard store-and-forward model ns-2 uses, and is the sole
source of packet loss in the paper's simulations.

Event model: the transmitter is a timestamp, ``_free_at``, not a chain
of events. A packet offered to an idle link (``now >= _free_at``, nothing
queued) costs one event, its delivery at ``_free_at + delay``. A packet
offered to a busy link waits in the queue for the link's single
``_drain`` event, which fires at ``_free_at``, starts the head packet and
re-arms itself while packets remain: two events per backlogged packet.
Completion has no event of its own, so the forwarded counters fold the
in-service packet in lazily (:meth:`Link._settle`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.engine import Simulator
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
        self.queue = queue if queue is not None else DropTailQueue(10_000)
        self.name = name
        self.receiver: Optional[Receiver] = None
        #: When the packet in service (if any) leaves the transmitter.
        self._free_at = 0.0
        #: True while a ``_drain`` event is pending at ``_free_at``;
        #: equivalent to "the queue is non-empty".
        self._draining = False
        #: Size of the packet in service until it is counted as forwarded.
        self._unsettled: Optional[int] = None
        self._bytes_forwarded = 0
        self._packets_forwarded = 0
        # Metrics hooks (None unless attach_metrics ran): the hot path
        # pays one attribute load + None check when metrics are off.
        self._forward_hook: Optional[Callable[[float], None]] = None
        self._qdrop_hook: Optional[Callable[[float], None]] = None

    def connect(self, receiver: Receiver) -> None:
        """Attach the downstream receiver (a node's ``receive`` method)."""
        self.receiver = receiver

    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Wire this link into a metrics registry.

        Per-packet counters (forwarded bytes/packets, queue drops) bind
        as hooks that are ``None`` when the registry is disabled (RL007
        discipline); the queue-depth gauge is collector-fed, read only
        at export time.
        """
        self._forward_hook = registry.counter_hook(
            "link_tx_bytes_total", "Bytes serialized onto the wire",
            link=self.name)
        self._qdrop_hook = registry.counter_hook(
            "link_queue_drops_total", "Packets dropped at the full queue",
            link=self.name)
        registry.register_collector(self._collect_metrics)

    def _collect_metrics(self, registry: "MetricsRegistry") -> None:
        registry.gauge(
            "link_queue_depth", "Packets waiting in the output queue",
            link=self.name).set(float(len(self.queue)))
        registry.gauge(
            "link_packets_forwarded", "Packets forwarded end to end",
            link=self.name).set(float(self.packets_forwarded))

    @property
    def busy(self) -> bool:
        """True while a packet is being serialized onto the wire."""
        return self._draining or self.sim.now < self._free_at

    @property
    def bytes_forwarded(self) -> int:
        """Bytes whose serialization has completed."""
        if self.sim.now >= self._free_at:
            self._settle()
        return self._bytes_forwarded

    @property
    def packets_forwarded(self) -> int:
        """Packets whose serialization has completed."""
        if self.sim.now >= self._free_at:
            self._settle()
        return self._packets_forwarded

    def utilization_bytes(self) -> int:
        """Total bytes forwarded so far (for utilization accounting)."""
        return self.bytes_forwarded

    def _settle(self) -> None:
        """Count the packet that was in service as forwarded.

        Only valid once ``now >= _free_at``: called when the next
        transmission starts and when a reader looks after that instant.
        """
        size = self._unsettled
        if size is not None:
            self._unsettled = None
            self._bytes_forwarded += size
            self._packets_forwarded += 1
            hook = self._forward_hook
            if hook is not None:
                hook(float(size))

    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link.

        Returns False if the queue dropped it. Transmission begins
        immediately when the transmitter is idle.
        """
        if self.receiver is None:
            raise RuntimeError(f"{self.name}: receiver not connected")
        queue = self.queue
        if not queue.enqueue(packet):
            hook = self._qdrop_hook
            if hook is not None:
                hook(1.0)
            return False
        if self._draining:
            return True
        sim = self.sim
        now = sim.now
        if now >= self._free_at:
            queue.dequeue()
            self._transmit(packet, now)
        else:
            self._draining = True
            sim.schedule_at(self._free_at, self._drain, priority=0)
        return True

    def _drain(self) -> None:
        """Start the head-of-queue packet the instant the wire frees up."""
        queue = self.queue
        packet = queue.dequeue()
        if packet is not None:
            free_at = self._transmit(packet, self._free_at)
            if len(queue) > 0:
                self.sim.schedule_at(free_at, self._drain, priority=0)
                return
        self._draining = False

    def _transmit(self, packet: Packet, now: float) -> float:
        """Serialize ``packet`` from ``now``; returns when the wire frees."""
        self._settle()
        self._unsettled = packet.size
        # Two additions, in this order: delivery instants are the floats
        # a tx-complete event followed by a propagation event would give.
        free_at = self._free_at = now + packet.size / self.bandwidth
        self.sim.schedule_at(
            free_at + self.delay, self._deliver, priority=0, args=(packet,)
        )
        return free_at

    def _deliver(self, packet: Packet) -> None:
        assert self.receiver is not None
        self.receiver(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.name}, {self.bandwidth:.0f} B/s, {self.delay * 1e3:.1f} ms, "
            f"qlen={len(self.queue)})"
        )
