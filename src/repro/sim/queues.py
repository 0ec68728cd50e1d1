"""Output queues for links.

The paper's ns-2 experiments use FIFO drop-tail queues at the bottleneck,
which is what produces the near-random loss pattern the QA mechanism must
survive. A RED variant is included for sensitivity experiments.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.sim.packet import Packet
from repro.sim.rng import SeededRNG

DropCallback = Callable[[Packet], None]


class DropTailQueue:
    """Bounded FIFO queue, dropping arrivals when full.

    The limit can be expressed in packets (``capacity_packets``) or bytes
    (``capacity_bytes``); if both are given, either limit can cause a drop.
    """

    def __init__(
        self,
        capacity_packets: int = 0,
        capacity_bytes: int = 0,
        on_drop: Optional[DropCallback] = None,
    ) -> None:
        if capacity_packets <= 0 and capacity_bytes <= 0:
            raise ValueError("queue needs a packet or byte capacity")
        self.capacity_packets = capacity_packets
        self.capacity_bytes = capacity_bytes
        self.on_drop = on_drop
        self._queue: deque[Packet] = deque()
        self._bytes = 0
        self.drops = 0
        self._enqueues = 0
        self._dequeues = 0
        #: The link's: release what started, count packets passed by the queue.
        self._passed_by: Callable[[], int] = lambda: 0

    def __len__(self) -> int:
        self._passed_by()
        return len(self._queue)

    @property
    def byte_length(self) -> int:
        """Bytes currently queued."""
        self._passed_by()
        return self._bytes

    # A packet the link passed by the queue was enqueued and dequeued at once.
    enqueues = property(lambda self: self._enqueues + self._passed_by())
    dequeues = property(lambda self: self._dequeues + self._passed_by())

    def enqueue(self, packet: Packet) -> bool:
        """Add ``packet``; returns False (and records a drop) on overflow."""
        if ((self.capacity_packets and len(self._queue) >= self.capacity_packets)
                or (self.capacity_bytes
                    and self._bytes + packet.size > self.capacity_bytes)):
            self.drops += 1
            if self.on_drop is not None:
                self.on_drop(packet)
            return False
        self._queue.append(packet)
        self._bytes += packet.size
        self._enqueues += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head packet, or None when empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        self._dequeues += 1
        return packet

    def clear(self) -> None:
        self._queue.clear()
        self._bytes = 0


class REDQueue(DropTailQueue):
    """Random Early Detection queue (gentle variant).

    Provided for sensitivity runs; the paper's headline results use
    drop-tail. Average queue size is an EWMA over the *byte* occupancy
    expressed in mean packets.
    """

    def __init__(
        self,
        capacity_packets: int,
        min_thresh: float,
        max_thresh: float,
        rng: SeededRNG,
        max_prob: float = 0.1,
        weight: float = 0.002,
        on_drop: Optional[DropCallback] = None,
    ) -> None:
        super().__init__(capacity_packets=capacity_packets, on_drop=on_drop)
        if not 0 < min_thresh < max_thresh:
            raise ValueError("need 0 < min_thresh < max_thresh")
        if not 0 < max_prob <= 1:
            raise ValueError("max_prob must be in (0, 1]")
        self.min_thresh = min_thresh
        self.max_thresh = max_thresh
        self.max_prob = max_prob
        self.weight = weight
        self._avg = 0.0
        self._count_since_drop = 0
        # No fallback: an implicit random.Random(0) here once gave every
        # RED queue in a multi-queue topology the *same* drop sequence,
        # invisible to the golden traces. Callers pass a stream derived
        # from the experiment seed (see repro.sim.rng.SeededRNG.spawn).
        self._rng = rng

    @property
    def average_queue(self) -> float:
        return self._avg

    def _drop_probability(self) -> float:
        if self._avg < self.min_thresh:
            return 0.0
        if self._avg >= self.max_thresh:
            return 1.0
        frac = (self._avg - self.min_thresh) / (self.max_thresh - self.min_thresh)
        base = frac * self.max_prob
        # Floyd's count correction spreads drops out.
        denom = 1.0 - self._count_since_drop * base
        if denom <= 0:
            return 1.0
        return min(1.0, base / denom)

    def enqueue(self, packet: Packet) -> bool:
        self._avg = (1 - self.weight) * self._avg + self.weight * len(self._queue)
        prob = self._drop_probability()
        if prob > 0 and self._rng.random() < prob:
            self.drops += 1
            self._count_since_drop = 0
            if self.on_drop is not None:
                self.on_drop(packet)
            return False
        self._count_since_drop += 1
        return super().enqueue(packet)
