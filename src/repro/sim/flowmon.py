"""Flow monitoring: per-flow throughput and fairness statistics.

The paper's motivation is inter-protocol fairness ("end systems are
expected to be cooperative"); this module provides the measurement side:
attach a :class:`FlowMonitor` to a link and get per-flow byte counts,
windowed throughput series and Jain's fairness index -- used by the
experiment harnesses' sanity checks and by tests that verify RAP and TCP
actually share the bottleneck.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable, Optional, Sequence

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import DATA, Packet
from repro.sim.trace import PeriodicSampler, TimeSeries


def jain_index(rates: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = one hog."""
    values = [r for r in rates if r >= 0]
    if not values:
        return 1.0
    total = sum(values)
    if total == 0:
        return 1.0
    squares = sum(r * r for r in values)
    return total * total / (len(values) * squares)


class FlowMonitor:
    """Counts per-flow bytes crossing a link and samples throughputs.

    Watches the link, so it sees exactly the packets that made it across
    (post-drop), counted once the clock reaches their arrival instants;
    attached mid-run, it misses the packets already on the wire.
    """

    def __init__(self, sim: Simulator, link: Link,
                 sample_period: float = 1.0) -> None:
        self.sim = sim
        self.link = link
        self._bytes_by_flow: dict[int, int] = defaultdict(int)
        self.throughput: dict[int, TimeSeries] = {}
        self._window_bytes: dict[int, int] = defaultdict(int)
        self.sample_period = sample_period
        self._start_time = sim.now
        #: ``(arrival, flow_id, size)`` of data packets not counted yet.
        self._arrivals: deque[tuple[float, int, int]] = deque()
        if link.receiver is None:
            raise ValueError("link must be connected before monitoring")
        link.watchers.append(self._watch)
        self._sampler = PeriodicSampler(sim, sample_period, self._sample)

    def _watch(self, packet: Packet, at: float) -> None:
        if packet.ptype is DATA:
            self._arrivals.append((at, packet.flow_id, packet.size))

    @property
    def bytes_by_flow(self) -> dict[int, int]:
        return self._count_arrived()

    def _count_arrived(self) -> dict[int, int]:
        arrivals, now = self._arrivals, self.sim.now
        while arrivals and arrivals[0][0] <= now:
            _, flow_id, size = arrivals.popleft()
            self._bytes_by_flow[flow_id] += size
            self._window_bytes[flow_id] += size
        return self._bytes_by_flow

    def _sample(self, now: float) -> None:
        self._count_arrived()
        # A flow keeps its entry once seen: a silent window is a 0.0
        # sample, not a gap the series' mean would skip.
        for flow_id, nbytes in self._window_bytes.items():
            series = self.throughput.setdefault(
                flow_id, TimeSeries(f"flow{flow_id}"))
            series.record(now, nbytes / self.sample_period)
            self._window_bytes[flow_id] = 0

    # ------------------------------------------------------------ queries

    def flows(self) -> list[int]:
        return sorted(self.bytes_by_flow)

    def mean_rate(self, flow_id: int,
                  until: Optional[float] = None) -> float:
        """Average delivered rate of a flow since monitoring began."""
        elapsed = (until if until is not None else self.sim.now) \
            - self._start_time
        if elapsed <= 0:
            return 0.0
        return self.bytes_by_flow.get(flow_id, 0) / elapsed

    def fairness(self, flow_ids: Optional[Iterable[int]] = None) -> float:
        """Jain index over the mean rates of the given (or all) flows."""
        ids = list(flow_ids) if flow_ids is not None else self.flows()
        return jain_index([self.mean_rate(f) for f in ids])

    def stop(self) -> None:
        self._sampler.stop()
