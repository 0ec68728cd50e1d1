"""Dumbbell topology builder.

All of the paper's simulations run over a single shared bottleneck: several
sources on one side, their sinks on the other, a drop-tail queue at the
bottleneck entrance. The dumbbell is symmetric so ACKs travel the reverse
path (uncongested by default, as in the paper where the reverse path is not
the bottleneck).

::

    src_0 --\\                       /-- dst_0
    src_1 ---[R0]==bottleneck==[R1]---- dst_1
    src_n --/                       \\-- dst_n

Access links are fast (default 100x the bottleneck) and contribute a fixed
per-hop delay; the end-to-end RTT is ``2 * (2*access_delay +
bottleneck_delay)`` plus queueing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Host, Router
from repro.sim.queues import DropTailQueue


@dataclass
class DumbbellConfig:
    """Parameters of the dumbbell.

    Defaults follow the paper's section 5 setup: 800 Kb/s bottleneck
    (100,000 bytes/s), 40 ms round-trip propagation, 1000-byte packets, and
    a bottleneck buffer of about one bandwidth-delay product's worth of
    packets (ns-2's default-style small FIFO).
    """

    n_pairs: int = 1
    bottleneck_bandwidth: float = 100_000.0  # bytes/s == 800 Kb/s
    bottleneck_delay: float = 0.010  # one-way, seconds
    access_bandwidth: float = 10_000_000.0  # bytes/s, effectively uncongested
    access_delay: float = 0.005  # one-way, seconds
    queue_capacity_packets: int = 20
    reverse_queue_capacity_packets: int = 1000  # ACK path: effectively lossless

    @property
    def round_trip_propagation(self) -> float:
        """RTT with empty queues (both directions, all hops)."""
        return 2 * (2 * self.access_delay + self.bottleneck_delay)


class Dumbbell:
    """A built dumbbell network.

    Attributes:
        sources: list of source hosts (index i talks to ``sinks[i]``).
        sinks: list of destination hosts.
        left, right: the two routers.
        bottleneck: the forward (congested) bottleneck link.
        reverse_bottleneck: the reverse link carrying ACKs.
    """

    def __init__(self, sim: Simulator, config: DumbbellConfig) -> None:
        if config.n_pairs < 1:
            raise ValueError("need at least one source/sink pair")
        self.sim = sim
        self.config = config
        self.left = Router(sim, "R0")
        self.right = Router(sim, "R1")
        self.sources: list[Host] = []
        self.sinks: list[Host] = []

        self.bottleneck = Link(
            sim,
            config.bottleneck_bandwidth,
            config.bottleneck_delay,
            DropTailQueue(config.queue_capacity_packets),
            name="bottleneck",
        )
        self.bottleneck.connect(self.right.receive)
        self.reverse_bottleneck = Link(
            sim,
            config.bottleneck_bandwidth,
            config.bottleneck_delay,
            DropTailQueue(config.reverse_queue_capacity_packets),
            name="bottleneck-rev",
        )
        self.reverse_bottleneck.connect(self.left.receive)
        self.left.set_default_route(self.bottleneck)
        self.right.set_default_route(self.reverse_bottleneck)

        for i in range(config.n_pairs):
            self._add_pair(i)

    def _add_pair(self, index: int) -> None:
        cfg = self.config
        src = Host(self.sim, f"src{index}")
        dst = Host(self.sim, f"dst{index}")

        up = Link(self.sim, cfg.access_bandwidth, cfg.access_delay,
                  DropTailQueue(10_000), name=f"src{index}->R0")
        up.connect(self.left.receive)
        src.set_default_route(up)

        down = Link(self.sim, cfg.access_bandwidth, cfg.access_delay,
                    DropTailQueue(10_000), name=f"R1->dst{index}")
        down.connect(dst.receive)
        down.in_order = True  # fed only by the bottleneck, through R1
        self.right.add_route(dst.name, down)

        back_up = Link(self.sim, cfg.access_bandwidth, cfg.access_delay,
                       DropTailQueue(10_000), name=f"dst{index}->R1")
        back_up.connect(self.right.receive)
        dst.set_default_route(back_up)

        back_down = Link(self.sim, cfg.access_bandwidth, cfg.access_delay,
                         DropTailQueue(10_000), name=f"R0->src{index}")
        back_down.connect(src.receive)
        back_down.in_order = True  # fed only by the reverse bottleneck, via R0
        self.left.add_route(src.name, back_down)

        self.sources.append(src)
        self.sinks.append(dst)

    def pair(self, index: int) -> tuple[Host, Host]:
        """Return the (source, sink) hosts of flow slot ``index``."""
        return self.sources[index], self.sinks[index]

    @property
    def base_rtt(self) -> float:
        """Propagation-only RTT between any source/sink pair."""
        return self.config.round_trip_propagation
