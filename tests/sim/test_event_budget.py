"""How many events a packet costs, pinned.

The packet simulator's run time is events times a near-constant cost per
event, so events per packet is the number a link or engine change must
not quietly raise. A link costs one event per packet, its delivery,
whether the packet waited for the wire or not; a dumbbell's bottlenecks
cost none, as they hand their packets to the in-order router-to-host
links at transmit time (``Router.receive_ahead``).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from repro.scenario import (
    QAFlowSpec,
    RapFlowSpec,
    Scenario,
    ScenarioConfig,
    TcpFlowSpec,
)
from repro.sim.link import Link
from repro.sim.packet import Packet, PacketType
from repro.sim.topology import Dumbbell, DumbbellConfig
from repro.telemetry import QueueOccupancyProbe, TelemetryBus
from repro.transport.cbr import CbrSink, CbrSource


def count_link_events(sim) -> Counter:
    """Events dispatched per link name, through the engine's observer."""
    events: Counter = Counter()

    def record(callback, seconds, depth):
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Link):
            events[owner.name] += 1

    sim.instrument(lambda: 0.0, record)
    return events


def hop_links(net: Dumbbell, index: int) -> list[Link]:
    src, dst = net.pair(index)
    return [src.default_route, net.bottleneck, net.right.routes[dst.name],
            dst.default_route, net.reverse_bottleneck,
            net.left.routes[src.name]]


class _Echo:
    """Answers every data packet with a 40-byte ACK."""

    def __init__(self, host, peer):
        self.host, self.peer = host, peer
        self.received = []

    def receive(self, packet):
        self.received.append(packet)
        if packet.is_data():
            self.host.send(Packet(flow_id=packet.flow_id, seq=packet.seq,
                                  size=40, ptype=PacketType.ACK,
                                  dst=self.peer))


def test_a_packet_and_its_ack_cost_four_events(sim):
    net = Dumbbell(sim, DumbbellConfig())
    src, dst = net.pair(0)
    sender, echo = _Echo(src, dst.name), _Echo(dst, src.name)
    src.attach(1, sender)
    dst.attach(1, echo)
    events = count_link_events(sim)
    src.send(Packet(flow_id=1, seq=0, size=1000, dst=dst.name))
    sim.run()
    assert [p.ptype for p in sender.received] == [PacketType.ACK]
    assert sim.events_processed == 4
    fused = (net.bottleneck, net.reverse_bottleneck)
    assert events == {link.name: 1 for link in hop_links(net, 0)
                      if link not in fused}


def test_a_backlogged_link_costs_one_event_per_packet(sim):
    link = Link(sim, bandwidth=10_000, delay=0.05, name="alone")
    link.connect(lambda packet: None)
    events = count_link_events(sim)
    for seq in range(20):
        link.send(Packet(flow_id=1, seq=seq, size=1000))
    sim.run()
    assert link.packets_forwarded == 20
    assert events == {"alone": 20}


def test_a_backlogged_bottleneck_costs_one_event_per_packet(sim):
    """Two CBR flows, each at the full bottleneck rate: the bottleneck is
    backlogged from the second packet on, every access hop stays idle,
    and each packet's one event is its delivery at the sink."""
    config = DumbbellConfig(n_pairs=2)
    net = Dumbbell(sim, config)
    for index in range(2):
        src, dst = net.pair(index)
        CbrSource(sim, src, dst.name, rate=config.bottleneck_bandwidth,
                  flow_id=index + 1, stop=1.0)
        CbrSink(sim, dst, src.name, flow_id=index + 1)
    events = count_link_events(sim)
    sim.run()
    bottleneck = net.bottleneck
    assert bottleneck.queue.drops > 0
    assert bottleneck.packets_forwarded > 100
    assert bottleneck.name not in events
    access = [link for index in range(2) for link in hop_links(net, index)
              if link is not bottleneck and link.packets_forwarded]
    assert len(access) == 4
    assert events == {link.name: link.packets_forwarded for link in access}
    assert bottleneck.packets_forwarded == sum(
        net.right.routes[dst.name].packets_forwarded for dst in net.sinks)


@pytest.fixture(scope="module")
def pinned():
    """One small mixed scenario, seed 7, run once for the tests below."""
    scenario = Scenario(ScenarioConfig(
        flows=(QAFlowSpec(), RapFlowSpec(), TcpFlowSpec()),
        topology=DumbbellConfig(bottleneck_bandwidth=60_000.0,
                                queue_capacity_packets=30),
        duration=8.0, seed=7, collect_metrics=True))
    bus = TelemetryBus(scenario.sim)
    bus.subscribe(QueueOccupancyProbe(
        scenario.network.bottleneck, name="bn", period=0.05))
    return scenario, bus, scenario.run()


class TestPinnedScenario:
    """Everything but the event count is what the three-events-per-packet
    link produced for this scenario."""

    def test_event_count(self, pinned):
        scenario, _, _ = pinned
        # 6884 with a tx-complete event per packet, 4501 with a drain
        # event per packet that waited and the router hop by event, 3016
        # while RAP ran three timers (coincident RAP deadlines now share
        # one event). A rise means some hop went back to paying for
        # events it does not need.
        assert scenario.sim.events_processed == 3013

    def test_observers_read_the_values_they_always_read(self, pinned):
        scenario, bus, result = pinned
        link = scenario.network.bottleneck
        # 469 packets started, the last still on the wire at t=8.
        assert (link.packets_forwarded, link.bytes_forwarded) == (468, 468000)
        queue = link.queue
        assert (queue.enqueues, queue.dequeues, queue.drops) == (488, 469, 113)
        assert result.link_utilization == [0.975]
        assert [f.bytes_delivered for f in result.flows] == [
            193000, 155000, 119000]
        series = {
            channel: [list(bus.series(channel).times),
                      list(bus.series(channel).values)]
            for channel in ("bn_qlen", "bn_qbytes", "bn_drops")}
        digest = hashlib.sha256(json.dumps(series).encode()).hexdigest()
        assert digest.startswith("b6fa98c333155e96")

    def test_metrics_export_agrees_with_the_link(self, pinned):
        scenario, _, _ = pinned
        link = scenario.network.bottleneck
        exported = scenario.metrics.snapshot()

        def sample(name):
            (entry,) = exported[name]["samples"]
            assert entry["labels"] == {"link": "bottleneck"}
            return entry["value"]

        assert sample("link_tx_bytes_total") == link.bytes_forwarded
        assert sample("link_packets_forwarded") == link.packets_forwarded
        assert sample("link_queue_drops_total") == link.queue.drops
