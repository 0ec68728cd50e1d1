"""Fused hops against the event path.

``Dumbbell`` marks its router-to-host links in order, so the bottlenecks
hand them packets at transmit time (``Link.send(packet, at)``) instead of
delivering to the router by event. The single-link oracle of
``test_link_equivalence`` cannot see that, so a mixed QA/RAP/TCP
dumbbell runs twice, once as built and once with every mark cleared, and
everything observable must agree bit for bit: delivery instants at every
host, the bottleneck's flow monitor, every link's queue and forwarded
counters, the routers' ``packets_received`` and the exported metrics,
read mid-run and at the end.
"""

from __future__ import annotations

import pytest

from repro.scenario import (
    QAFlowSpec,
    RapFlowSpec,
    Scenario,
    ScenarioConfig,
    TcpFlowSpec,
)
from repro.sim.engine import SimulationError
from repro.sim.link import Link
from repro.sim.packet import Packet
from repro.sim.topology import Dumbbell, DumbbellConfig

FLOWS = (QAFlowSpec(), RapFlowSpec(), TcpFlowSpec(), RapFlowSpec(),
         TcpFlowSpec())
DURATION = 12.0
#: Mid-run reads, off any sampling grid.
READS = (0.37, 1.9, 4.45, 7.03)

#: Fast access links (the paper's setup: a sink's link is always free
#: when the next packet comes off the bottleneck) and slow ones (it often
#: is not, so those packets take the event path and the ones behind them
#: follow until they are in). A delivery taken ahead draws its event
#: sequence number earlier than the event path would, so two events at
#: the very same float instant may swap: the slow rate is chosen so that
#: its serialization times share no grid with the bottleneck's.
TOPOLOGIES = {
    "fast-access": DumbbellConfig(bottleneck_bandwidth=60_000.0,
                                  queue_capacity_packets=15),
    "slow-access": DumbbellConfig(bottleneck_bandwidth=60_000.0,
                                  access_bandwidth=37_711.0,
                                  queue_capacity_packets=15),
}


def links_of(net: Dumbbell) -> list[Link]:
    out = [net.bottleneck, net.reverse_bottleneck]
    for src, dst in zip(net.sources, net.sinks):
        out += [src.default_route, net.right.routes[dst.name],
                dst.default_route, net.left.routes[src.name]]
    return out


def observe(scenario: Scenario) -> dict:
    net = scenario.network
    monitor = scenario.monitor
    # Flow ids come from a process-wide counter: key flows by position.
    index = {flow.flow_id: flow.index for flow in scenario.flows}
    metrics = scenario.metrics.snapshot()
    metrics.pop("engine_events_total")  # the one thing fusion changes
    return {
        "now": scenario.sim.now,
        "links": [(link.name, link.busy, link.packets_forwarded,
                   link.bytes_forwarded, len(link.queue),
                   link.queue.byte_length, link.queue.enqueues,
                   link.queue.dequeues, link.queue.drops)
                  for link in links_of(net)],
        "routers": (net.left.packets_received, net.right.packets_received),
        "monitor": ({index[f]: n for f, n in monitor.bytes_by_flow.items()},
                    {index[f]: (series.times, series.values)
                     for f, series in monitor.throughput.items()}),
        "metrics": metrics,
    }


def run(topology: DumbbellConfig, fused: bool) -> tuple[dict, dict]:
    """Everything observable, and how the run paid in events: the total,
    the bottlenecks' own deliveries and the packets taken ahead."""
    scenario = Scenario(ScenarioConfig(
        flows=FLOWS, topology=topology, duration=DURATION, seed=11,
        collect_metrics=True))
    net = scenario.network
    sim = scenario.sim
    deliveries: list[tuple] = []
    index = {flow.flow_id: flow.index for flow in scenario.flows}
    bottlenecks = (net.bottleneck, net.reverse_bottleneck)
    by_event = [0]

    def record(callback, seconds, depth):
        if getattr(callback, "__self__", None) in bottlenecks:
            by_event[0] += 1

    sim.instrument(lambda: 0.0, record)

    def tap(host):
        receive = host.receive

        def deliver(packet: Packet) -> None:
            deliveries.append((host.name, sim.now, index[packet.flow_id],
                               packet.seq, packet.ptype.value))
            receive(packet)
        return deliver

    in_order = []
    for src, dst in zip(net.sources, net.sinks):
        for router, host in ((net.right, dst), (net.left, src)):
            link = router.routes[host.name]
            assert link.in_order
            link.in_order = fused
            link.connect(tap(host))
            in_order.append(link)
    reads = []
    for until in READS:
        sim.run(until=until)
        reads.append(observe(scenario))
    sim.run(until=DURATION)
    reads.append(observe(scenario))
    cost = {"events": sim.events_processed, "by_event": by_event[0],
            "ahead": sum(link.arrived_ahead for link in in_order)}
    return {"deliveries": deliveries, "reads": reads}, cost


@pytest.fixture(scope="module", params=sorted(TOPOLOGIES))
def both(request):
    topology = TOPOLOGIES[request.param]
    return (request.param, run(topology, fused=True),
            run(topology, fused=False))


def test_fusion_changes_nothing_but_the_event_count(both):
    _, (fused, _), (plain, _) = both
    assert fused["deliveries"] == plain["deliveries"]
    assert len(fused["reads"]) == len(READS) + 1
    for got, want in zip(fused["reads"], plain["reads"]):
        assert got == want
    assert fused["reads"][-1]["links"][0][8] > 0, "the bottleneck drops"


def test_each_packet_taken_ahead_saves_its_router_event(both):
    """With fast access links every packet off a bottleneck is taken
    ahead; with slow ones some find the sink's link busy and go by
    event, and so do the ones behind them until they are in."""
    name, (_, fused), (_, plain) = both
    assert plain["ahead"] == 0
    assert fused["events"] == plain["events"] - fused["ahead"]
    assert fused["by_event"] + fused["ahead"] == plain["by_event"]
    if name == "fast-access":
        assert fused["by_event"] == 0
    else:
        assert 0 < fused["by_event"] < fused["ahead"]


class TestInOrderGuard:
    def test_ahead_offer_before_an_accepted_one_raises(self, sim):
        link = Link(sim, bandwidth=1e6, delay=0.001, name="down")
        link.connect(lambda packet: None)
        link.in_order = True
        assert link.send(Packet(flow_id=1, seq=0, size=100), at=1.0)
        with pytest.raises(SimulationError):
            link.send(Packet(flow_id=1, seq=1, size=100), at=0.5)
        with pytest.raises(SimulationError):  # now == 0 < 1.0
            link.send(Packet(flow_id=1, seq=2, size=100))

    def test_a_second_feeder_breaks_the_claim(self, sim):
        """A sink sending to another sink feeds that sink's in-order link
        from a second upstream link: caught, not silently reordered."""
        net = Dumbbell(sim, DumbbellConfig(n_pairs=2))
        (src0, dst0), (_, dst1) = net.pair(0), net.pair(1)
        src0.send(Packet(flow_id=1, seq=0, size=1000, dst=dst0.name))
        sim.schedule_at(0.01, lambda: dst1.send(
            Packet(flow_id=2, seq=0, size=1000, dst=dst0.name)))
        with pytest.raises(SimulationError, match="R1->dst0"):
            sim.run()
