"""Unit tests for transport plumbing shared by all agents."""

from repro.sim.node import Host
from repro.sim.packet import PacketType
from repro.transport.base import FlowStats, TransportAgent, next_flow_id


class TestFlowStats:
    def test_goodput(self):
        stats = FlowStats(bytes_received=1000)
        assert stats.goodput(10.0) == 100.0

    def test_goodput_zero_duration(self):
        assert FlowStats(bytes_received=1000).goodput(0.0) == 0.0

    def test_defaults_are_zero(self):
        stats = FlowStats()
        assert stats.packets_sent == 0
        assert stats.backoffs == 0
        assert stats.timeouts == 0


class TestFlowIds:
    def test_unique_and_increasing(self):
        a, b = next_flow_id(), next_flow_id()
        assert b == a + 1


class TestTransportAgent:
    def test_attaches_to_host(self, sim):
        host = Host(sim, "h")
        agent = TransportAgent(sim, host, "peer", flow_id=4242)
        assert host._handlers[4242] is agent

    def test_make_packet_fields(self, sim):
        host = Host(sim, "h")
        agent = TransportAgent(sim, host, "peer", flow_id=4243)
        meta = {"layer": 2}
        sim.run(until=1.5)
        packet = agent._make_packet(7, 500, meta=meta)
        assert packet.flow_id == 4243
        assert packet.seq == 7
        assert packet.size == 500
        assert packet.src == "h"
        assert packet.dst == "peer"
        assert packet.created_at == 1.5
        assert packet.meta is meta
        assert packet.ptype is PacketType.DATA
        ack = agent._make_packet(8, 40, PacketType.ACK)
        assert ack.ptype is PacketType.ACK
        assert ack.meta == {}
        assert agent._make_packet(9, 40).meta is not ack.meta

    def test_transmit_counts_only_data(self, sim):
        host = Host(sim, "h")
        sent = []

        class FakeLink:
            def send(self, packet):
                sent.append(packet)
                return True

        host.set_default_route(FakeLink())
        agent = TransportAgent(sim, host, "peer", flow_id=4244)
        agent._transmit(agent._make_packet(0, 500))
        agent._transmit(agent._make_packet(0, 40,
                                           ptype=PacketType.ACK))
        assert agent.stats.packets_sent == 1
        assert agent.stats.bytes_sent == 500
        assert len(sent) == 2
