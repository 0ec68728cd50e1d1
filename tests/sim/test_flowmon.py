"""Unit tests for flow monitoring and fairness statistics."""

import pytest

from repro.sim.flowmon import FlowMonitor, jain_index
from repro.sim.topology import Dumbbell, DumbbellConfig
from repro.transport import RapSink, RapSource, TcpSink, TcpSource


class TestJainIndex:
    def test_perfectly_fair(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_one_hog(self):
        assert jain_index([10.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    def test_empty_is_fair(self):
        assert jain_index([]) == 1.0

    def test_all_zero_is_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_bounds(self):
        idx = jain_index([1.0, 2.0, 3.0, 4.0])
        assert 1 / 4 <= idx <= 1.0


class TestFlowMonitor:
    def test_requires_connected_link(self, sim):
        from repro.sim.link import Link
        link = Link(sim, 1000, 0.01)
        with pytest.raises(ValueError):
            FlowMonitor(sim, link)

    def test_counts_per_flow_bytes(self, sim):
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=2, bottleneck_bandwidth=50_000,
            queue_capacity_packets=20))
        monitor = FlowMonitor(sim, net.bottleneck)
        sources = []
        for i in range(2):
            src, dst = net.pair(i)
            source = RapSource(sim, src, dst.name, packet_size=500)
            RapSink(sim, dst, src.name, source.flow_id)
            sources.append(source)
        sim.run(until=10.0)
        assert set(monitor.flows()) == {s.flow_id for s in sources}
        for s in sources:
            assert monitor.bytes_by_flow[s.flow_id] > 0
            assert monitor.mean_rate(s.flow_id) > 0

    def test_throughput_series_sampled(self, sim):
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=50_000))
        monitor = FlowMonitor(sim, net.bottleneck, sample_period=0.5)
        src, dst = net.pair(0)
        source = RapSource(sim, src, dst.name, packet_size=500)
        RapSink(sim, dst, src.name, source.flow_id)
        sim.run(until=5.0)
        series = monitor.throughput[source.flow_id]
        assert len(series) >= 8

    def test_a_silent_window_is_a_zero_sample(self, sim):
        """A flow that stops keeps being sampled, at 0.0: its series
        used to end with its last packet, so ``mean()`` read 30 000 B/s
        against a true 12 500 and ``value_at(5.0)`` the last busy
        window's 21 000."""
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=50_000))
        monitor = FlowMonitor(sim, net.bottleneck, sample_period=0.5)
        src, dst = net.pair(0)
        source = RapSource(sim, src, dst.name, packet_size=500, stop=2.0)
        RapSink(sim, dst, src.name, source.flow_id)
        sim.run(until=6.0)
        series = monitor.throughput[source.flow_id]
        assert series.times == [0.5 * k for k in range(1, 13)]
        assert series.values[4] > 0 and series.values[5:] == [0.0] * 7
        assert series.value_at(5.0) == 0.0
        assert series.mean() == pytest.approx(
            monitor.mean_rate(source.flow_id))

    def test_rap_and_tcp_share_reasonably(self, sim):
        """The fairness claim behind the whole paper: RAP is
        TCP-friendly enough that neither protocol starves."""
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=4, bottleneck_bandwidth=100_000,
            queue_capacity_packets=30))
        monitor = FlowMonitor(sim, net.bottleneck)
        ids = []
        for i in range(2):
            src, dst = net.pair(i)
            source = RapSource(sim, src, dst.name, packet_size=500,
                               srtt_init=0.2 + 0.01 * i)
            RapSink(sim, dst, src.name, source.flow_id)
            ids.append(source.flow_id)
        for i in range(2, 4):
            src, dst = net.pair(i)
            source = TcpSource(sim, src, dst.name, start=0.05 * i)
            TcpSink(sim, dst, src.name, source.flow_id)
            ids.append(source.flow_id)
        sim.run(until=40.0)
        assert monitor.fairness(ids) > 0.5

    def test_ack_packets_not_counted(self, sim):
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=50_000))
        # Monitor the *reverse* bottleneck: it carries only ACKs.
        monitor = FlowMonitor(sim, net.reverse_bottleneck)
        src, dst = net.pair(0)
        source = RapSource(sim, src, dst.name, packet_size=500)
        RapSink(sim, dst, src.name, source.flow_id)
        sim.run(until=5.0)
        assert monitor.bytes_by_flow == {}

    def test_stop_halts_sampling(self, sim):
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=50_000))
        monitor = FlowMonitor(sim, net.bottleneck, sample_period=0.5)
        src, dst = net.pair(0)
        source = RapSource(sim, src, dst.name, packet_size=500)
        RapSink(sim, dst, src.name, source.flow_id)
        sim.run(until=2.0)
        monitor.stop()
        counts = {k: len(v) for k, v in monitor.throughput.items()}
        sim.run(until=4.0)
        assert {k: len(v) for k, v in monitor.throughput.items()} \
            == counts
