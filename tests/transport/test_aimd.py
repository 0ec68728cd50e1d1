"""Unit tests for the window-based AIMD transport (section 7)."""

import pytest

from repro.sim.topology import Dumbbell, DumbbellConfig
from repro.transport.aimd import WindowAimdSink, WindowAimdSource
from repro.transport.rap import RapSink


@pytest.fixture
def wired(sim):
    net = Dumbbell(sim, DumbbellConfig(
        n_pairs=1, bottleneck_bandwidth=20_000,
        queue_capacity_packets=10))
    src, dst = net.pair(0)
    source = WindowAimdSource(sim, src, dst.name, packet_size=500)
    sink = WindowAimdSink(sim, dst, src.name, source.flow_id)
    return net, source, sink


class TestBasics:
    def test_sink_is_rap_sink(self):
        assert WindowAimdSink is RapSink

    def test_data_flows(self, sim, wired):
        _, source, sink = wired
        sim.run(until=5.0)
        assert sink.stats.packets_received > 0
        assert source.stats.acks_received > 0

    def test_rate_and_slope_properties(self, sim, wired):
        _, source, _ = wired
        assert source.rate == pytest.approx(
            source.cwnd * source.packet_size / source.srtt)
        assert source.slope == pytest.approx(
            source.packet_size / source.srtt ** 2)

    def test_rejects_bad_packet_size(self, sim, wired):
        net, _, _ = wired
        src, dst = net.pair(0)
        with pytest.raises(ValueError):
            WindowAimdSource(sim, src, dst.name, packet_size=0,
                             flow_id=777)

    def test_window_limits_outstanding(self, sim, wired):
        _, source, _ = wired
        sim.run(until=10.0)
        assert len(source.law.outstanding) <= int(source.cwnd) + 1


class TestAimdBehaviour:
    def test_window_grows_without_loss(self, sim):
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=10_000_000))
        src, dst = net.pair(0)
        source = WindowAimdSource(sim, src, dst.name, packet_size=500)
        WindowAimdSink(sim, dst, src.name, source.flow_id)
        sim.run(until=5.0)
        assert source.cwnd > WindowAimdSource.INITIAL_CWND
        assert source.stats.backoffs == 0

    def test_congestion_halves_window(self, sim, wired):
        _, source, _ = wired
        sim.run(until=20.0)
        assert source.stats.backoffs > 0

    def test_utilizes_link(self, sim, wired):
        _, _, sink = wired
        sim.run(until=30.0)
        assert sink.stats.bytes_received / 30.0 > 0.5 * 20_000

    def test_one_backoff_per_event(self, sim, wired):
        _, source, _ = wired
        sim.run(until=20.0)
        assert source.stats.backoffs <= source.stats.packets_lost + 1

    def test_window_never_below_minimum(self, sim, wired):
        _, source, _ = wired
        sim.run(until=20.0)
        assert source.cwnd >= WindowAimdSource.MIN_CWND


class TestHooks:
    def test_payload_picker_meta(self, sim):
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=100_000))
        src, dst = net.pair(0)
        received = []
        source = WindowAimdSource(
            sim, src, dst.name,
            payload_picker=lambda seq: {"layer": seq % 2})
        WindowAimdSink(sim, dst, src.name, source.flow_id,
                       on_data=lambda p: received.append(p.layer))
        sim.run(until=3.0)
        assert set(received) <= {0, 1}
        assert received

    def test_backoff_hook_reports_rate(self, sim, wired):
        net, source, _ = wired
        rates = []
        source.on_backoff = rates.append
        sim.run(until=20.0)
        assert rates
        assert all(r > 0 for r in rates)

    def test_loss_hook_fires(self, sim):
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=5_000,
            queue_capacity_packets=3))
        src, dst = net.pair(0)
        losses = []
        source = WindowAimdSource(
            sim, src, dst.name, packet_size=500,
            on_loss=lambda seq, meta, size: losses.append(seq))
        WindowAimdSink(sim, dst, src.name, source.flow_id)
        sim.run(until=20.0)
        assert losses

    def test_drives_the_quality_adapter(self, sim):
        """The section-7 claim: the unchanged adapter works over a
        window AIMD transport."""
        from repro.core.config import QAConfig
        from repro.server.session import StreamingSession

        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=40_000,
            queue_capacity_packets=20))
        config = QAConfig(layer_rate=8_000.0, max_layers=4, k_max=2,
                          packet_size=500)
        session = StreamingSession(
            sim, *net.pair(0), config,
            transport_cls=WindowAimdSource)
        sim.run(until=30.0)
        result = session.result()
        assert result.playout.played_bytes > 0
        assert result.tracer.get("layers").max() >= 2
