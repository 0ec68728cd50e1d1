"""Unit tests for the RAP congestion controller."""

import pytest

from repro.sim.topology import Dumbbell, DumbbellConfig
from repro.transport.rap import RapSink, RapSource


@pytest.fixture
def wired(sim):
    """A RAP source/sink pair on a 20 KB/s bottleneck."""
    net = Dumbbell(sim, DumbbellConfig(
        n_pairs=1, bottleneck_bandwidth=20_000,
        queue_capacity_packets=10))
    src, dst = net.pair(0)
    source = RapSource(sim, src, dst.name, packet_size=500)
    sink = RapSink(sim, dst, src.name, source.flow_id)
    return net, source, sink


class TestBasics:
    def test_packets_flow_and_are_acked(self, sim, wired):
        _, source, sink = wired
        sim.run(until=5.0)
        assert source.stats.packets_sent > 0
        assert sink.stats.packets_received > 0
        assert source.stats.acks_received > 0

    def test_rate_equals_packet_size_over_ipg(self, sim, wired):
        _, source, _ = wired
        assert source.rate == pytest.approx(
            source.packet_size / source.ipg)

    def test_slope_formula(self, sim, wired):
        _, source, _ = wired
        assert source.slope == pytest.approx(
            source.packet_size / source.srtt ** 2)

    def test_rejects_bad_packet_size(self, sim, wired):
        net, _, _ = wired
        src, dst = net.pair(0)
        with pytest.raises(ValueError):
            RapSource(sim, src, dst.name, packet_size=0, flow_id=999)

    def test_stop_silences_source(self, sim, wired):
        _, source, sink = wired
        sim.run(until=2.0)
        source.stop()
        sent = source.stats.packets_sent
        sim.run(until=4.0)
        assert source.stats.packets_sent == sent

    def test_stop_time_honoured(self, sim):
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=50_000))
        src, dst = net.pair(0)
        source = RapSource(sim, src, dst.name, stop=1.0)
        RapSink(sim, dst, src.name, source.flow_id)
        sim.run(until=1.0)
        sent = source.stats.packets_sent
        sim.run(until=3.0)
        assert source.stats.packets_sent == sent


class TestAimd:
    def test_additive_increase_without_loss(self, sim):
        # Huge bottleneck: no losses, rate should climb linearly.
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=10_000_000))
        src, dst = net.pair(0)
        source = RapSource(sim, src, dst.name, packet_size=500)
        RapSink(sim, dst, src.name, source.flow_id)
        r0 = source.rate
        sim.run(until=3.0)
        assert source.rate > r0
        assert source.stats.backoffs == 0

    def test_losses_trigger_backoffs(self, sim, wired):
        net, source, _ = wired
        sim.run(until=20.0)
        assert net.bottleneck.queue.drops > 0
        assert source.stats.backoffs > 0

    def test_rate_hunts_around_fair_share(self, sim, wired):
        _, source, sink = wired
        sim.run(until=30.0)
        goodput = sink.stats.bytes_received / 30.0
        assert 0.5 * 20_000 < goodput <= 20_000

    def test_one_backoff_per_congestion_event(self, sim, wired):
        """A burst of losses from one queue overflow halves once."""
        net, source, _ = wired
        sim.run(until=30.0)
        # Backoffs must be far fewer than lost packets would suggest if
        # each loss halved individually.
        assert source.stats.backoffs <= source.stats.packets_lost + 1
        assert source.stats.backoffs < 200

    def test_rate_never_below_min_rate(self, sim, wired):
        _, source, _ = wired
        sim.run(until=30.0)
        assert source.rate >= source.min_rate


class TestRttEstimation:
    def test_srtt_converges_to_path_rtt(self, sim):
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=1_000_000,
            access_delay=0.01, bottleneck_delay=0.03))
        src, dst = net.pair(0)
        source = RapSource(sim, src, dst.name, srtt_init=1.0)
        RapSink(sim, dst, src.name, source.flow_id)
        sim.run(until=10.0)
        # Base RTT is 0.1 s; srtt should be within queueing slack of it.
        assert 0.05 < source.srtt < 0.3

    def test_rto_bounds(self, sim, wired):
        _, source, _ = wired
        sim.run(until=5.0)
        assert 0.2 <= source.rto <= 5.0


class TestApplicationHooks:
    def test_payload_picker_controls_meta(self, sim):
        # A small queue, so some packets are lost as well as acked.
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=20_000,
            queue_capacity_packets=3))
        src, dst = net.pair(0)
        picked: dict[int, dict] = {}

        def picker(seq):
            picked[seq] = {"layer": seq % 3}
            return picked[seq]

        acked, lost, received, ack_keys = [], [], [], set()
        source = RapSource(
            sim, src, dst.name, packet_size=500, payload_picker=picker,
            on_ack=lambda seq, meta, size: acked.append((seq, meta)),
            on_loss=lambda seq, meta, size: lost.append((seq, meta)))
        receive_ack = source.receive

        def spy(packet):
            ack_keys.add(frozenset(packet.meta))
            receive_ack(packet)

        source.receive = spy
        RapSink(sim, dst, src.name, source.flow_id,
                on_data=received.append)
        sim.run(until=10.0)
        assert {p.layer for p in received} <= {0, 1, 2}
        assert len(received) > 3
        assert acked and lost
        # The picker's dict is the packet's meta and the ledger's entry:
        # never copied on the way out or back.
        assert all(p.meta is picked[p.seq] for p in received)
        assert all(meta is picked[seq] for seq, meta in acked + lost)
        # An ACK carries the two fields the source reads, nothing else.
        assert ack_keys == {frozenset({"acked_seq", "echo_ts"})}

    def test_payload_picker_none_skips_slot(self, sim):
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=100_000))
        src, dst = net.pair(0)
        source = RapSource(sim, src, dst.name,
                           payload_picker=lambda seq: None)
        RapSink(sim, dst, src.name, source.flow_id)
        sim.run(until=2.0)
        assert source.stats.packets_sent == 0

    def test_on_ack_receives_layer_meta(self, sim):
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=100_000))
        src, dst = net.pair(0)
        acked = []
        source = RapSource(
            sim, src, dst.name,
            payload_picker=lambda seq: {"layer": 1},
            on_ack=lambda seq, meta, size: acked.append((seq, meta)))
        RapSink(sim, dst, src.name, source.flow_id)
        sim.run(until=2.0)
        assert acked
        assert all(meta.get("layer") == 1 for _, meta in acked)

    def test_on_loss_and_on_backoff_fire_under_congestion(self, sim):
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=5_000,
            queue_capacity_packets=3))
        src, dst = net.pair(0)
        losses, backoffs = [], []
        source = RapSource(
            sim, src, dst.name, packet_size=500,
            on_loss=lambda seq, meta, size: losses.append(seq),
            on_backoff=backoffs.append)
        RapSink(sim, dst, src.name, source.flow_id)
        sim.run(until=20.0)
        assert losses
        assert backoffs
        # Backoff reports the post-halving rate.
        assert all(rate > 0 for rate in backoffs)

    def test_lost_packets_not_delivered(self, sim):
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=5_000,
            queue_capacity_packets=3))
        src, dst = net.pair(0)
        source = RapSource(sim, src, dst.name, packet_size=500)
        sink = RapSink(sim, dst, src.name, source.flow_id)
        sim.run(until=20.0)
        assert (sink.stats.packets_received
                < source.stats.packets_sent)
