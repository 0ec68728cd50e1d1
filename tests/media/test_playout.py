"""Unit tests for the client playout engine."""

import pytest

from repro.media.playout import PlayoutBuffer


def make(playout_start=1.0, layer_rate=1000.0, max_layers=4,
         layer_start_threshold=0.0):
    return PlayoutBuffer(layer_rate=layer_rate, max_layers=max_layers,
                         playout_start=playout_start,
                         layer_start_threshold=layer_start_threshold)


class TestStartup:
    def test_not_playing_before_start(self):
        po = make(playout_start=1.0)
        po.on_packet(0.5, 0, 500)
        po.advance(0.9)
        assert not po.playing

    def test_playing_after_start(self):
        po = make(playout_start=1.0)
        po.on_packet(0.5, 0, 500)
        po.advance(1.1)
        assert po.playing
        assert po.stats.startup_time == pytest.approx(1.0)

    def test_starting_with_empty_base_counts_a_stall(self):
        po = make(playout_start=1.0)
        po.advance(1.1)
        assert po.stalled
        assert po.stats.stall_count == 1


class TestConsumption:
    def test_base_drains_at_layer_rate(self):
        po = make()
        po.on_packet(0.0, 0, 3000)
        po.advance(2.0)  # playout started at 1.0; 1 s consumed
        assert po.level(0) == pytest.approx(2000)

    def test_data_before_start_is_preserved(self):
        po = make()
        po.on_packet(0.0, 0, 3000)
        po.advance(0.9)
        assert po.level(0) == 3000

    def test_played_bytes_accumulate(self):
        po = make()
        po.on_packet(0.0, 0, 3000)
        po.advance(3.0)
        assert po.stats.played_bytes == pytest.approx(2000)

    def test_played_bytes_never_fall_across_a_drop(self):
        po = make(playout_start=0.0)
        po.on_packet(0.0, 0, 10_000)
        po.on_packet(0.0, 1, 10_000)
        readings = []
        for now in (1.0, 2.0, 2.5, 3.0):
            # At 2.5 the server's packets say it dropped layer 1.
            po.on_packet(now, 0, 100, server_active=1 if now >= 2.5 else 2)
            readings.append(po.stats.played_bytes)
        assert po.active_layers == 1
        assert readings == pytest.approx([2000, 4000, 5000, 5500])


class TestStalls:
    def test_base_underflow_stalls(self):
        po = make()
        po.on_packet(0.0, 0, 500)
        po.advance(2.0)  # wants 1000, has 500
        assert po.stalled
        assert po.stats.stall_count == 1

    def test_stall_pauses_consumption(self):
        po = make()
        po.on_packet(0.0, 0, 500)
        po.advance(2.0)
        po.advance(5.0)
        # No further consumption while stalled.
        assert po.stats.stall_count == 1
        assert po.buffers.consumed(0) == pytest.approx(500)

    def test_resume_after_refill(self):
        po = make()
        po.on_packet(0.0, 0, 500)
        po.advance(2.0)
        assert po.stalled
        po.on_packet(2.5, 0, 500)  # 500 >= resume threshold (100)
        assert not po.stalled
        assert po.stats.stall_time == pytest.approx(0.5)

    def test_consumption_resumes_from_resume_time(self):
        po = make()
        po.on_packet(0.0, 0, 500)
        po.advance(2.0)
        po.on_packet(3.0, 0, 1000)
        po.advance(3.5)
        assert po.buffers.consumed(0) == pytest.approx(500 + 500)


class TestEnhancementLayers:
    def test_enhancement_underflow_is_a_gap_not_a_stall(self):
        po = make()
        po.on_packet(0.0, 0, 10_000)
        po.on_packet(0.0, 1, 500)
        po.advance(3.0)
        assert not po.stalled
        assert po.stats.gap_bytes(1) > 0
        assert po.stats.stall_count == 0

    def test_layer_start_threshold(self):
        po = make(layer_start_threshold=1000.0)
        po.on_packet(0.0, 0, 10_000)
        po.advance(1.5)
        po.on_packet(1.5, 1, 500)  # below threshold: not consuming yet
        po.advance(2.0)
        assert po.level(1) == 500
        po.on_packet(2.0, 1, 500)  # threshold reached
        po.advance(3.0)
        assert po.level(1) < 1000

    def test_activation_is_ordered(self):
        po = make()
        po.on_packet(0.0, 2, 500)
        assert po.buffers.is_active(0)
        assert po.buffers.is_active(1)
        assert po.buffers.is_active(2)
        assert po.active_layers == 3


class TestServerSync:
    def test_drop_follows_server_active_count(self):
        po = make()
        po.on_packet(0.0, 0, 1000)
        po.on_packet(0.0, 1, 1000)
        po.on_packet(0.0, 2, 1000)
        assert po.active_layers == 3
        po.on_packet(0.5, 0, 1000, server_active=2)
        assert po.active_layers == 2
        assert not po.buffers.is_active(2)

    def test_server_active_never_drops_base(self):
        po = make()
        po.on_packet(0.0, 0, 1000)
        po.on_packet(0.5, 0, 1000, server_active=0)
        assert po.active_layers == 1
        assert po.buffers.is_active(0)

    def test_total_buffered(self):
        po = make()
        po.on_packet(0.0, 0, 1000)
        po.on_packet(0.0, 1, 500)
        assert po.total_buffered() == 1500
        assert po.levels() == [1000, 500]
