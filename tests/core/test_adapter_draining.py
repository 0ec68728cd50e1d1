"""Focused tests for the adapter's draining-phase behaviour."""

from repro.core.config import QAConfig
from repro.core.metrics import DropCause

from tests.core.test_adapter import Harness


def draining_harness():
    """Grow to several layers at a high rate, then collapse the rate so
    the adapter enters a draining phase."""
    h = Harness(rate=40_000.0)
    h.drive(8.0)
    assert h.adapter.active_layers >= 3
    h.rate = h.adapter.consumption * 0.7
    h.adapter.on_backoff(h.rate)
    return h


class TestDrainingPlanPath:
    def test_plan_is_created_on_demand(self):
        h = draining_harness()
        h.send_packets(1)
        assert h.adapter._plan is not None
        assert h.adapter._quota

    def test_plan_refreshes_each_period(self):
        h = draining_harness()
        h.send_packets(1)
        first = h.adapter._plan
        h.advance(h.config.drain_period * 1.5)
        h.send_packets(1)
        assert h.adapter._plan is not first

    def test_draining_without_backoff_freezes_a_path(self):
        """A slow start below consumption drains with no recorded
        backoff; the adapter freezes a path at the consumption rate."""
        h = Harness(rate=30_000.0)
        h.drive(6.0)
        h.adapter._frozen_rate = None
        h.adapter._sequence = None
        h.rate = h.adapter.consumption * 0.6
        h.send_packets(1)
        assert h.adapter._sequence is not None
        assert (h.adapter._sequence.active_layers
                == h.adapter.active_layers)

    def test_sequence_tracks_layer_count_changes(self):
        h = draining_harness()
        h.send_packets(1)
        before = h.adapter._sequence.active_layers
        h.adapter._drop_top_layer(DropCause.RULE, h.rate)
        assert h.adapter._sequence.active_layers == before - 1


class TestFlowControlUnit:
    def test_full_layer_idles_the_slot(self):
        cfg = QAConfig(layer_rate=5_000.0, max_layers=2, k_max=2,
                       packet_size=500, startup_delay=0.5,
                       max_buffer_seconds=0.5)
        h = Harness(cfg, rate=40_000.0)
        # Fill the base beyond the 2_500-byte cap.
        for _ in range(10):
            meta = h.adapter.pick_layer(0)
            if meta is None:
                break
            h.adapter.on_delivered(meta["layer"], 500)
        assert h.adapter.buffers.level(0) <= 2_500 + 500
        # Eventually slots go idle.
        idles = sum(1 for _ in range(5)
                    if h.adapter.pick_layer(0) is None)
        assert idles >= 1

    def test_uncapped_never_idles(self):
        h = Harness(rate=40_000.0)
        assert all(h.adapter.pick_layer(i) is not None
                   for i in range(50))
