"""Tests for selective base-layer retransmission (section 1.3)."""

import pytest

from repro.core.config import QAConfig
from repro.core.metrics import DropCause

from tests.core.test_adapter import Harness


def make_harness(retransmit_layers=1, rate=30_000.0, **overrides):
    params = dict(layer_rate=5_000.0, max_layers=4, k_max=2,
                  packet_size=500, startup_delay=0.5,
                  retransmit_layers=retransmit_layers)
    params.update(overrides)
    return Harness(QAConfig(**params), rate=rate)


class TestConfig:
    def test_disabled_by_default(self):
        assert QAConfig().retransmit_layers == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            QAConfig(retransmit_layers=-1)


class TestRetransmission:
    def test_lost_base_packet_is_resent_first(self):
        h = make_harness()
        h.send_packets(4)
        h.adapter.on_lost(0, 500)
        layers = h.send_packets(1)
        assert layers == [0]
        assert h.adapter.retransmitted_bytes == 500

    def test_debt_accumulates_across_losses(self):
        h = make_harness()
        h.send_packets(6)
        for _ in range(3):
            h.adapter.on_lost(0, 500)
        layers = h.send_packets(3)
        assert layers == [0, 0, 0]
        assert h.adapter.retransmitted_bytes == 1500

    def test_unprotected_layer_losses_not_resent(self):
        h = make_harness(retransmit_layers=1)
        h.drive(5.0)  # grow to several layers
        assert h.adapter.active_layers >= 2
        before = h.adapter.retransmitted_bytes
        h.adapter.on_lost(1, 500)
        h.send_packets(1)
        assert h.adapter.retransmitted_bytes == before

    def test_disabled_means_no_retransmissions(self):
        h = make_harness(retransmit_layers=0)
        h.send_packets(4)
        h.adapter.on_lost(0, 500)
        h.send_packets(5)
        assert h.adapter.retransmitted_bytes == 0

    def test_sub_packet_debt_waits(self):
        h = make_harness()
        h.send_packets(2)
        h.adapter.on_lost(0, 200)  # less than a packet
        layers_before = h.adapter.retransmitted_bytes
        h.send_packets(1)
        assert h.adapter.retransmitted_bytes == layers_before

    def test_drop_clears_protected_debt(self):
        h = make_harness(retransmit_layers=4)
        h.drive(5.0)
        assert h.adapter.active_layers >= 2
        top = h.adapter.active_layers - 1
        h.adapter.on_lost(top, 500)
        h.adapter._drop_top_layer(DropCause.RULE, h.rate)
        assert h.adapter._retransmit_debt[top] == 0.0


class TestIdleSlotSpendsNothing:
    """Receiver flow control idles a slot *after* the pick: whatever the
    pick would have charged (retransmission debt, draining quota) must
    still be owed afterwards."""

    @staticmethod
    def fill_to_cap(h, layer):
        cap = h.config.max_buffer_seconds * h.config.layer_rate
        h.adapter.buffers.deliver(layer, cap + 2 * h.config.packet_size)

    def draining(self, **overrides):
        """Several layers, then a collapsed rate and a live drain plan."""
        h = make_harness(max_buffer_seconds=30.0, rate=40_000.0,
                         **overrides)
        h.drive(8.0)
        assert h.adapter.active_layers >= 3
        h.rate = h.adapter.consumption * 0.7
        h.adapter.on_backoff(h.rate)
        h.send_packets(1)
        assert not h.adapter.is_filling() and h.adapter._quota
        return h

    def test_idle_slot_keeps_retransmission_debt(self):
        h = make_harness(max_buffer_seconds=0.5)
        self.fill_to_cap(h, 0)
        h.adapter.on_lost(0, h.config.packet_size)
        del h.events[:]
        assert h.adapter.pick_layer(0) is None
        assert h.adapter._retransmit_debt[0] == h.config.packet_size
        assert h.adapter.retransmitted_bytes == 0
        assert [kind for _, kind, _ in h.events] == []
        # The debt is served once the receiver has room again.
        h.adapter.buffers.withdraw(0, 3 * h.config.packet_size)
        assert h.send_packets(1) == [0]
        assert h.adapter._retransmit_debt[0] == 0
        assert h.adapter.retransmitted_bytes == h.config.packet_size
        assert [kind for _, kind, _ in h.events] == ["retransmit"]

    def test_idle_retransmission_is_not_refunded_quota(self):
        h = self.draining()
        h.adapter.on_lost(0, h.config.packet_size)  # owes quota + debt
        self.fill_to_cap(h, 0)
        quota = list(h.adapter._quota)
        assert h.adapter.pick_layer(0) is None
        assert h.adapter._quota == quota

    def test_idle_surplus_slot_is_not_refunded_quota(self):
        """All quotas spent: the slot is filling-phase bandwidth and
        never charged a quota, so idling it refunds nothing."""
        h = self.draining(retransmit_layers=0)
        h.adapter._quota = [0.0] * h.adapter.active_layers
        for layer in range(h.adapter.active_layers):
            self.fill_to_cap(h, layer)
        assert h.adapter.pick_layer(0) is None
        assert h.adapter._quota == [0.0] * h.adapter.active_layers

    def test_idle_quota_slot_is_refunded_what_it_paid(self):
        h = self.draining(retransmit_layers=0)
        for layer in range(h.adapter.active_layers):
            self.fill_to_cap(h, layer)
        quota = list(h.adapter._quota)
        assert max(quota) > 0
        assert h.adapter.pick_layer(0) is None
        assert h.adapter._quota == quota
