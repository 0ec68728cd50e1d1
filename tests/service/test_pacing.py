"""The sans-IO RAP pacer under a scripted clock."""

import pytest

from repro.service.pacing import RapPacer


def make(now=0.0, **kw):
    return RapPacer(500, now, **kw)


def drain_sends(pacer, now, layer=0):
    """Consume every due transmission opportunity at ``now``."""
    seqs = []
    while pacer.send_due(now):
        seqs.append(pacer.register_send(now, {"layer": layer}, 500))
        now += pacer.ipg
    return seqs


class TestRates:
    def test_initial_rate_is_one_packet_per_srtt(self):
        pacer = make()
        assert pacer.rate == pytest.approx(500 / 0.2)
        assert pacer.ipg == pytest.approx(0.2)

    def test_additive_increase_once_per_srtt(self):
        pacer = make()
        r0 = pacer.rate
        pacer.advance(0.2)
        assert pacer.rate == pytest.approx(r0 + 500 / 0.2)
        pacer.advance(0.61)  # two more srtt periods elapsed
        assert pacer.rate == pytest.approx(r0 + 3 * 500 / 0.2)

    def test_max_rate_clamps_the_ramp(self):
        pacer = make(max_rate=5000.0)
        pacer.advance(10.0)
        assert pacer.rate == 5000.0

    def test_slope_is_packet_over_srtt_squared(self):
        pacer = make()
        assert pacer.slope == pytest.approx(500 / 0.2 ** 2)


class TestSending:
    def test_register_send_spaces_by_ipg(self):
        pacer = make()
        assert pacer.send_due(0.0)
        seq = pacer.register_send(0.0, {"layer": 0}, 500)
        assert seq == 0
        assert not pacer.send_due(pacer.ipg / 2)
        assert pacer.send_due(pacer.ipg)
        assert seq in pacer.outstanding

    def test_skip_send_burns_the_slot_without_a_seq(self):
        pacer = make()
        pacer.skip_send(0.0)
        assert pacer.next_seq == 0
        assert not pacer.outstanding
        assert not pacer.send_due(pacer.ipg / 2)

    def test_next_deadline_is_the_earliest_timer(self):
        pacer = make()
        assert pacer.next_deadline(0.0) <= min(0.2, pacer.rto / 2)


class TestFeedback:
    def test_ack_delivers_and_updates_rtt(self):
        pacer = make()
        pacer.register_send(0.0, {"layer": 1}, 500)
        actions = pacer.on_ack(0, echo_ts=0.0, now=0.1)
        assert actions.acked == [(0, {"layer": 1}, 500)]
        assert not actions.lost
        assert pacer.srtt < 0.2  # sample 0.1 pulled the estimate down

    def test_srtt_never_drops_below_the_floor(self):
        pacer = make(srtt_floor=0.02)
        for seq in range(50):
            pacer.register_send(seq * 0.01, {"layer": 0}, 500)
            pacer.on_ack(seq, echo_ts=seq * 0.01,
                         now=seq * 0.01 + 1e-5)  # microsecond loopback
        # Converged onto (never through) the floor.
        assert 0.02 <= pacer.srtt < 0.025

    def test_hole_detection_needs_three_newer_acks(self):
        pacer = make()
        for seq in range(5):
            pacer.register_send(seq * 0.01, {"layer": 0}, 500)
        # Two newer ACKs leave seq 0 outstanding but inside the window.
        for seq in (1, 2):
            assert not pacer.on_ack(seq, None, 0.1).lost
        actions = pacer.on_ack(3, None, 0.11)  # third newer ACK: hole
        assert [s for s, _, _ in actions.lost] == [0]
        assert actions.backoff_rate == pytest.approx(pacer.rate)
        assert pacer.backoffs == 1

    def test_one_backoff_per_congestion_event(self):
        pacer = make()
        for seq in range(8):
            pacer.register_send(seq * 0.01, {"layer": 0}, 500)
        first = pacer.on_ack(5, None, 0.1)   # 0,1,2 lost together
        assert len(first.lost) == 3
        assert first.backoff_rate is not None
        # 3 and 4 were sent before the backoff: same congestion event.
        second = pacer.on_ack(7, None, 0.11)
        assert [s for s, _, _ in second.lost] == [3, 4]
        assert second.backoff_rate is None
        assert pacer.backoffs == 1

    def test_timeout_backstop_flushes_outstanding(self):
        pacer = make()
        pacer.register_send(0.0, {"layer": 2}, 500)
        actions = pacer.advance(pacer.rto + 1.0)
        assert actions.timed_out
        assert [s for s, _, _ in actions.lost] == [0]
        # The halved rate is what the pacer now runs at (advance also
        # ran its additive-increase catch-up first, so compare to the
        # post-step value rather than the pre-call rate).
        assert actions.backoff_rate == pacer.rate
        assert pacer.timeouts == 1
        assert not pacer.outstanding

    def test_quiet_idle_is_not_a_timeout(self):
        pacer = make()
        actions = pacer.advance(30.0)  # nothing outstanding
        assert not actions.timed_out
        assert pacer.timeouts == 0

    def test_negative_rtt_sample_ignored(self):
        pacer = make()
        pacer.register_send(0.0, {"layer": 0}, 500)
        pacer.on_ack(0, echo_ts=5.0, now=0.1)  # skewed echo
        assert pacer.srtt == pytest.approx(0.2)


class TestValidation:
    def test_bad_packet_size(self):
        with pytest.raises(ValueError):
            RapPacer(0, 0.0)

    def test_bad_srtt_floor(self):
        with pytest.raises(ValueError):
            RapPacer(500, 0.0, srtt_floor=0.0)
