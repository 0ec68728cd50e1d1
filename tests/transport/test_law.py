"""The shared sans-IO AIMD law: hostile ACKs and interleaving invariants.

``tests/transport/test_rap.py``, ``test_aimd.py`` and
``tests/service/test_pacing.py`` exercise the law through its three
clock adapters; this file drives it directly, with inputs no honest
receiver produces.
"""

from __future__ import annotations

import math

import pytest

from repro.service.pacing import RapPacer
from repro.transport.law import NOTHING, AckLedger, RapLaw

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

#: Builders for the law on its own and under the service's guards.
LAWS = {
    "law": lambda: RapLaw(500, 0.0),
    "pacer": lambda: RapPacer(500, 0.0, srtt_floor=0.02, max_rate=40_000.0),
}


def state_of(law):
    return (law.rate, law.srtt, law.rttvar, law.next_seq, law.recovery_seq,
            law.highest_acked, dict(law.outstanding), law.last_ack_time,
            law.backoffs, law.timeouts, law.packets_lost, law.acks_received)


def in_flight(law, n):
    for _ in range(n):
        law.track({"layer": 0}, 500)
    return law


@pytest.mark.parametrize("make", LAWS.values(), ids=LAWS.keys())
class TestImpossibleAcks:
    @pytest.mark.parametrize("seq", [5, 6, 0xFFFFFFFF])
    def test_ack_for_a_seq_never_sent_changes_nothing(self, make, seq):
        law = in_flight(make(), 5)
        before = state_of(law)
        assert law.on_ack(seq, 0.0, 0.1) is NOTHING
        assert state_of(law) == before
        assert not law.plausible(seq, 0.0, 0.1)

    def test_forged_ack_does_not_poison_later_honest_acks(self, make):
        law = in_flight(make(), 5)
        law.on_ack(0xFFFFFFFF, 0.0, 0.1)
        for seq in range(5):
            feedback = law.on_ack(seq, 0.0, 0.1)
            assert [s for s, _, _ in feedback.acked] == [seq]
            assert not feedback.lost
        assert law.backoffs == 0 and law.packets_lost == 0

    @pytest.mark.parametrize(
        "echo_ts", [math.nan, math.inf, -math.inf, -1.0, 5.0])
    def test_impossible_echo_yields_no_rtt_sample(self, make, echo_ts):
        law = in_flight(make(), 1)
        srtt, rttvar = law.srtt, law.rttvar
        feedback = law.on_ack(0, echo_ts, 0.1)
        # The packet is still acknowledged; only the sample is refused.
        assert [s for s, _, _ in feedback.acked] == [0]
        assert (law.srtt, law.rttvar) == (srtt, rttvar)
        assert not law.plausible(0, echo_ts, 0.1)

    def test_honest_ack_is_plausible(self, make):
        law = in_flight(make(), 1)
        assert law.plausible(0, 0.05, 0.1)
        assert law.plausible(0, None, 0.1)


class TestLedger:
    def test_decrease_hook_runs_once_per_congestion_event(self):
        calls = []
        ledger = AckLedger(500, 0.0, 0.2, lambda: calls.append(1) or 7.0)
        in_flight(ledger, 8)
        first = ledger.on_ack(5, None, 0.1)   # 0, 1, 2 fall out
        assert first.backoff_rate == 7.0 and first.trigger_seq == 2
        second = ledger.on_ack(7, None, 0.11)  # 3, 4: same event
        assert [s for s, _, _ in second.lost] == [3, 4]
        assert second.backoff_rate is None
        assert len(calls) == 1

    def test_replay_order_is_acked_lost_backoff(self):
        ledger = in_flight(AckLedger(500, 0.0, 0.2, lambda: 7.0), 5)
        order = []
        ledger.on_ack(4, None, 0.1).replay(
            lambda seq, meta, size: order.append(("ack", seq)),
            lambda seq, meta, size: order.append(("loss", seq)),
            lambda feedback: order.append(("backoff", feedback.lost[-1][0])))
        assert order == [("ack", 4), ("loss", 0), ("loss", 1),
                         ("backoff", 1)]

    def test_timeout_reports_how_long_the_path_was_quiet(self):
        ledger = in_flight(AckLedger(500, 0.0, 0.2, lambda: 7.0), 2)
        assert ledger.check_timeout(ledger.rto) is NOTHING
        feedback = ledger.check_timeout(3.0)
        assert feedback.timed_out and feedback.idle == 3.0
        assert [s for s, _, _ in feedback.lost] == [0, 1]
        assert not ledger.quiet(3.0)  # the ACK clock restarted


# One step of an arbitrary sender/receiver/attacker interleaving.
_echo = st.one_of(
    st.none(), st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=0.0, max_value=60.0))
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("send")),
        # Any seq sent so far: fresh, duplicate or reordered.
        st.tuples(st.just("ack"), st.integers(0, 10_000), _echo),
        st.tuples(st.just("forge"), st.integers(0, 0xFFFFFFFF), _echo),
        st.tuples(st.just("wait"), st.floats(min_value=0.0, max_value=3.0)),
        st.tuples(st.just("step")),
        st.tuples(st.just("timeout")),
        st.tuples(st.just("advance")),
    ),
    max_size=120,
)


@pytest.mark.parametrize("make", LAWS.values(), ids=LAWS.keys())
@given(steps=_steps)
@settings(max_examples=150, deadline=None)
def test_any_interleaving_keeps_the_ledger_consistent(make, steps):
    law = make()
    max_rate = getattr(law, "max_rate", math.inf)
    now = 0.0
    reported = []       # every seq handed back as acked or lost
    recovery = 0        # next_seq when the last back-off happened
    for step in steps:
        kind = step[0]
        feedback = NOTHING
        if kind == "send":
            law.track({"layer": 0}, 500)
        elif kind == "wait":
            now += step[1]
        elif kind == "step":
            law.additive_increase()
        elif kind == "timeout":
            feedback = law.check_timeout(now)
        elif kind == "advance":
            feedback = law.advance(now)
            assert min(law.next_step, law.next_poll) > now
        elif kind == "ack" and law.next_seq:
            feedback = law.on_ack(step[1] % law.next_seq, step[2], now)
        elif kind == "forge":
            before = state_of(law)
            assert law.on_ack(law.next_seq + step[1], step[2],
                              now) is NOTHING
            assert state_of(law) == before

        lost = [seq for seq, _, _ in feedback.lost]
        assert lost == sorted(lost)
        reported += [seq for seq, _, _ in feedback.acked] + lost
        if feedback.backoff_rate is not None:
            # At most one back-off per recovery window.
            assert feedback.trigger_seq >= recovery
            assert feedback.backoff_rate == law.rate
            recovery = law.next_seq
        assert law.min_rate <= law.rate <= max_rate
        assert math.isfinite(law.srtt) and law.srtt > 0

    # Every registered seq: reported exactly once, or still outstanding.
    assert len(reported) == len(set(reported))
    assert sorted(reported + list(law.outstanding)) == list(
        range(law.next_seq))
    assert law.packets_lost + len(law.outstanding) <= law.next_seq
