"""Unit tests for the discrete-event engine."""

import heapq

import pytest

from repro.sim.engine import SimulationError


class TestScheduling:
    def test_initial_time_is_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_callback(self, sim):
        hits = []
        sim.schedule(1.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [1.0]

    def test_schedule_at_absolute_time(self, sim):
        hits = []
        sim.schedule_at(2.5, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [2.5]

    def test_zero_delay_allowed(self, sim):
        hits = []
        sim.schedule(0.0, lambda: hits.append(True))
        sim.run()
        assert hits == [True]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_ordered_by_time(self, sim):
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self, sim):
        order = []
        sim.schedule(1.0, lambda: order.append("first"))
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_priority_beats_insertion_order(self, sim):
        order = []
        sim.schedule(1.0, lambda: order.append("low"), priority=1)
        sim.schedule(1.0, lambda: order.append("high"), priority=0)
        sim.run()
        assert order == ["high", "low"]

    def test_callback_can_schedule_more_events(self, sim):
        hits = []

        def chain():
            hits.append(sim.now)
            if len(hits) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert hits == [1.0, 2.0, 3.0]


class TestScheduleMany:
    """``schedule_many`` pushes small batches one by one and merges large
    ones with a single ``heapify``; both must behave like N ``schedule``
    calls."""

    @pytest.fixture()
    def heapify_calls(self, monkeypatch):
        calls = []
        heapify = heapq.heapify

        def spy(heap):
            calls.append(len(heap))
            heapify(heap)

        monkeypatch.setattr(heapq, "heapify", spy)
        return calls

    @pytest.mark.parametrize("pending", [0, 40])
    def test_negative_delay_rejected_heap_unchanged(self, sim, pending):
        hits = []
        for n in range(pending):
            sim.schedule(2.0 + n, hits.append, args=(n,))
        before = list(sim._heap)
        with pytest.raises(ValueError):
            sim.schedule_many([(0.5, lambda: hits.append("a")),
                               (-0.1, lambda: hits.append("b"))])
        assert sim._heap == before
        sim.run()
        assert hits == list(range(pending))

    @pytest.mark.parametrize("pending, branch", [(0, "heapify"),
                                                 (40, "push")])
    def test_equal_time_items_fire_in_iteration_order(
            self, sim, heapify_calls, pending, branch):
        order = []
        sim.schedule(1.0, order.append, args=("before",))
        for n in range(pending):
            sim.schedule(5.0 + n, lambda: None)
        events = sim.schedule_many(
            (1.0, lambda tag=tag: order.append(tag)) for tag in "abcde")
        sim.schedule(1.0, order.append, args=("after",))
        assert len(heapify_calls) == (1 if branch == "heapify" else 0)
        assert [event.time for event in events] == [1.0] * 5
        sim.run(until=1.0)
        assert order == ["before", "a", "b", "c", "d", "e", "after"]


class TestRun:
    def test_run_until_stops_clock_at_bound(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_is_inclusive(self, sim):
        hits = []
        sim.schedule(5.0, lambda: hits.append(True))
        sim.run(until=5.0)
        assert hits == [True]

    def test_events_beyond_until_stay_pending(self, sim):
        hits = []
        sim.schedule(10.0, lambda: hits.append(True))
        sim.run(until=5.0)
        assert hits == []
        sim.run(until=15.0)
        assert hits == [True]

    def test_run_without_until_drains_heap(self, sim):
        hits = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: hits.append(True))
        sim.run()
        assert len(hits) == 3
        assert sim.now == 3.0

    def test_clock_advances_to_until_even_if_idle(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_guard(self, sim):
        def forever():
            sim.schedule(0.1, forever)

        sim.schedule(0.1, forever)
        with pytest.raises(SimulationError):
            sim.run(until=1e9, max_events=100)

    def test_stop_halts_run(self, sim):
        hits = []
        sim.schedule(1.0, lambda: (hits.append(1), sim.stop()))
        sim.schedule(2.0, lambda: hits.append(2))
        sim.run()
        assert hits == [1]
        assert sim.now == 1.0
        sim.run()
        assert hits == [1, 2]

    @pytest.mark.parametrize("observed", [False, True])
    def test_stop_keeps_the_clock_behind_pending_events(self, sim, observed):
        # run(until=) used to leap to ``until`` after a stop(), stranding
        # the t=2 event in the past: the next run() raised SimulationError.
        if observed:
            sim.instrument(lambda: 0.0, lambda callback, seconds, depth: None)
        hits = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: hits.append(sim.now))
        sim.run(until=10.0)
        assert sim.now == 1.0
        assert hits == []
        sim.run(until=20.0)
        assert hits == [2.0]
        assert sim.now == 20.0

    def test_events_processed_counter(self, sim):
        for t in (1.0, 2.0):
            sim.schedule(t, lambda: None)
        sim.run()
        assert sim.events_processed == 2


class TestCancellation:
    def test_cancelled_event_does_not_run(self, sim):
        hits = []
        event = sim.schedule(1.0, lambda: hits.append(True))
        event.cancel()
        sim.run()
        assert hits == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_peek_skips_cancelled(self, sim):
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0

    def test_peek_empty_returns_none(self, sim):
        assert sim.peek_time() is None


class TestHeapOrder:
    def test_colliding_keys_dispatch_in_schedule_order(self, sim):
        """10 k events on 12 distinct ``(time, priority)`` keys: within a
        key the unique ``seq`` decides, so the heap never has to compare
        two events; cancelled ones are skipped and ``peek_time`` agrees
        with what ``step`` runs next."""
        fired = []
        scheduled = []
        for n in range(10_000):
            time, priority = float(n % 4), (n // 4) % 3
            event = sim.schedule_at(
                time, fired.append, priority=priority, args=(n,))
            if n % 7 == 0:
                event.cancel()
            else:
                scheduled.append((time, priority, n))
        expected = sorted(scheduled)
        for time, _, n in expected[:100]:
            assert sim.peek_time() == time
            assert sim.step()
            assert fired[-1] == n
        sim.run()
        assert fired == [n for _, _, n in expected]
        assert sim.events_processed == len(expected)
        assert sim.peek_time() is None


class TestStep:
    def test_step_runs_one_event(self, sim):
        hits = []
        sim.schedule(1.0, lambda: hits.append(1))
        sim.schedule(2.0, lambda: hits.append(2))
        assert sim.step() is True
        assert hits == [1]

    def test_step_on_empty_heap(self, sim):
        assert sim.step() is False
