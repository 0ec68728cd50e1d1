"""Discrete-event simulation engine.

A minimal, deterministic event loop. Events are ``(time, priority, seq)``
ordered; ``seq`` is a monotonically increasing tie-breaker so that events
scheduled earlier run earlier at equal timestamps, which keeps runs fully
reproducible.

This module is the hot path of every packet-level experiment, so the
heap holds ``(time, priority, seq, event)`` tuples: ``heapq`` orders
them with C float/int comparisons and, ``seq`` being unique, never
reaches the :class:`Event` in the last slot. Callbacks may carry a
pre-bound argument tuple instead of forcing callers to allocate a closure
per packet, and :meth:`Simulator.schedule_many` amortizes heap pushes for
bulk scheduling.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterable, Optional


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Event:
    """A scheduled callback: the handle ``schedule*`` returns.

    The heap orders the ``(time, priority, seq)`` key stored beside the
    event, never the event itself. ``cancelled`` events stay in the heap
    but are skipped when popped (lazy deletion). ``args`` (when
    non-empty) are passed to ``callback`` at fire time, which lets hot
    paths schedule bound methods with a payload instead of building a
    fresh closure for every packet.
    """

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark this event so it will be skipped when its time comes."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6f}{flag})"


#: One heap slot: the C-compared ``(time, priority, seq)`` key, then the event.
_Entry = tuple[float, int, int, Event]


class Simulator:
    """The discrete-event scheduler.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("one second"))
        sim.run(until=10.0)

    Components receive the simulator instance and call :meth:`schedule` /
    :meth:`schedule_at` to arrange future work. ``sim.now`` is the current
    simulation time in seconds, a plain attribute (it is read on every
    hop) that only :meth:`step` and :meth:`run` write.
    """

    def __init__(self) -> None:
        self._heap: list[_Entry] = []
        self._seq = itertools.count()
        self.now = 0.0
        self._running = False
        self._events_processed = 0
        self._obs_timer: Optional[Callable[[], float]] = None
        self._obs_record: Optional[
            Callable[[Callable[..., None], float, int], None]
        ] = None

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._events_processed

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        priority: int = 0,
        args: tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``args`` (when given) are stored on the event and passed to the
        callback at fire time — the closure-free way to bind a payload.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        event = Event(time, callback, args)
        heapq.heappush(self._heap, (time, priority, next(self._seq), event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        priority: int = 0,
        args: tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        event = Event(time, callback, args)
        heapq.heappush(self._heap, (time, priority, next(self._seq), event))
        return event

    def schedule_many(
        self,
        items: Iterable[tuple[float, Callable[..., None]]],
        priority: int = 0,
    ) -> list[Event]:
        """Bulk-schedule ``(delay, callback)`` pairs in one call.

        Events receive consecutive sequence numbers in iteration order, so
        ties resolve exactly as if :meth:`schedule` had been called once
        per item. For large batches the heap is rebuilt with a single
        ``heapify`` instead of N pushes.
        """
        now = self.now
        batch: list[_Entry] = []
        for delay, callback in items:
            if delay < 0:
                raise ValueError(
                    f"cannot schedule in the past (delay={delay})"
                )
            time = now + delay
            batch.append(
                (time, priority, next(self._seq), Event(time, callback))
            )
        heap = self._heap
        # N pushes cost O(N log H); extend+heapify costs O(H + N). Prefer
        # the rebuild once the batch is a sizeable fraction of the heap.
        if len(batch) * 4 >= len(heap):
            heap.extend(batch)
            heapq.heapify(heap)
        else:
            push = heapq.heappush
            for entry in batch:
                push(heap, entry)
        return [entry[3] for entry in batch]

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the heap is empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the single next event. Returns False when nothing is pending."""
        while self._heap:
            time, _, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if time < self.now:
                raise SimulationError("event heap yielded an event in the past")
            self.now = time
            self._events_processed += 1
            if event.args:
                event.callback(*event.args)
            else:
                event.callback()
            return True
        return False

    def instrument(
        self,
        timer: Callable[[], float],
        record: Callable[[Callable[..., None], float, int], None],
    ) -> None:
        """Attach a dispatch observer (see ``repro.telemetry.engine``).

        ``record(callback, seconds, heap_depth)`` is called after every
        dispatched event with the handler, its ``timer``-measured run
        time, and the pending-event count. While an observer is attached
        :meth:`run` uses a separate loop; the uninstrumented fast path
        is untouched. The timer is injected because this module must not
        read wall clocks itself (determinism rule RL001).
        """
        self._obs_timer = timer
        self._obs_record = record

    def uninstrument(self) -> None:
        """Detach the dispatch observer and restore the fast path."""
        self._obs_timer = None
        self._obs_record = None

    def run(self, until: Optional[float] = None, max_events: int = 0) -> None:
        """Run events until the heap drains or ``until`` seconds elapse.

        ``until`` is inclusive: events scheduled exactly at ``until`` run and
        the clock finishes at ``until`` even if the heap drained earlier.
        After :meth:`stop` the clock stays at the last event run, so the
        events still pending before ``until`` run on the next call.
        ``max_events`` (when nonzero) bounds total events as a runaway guard.
        """
        if self._obs_record is not None:
            self._run_observed(until, max_events)
            return
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            while self._running and heap:
                time, _, _, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    continue
                if until is not None and time > until:
                    break
                pop(heap)
                if time < self.now:
                    raise SimulationError(
                        "event heap yielded an event in the past"
                    )
                self.now = time
                self._events_processed += 1
                if event.args:
                    event.callback(*event.args)
                else:
                    event.callback()
                processed += 1
                if max_events and processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} (runaway sim?)"
                    )
            # stop() leaves the clock at the last event run: events still
            # pending before ``until`` must not end up in the past.
            if self._running and until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False

    def _run_observed(
        self, until: Optional[float] = None, max_events: int = 0
    ) -> None:
        """:meth:`run` with the dispatch observer in the loop.

        A duplicate of the fast-path loop rather than a conditional
        inside it: the per-event branch would tax every uninstrumented
        run, and this loop only exists while someone is profiling.
        """
        timer = self._obs_timer
        record = self._obs_record
        assert timer is not None and record is not None
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            while self._running and heap:
                time, _, _, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    continue
                if until is not None and time > until:
                    break
                pop(heap)
                if time < self.now:
                    raise SimulationError(
                        "event heap yielded an event in the past"
                    )
                self.now = time
                self._events_processed += 1
                started = timer()
                if event.args:
                    event.callback(*event.args)
                else:
                    event.callback()
                record(event.callback, timer() - started, len(heap))
                processed += 1
                if max_events and processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} (runaway sim?)"
                    )
            # stop() leaves the clock at the last event run: events still
            # pending before ``until`` must not end up in the past.
            if self._running and until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop a :meth:`run` in progress after the current event."""
        self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6f}, pending={len(self._heap)}, "
            f"processed={self._events_processed})"
        )
