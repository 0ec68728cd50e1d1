"""The signal ring and the flight recorder built on it.

Time-series telemetry (the :class:`~repro.telemetry.bus.TelemetryBus`)
answers *what* happened — rates, buffer levels, layer counts. The flight
recorder answers *why*: every coarse-grain add/drop decision, every
§2.2 drop-rule evaluation, every transport backoff lands here as a
:class:`DecisionRecord` carrying the exact inputs the rule saw (``R``,
``na*C``, ``sqrt(2*S*buf)``, per-layer buffer levels, the ``K_max``
margin) and the outcome.

:class:`SignalRing` is the one bounded log in the repo; the span sink
(:class:`~repro.telemetry.tracing.SpanRecorder`) is the same ring over
a different entry type. Both keep compact tuples and build their entry
objects (:class:`DecisionRecord`, :class:`~repro.telemetry.tracing.
Span`) only when something iterates, queries or exports them. Design
constraints, in order:

- **Seed-stable.** Entries contain only caller-supplied values
  (simulation time, byte counts, rates) plus a monotonic sequence
  number; two runs of the same seed produce bit-for-bit identical JSONL
  whether they execute serially or in a worker process.
- **Bounded.** Entries live in a ring buffer (``capacity`` entries,
  :data:`RING_CAPACITY` everywhere outside eviction tests); old entries
  are evicted FIFO and counted, never silently lost.
- **Free when off.** A disabled recorder hands producers ``None`` from
  :meth:`FlightRecorder.hook`, which they guard like
  ``TelemetryBus.event_hook``, so the hot path never builds a record
  that nobody will read, and :meth:`SignalRing.write_jsonl` of a
  disabled ring creates no file.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from collections import Counter, deque
from typing import (Callable, Generic, Iterable, Iterator, Mapping,
                    Optional, Protocol, TypeVar, Union)

from repro.sim.trace import EventFields, event_fields

#: Entries every recorder in the repo retains before FIFO eviction.
RING_CAPACITY = 65536

#: ``(time, kind, fields)`` — what a producer hands the recorder, with
#: ``fields`` a tuple laid out by :data:`~repro.sim.trace.EVENT_FIELDS`
#: or a mapping. The producer's identity (``source``) is bound into the
#: hook itself.
#:
#: Ownership, for every signal hook (this one,
#: :class:`~repro.telemetry.tracing.SpanSource` and
#: :data:`~repro.sim.trace.EventHook`): an event is stored once, as the
#: entry ``(time, kind, fields, source)`` the hook returns. The ring and
#: the session's :attr:`~repro.sim.trace.Tracer.log` hold that same
#: tuple, and a ``qa.*`` span holds a reference to it; records, the
#: tracer's events and the spans are views built from it on read. The
#: producer never touches ``fields`` again.
RecorderHook = Callable[[float, str, EventFields], tuple]


class _JsonLine(Protocol):
    def to_json(self) -> str: ...


EntryT = TypeVar("EntryT", bound=_JsonLine)


def json_line(payload: Mapping[str, object]) -> str:
    """One deterministic JSON line (sorted keys, compact separators)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def tally(labels: Iterable[str]) -> dict[str, int]:
    """Occurrences per label, in sorted label order."""
    return dict(sorted(Counter(labels).items()))


class SignalRing(Generic[EntryT]):
    """The one bounded signal log: FIFO ring, counted eviction, JSONL.

    :class:`FlightRecorder` (decision records) and
    :class:`~repro.telemetry.tracing.SpanRecorder` (spans) are this
    ring plus their own stored tuple, the view that iteration builds
    from it and a producer hook. Appending stays inline in each
    producer path — one ``append`` and one counter increment — so the
    ring adds no call per entry.
    """

    def __init__(self, capacity: int = RING_CAPACITY,
                 enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self._entries: deque[tuple] = deque(maxlen=capacity)
        self._accepted = 0

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[EntryT]:
        """The retained entries, oldest first, built from the ring."""
        raise NotImplementedError

    @property
    def total_recorded(self) -> int:
        """Entries ever accepted (retained + evicted)."""
        return self._accepted

    @property
    def evicted(self) -> int:
        """Entries pushed out of the ring by newer ones."""
        return self.total_recorded - len(self._entries)

    # ------------------------------------------------------------- export

    def to_jsonl(self) -> str:
        """The retained entries as JSONL (one entry per line)."""
        if not self._entries:
            return ""
        return "\n".join(e.to_json() for e in self) + "\n"

    def digest(self) -> str:
        """sha256 of :meth:`to_jsonl` — the run's fingerprint."""
        return hashlib.sha256(self.to_jsonl().encode()).hexdigest()

    def write_jsonl(self, path: Union[str, pathlib.Path]
                    ) -> Optional[pathlib.Path]:
        """Write the JSONL log to ``path``.

        A disabled ring writes nothing and returns ``None`` — runs with
        a signal off must not scatter empty artifacts.
        """
        if not self.enabled:
            return None
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_jsonl())
        return target

    def summary(self) -> dict[str, object]:
        """Manifest-ready block (counts, eviction, breakdown, sha256)."""
        return {
            "enabled": self.enabled,
            "capacity": self.capacity,
            "recorded": self.total_recorded,
            "retained": len(self._entries),
            "evicted": self.evicted,
            **self._breakdown(),
            "digest": self.digest(),
        }

    def _breakdown(self) -> dict[str, object]:
        """Entry-type-specific summary keys (between counts and digest)."""
        raise NotImplementedError


class DecisionRecord:
    """One causal event: who decided what, when, and from which inputs."""

    __slots__ = ("seq", "time", "source", "kind", "fields")

    def __init__(
        self,
        seq: int,
        time: float,
        source: str,
        kind: str,
        fields: Mapping[str, object],
    ) -> None:
        self.seq = seq
        self.time = time
        self.source = source
        self.kind = kind
        self.fields = fields

    def to_json(self) -> str:
        """One deterministic JSON line (sorted keys, compact separators)."""
        return json_line({
            "seq": self.seq,
            "t": round(self.time, 9),
            "src": self.source,
            "kind": self.kind,
            "fields": self.fields,
        })

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecisionRecord(seq={self.seq}, t={self.time:.6f}, "
            f"src={self.source!r}, kind={self.kind!r})"
        )


class FlightRecorder(SignalRing[DecisionRecord]):
    """The decision log: a :class:`SignalRing` of ``(time, kind, fields,
    source)`` entries, read as :class:`DecisionRecord`.

    A record's ``seq`` is its acceptance index, so it is not stored: the
    ``i``-th retained entry is record ``evicted + i``.
    """

    # ---------------------------------------------------------- recording

    def hook(self, source: str, log: Optional[list[tuple]] = None
             ) -> Optional[RecorderHook]:
        """A ``(time, kind, fields)`` recording callable for ``source``.

        Returns ``None`` when the recorder is disabled; producers must
        treat that as "don't even build the record". With ``log`` (a
        session's :attr:`~repro.sim.trace.Tracer.log`) each entry is
        appended there too: one tuple, held by both.
        """
        if not self.enabled:
            return None
        entries = self._entries

        def _record(time: float, kind: str, fields: EventFields) -> tuple:
            entry = (time, kind, fields, source)
            entries.append(entry)
            if log is not None:
                log.append(entry)
            self._accepted += 1
            return entry
        return _record

    def record(
        self,
        time: float,
        source: str,
        kind: str,
        fields: EventFields,
    ) -> None:
        """Append one decision record (dropped when disabled)."""
        if not self.enabled:
            return
        self._entries.append((time, kind, fields, source))
        self._accepted += 1

    # ------------------------------------------------------------ queries

    def __iter__(self) -> Iterator[DecisionRecord]:
        for seq, (time, kind, fields, source) in enumerate(
                self._entries, self.evicted):
            yield DecisionRecord(seq, time, source, kind,
                                 event_fields(kind, fields))

    def records_of(self, kind: str, source: Optional[str] = None
                   ) -> list[DecisionRecord]:
        """Retained records of ``kind`` (optionally from one source)."""
        return [
            DecisionRecord(seq, time, src, kind, event_fields(kind, fields))
            for seq, (time, k, fields, src) in enumerate(
                self._entries, self.evicted)
            if k == kind and (source is None or src == source)
        ]

    def _breakdown(self) -> dict[str, object]:
        return {"kinds": tally(entry[1] for entry in self._entries)}
