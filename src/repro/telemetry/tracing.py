"""Distributed tracing: deterministic span trees across client & server.

The paper's quality-adaptation decisions are causal — a client-visible
stall traces back to a specific §2.2 drop evaluation on the server —
but since the streaming service split the two ends into separate
processes joined by UDP, nothing correlated them. This module is the
correlation layer:

- :class:`TraceContext` — a ``(trace_id, span_id)`` pair. In simulation
  zones ids derive from the run seed via
  :func:`~repro.sim.rng.derive_seed` (PYTHONHASHSEED-stable, so two
  same-seed runs produce identical trace ids); in the service the
  *client* derives the context from the fleet seed and session index
  and carries it across the wire in the HELLO options, the server
  echoes it in the WELCOME config, and from then on both ends stamp
  spans into the same trace. DATA/ACK frames stay binary — they are
  correlated to the trace via ``session_id`` + ``seq``.
- :class:`Span` — one timed operation (``start``/``end`` on the
  caller's clock; instant events have ``end == start``).
- :class:`SpanRecorder` — the bounded sink, the same
  :class:`~repro.telemetry.recorder.SignalRing` the flight recorder is
  built on. Producers bind a :meth:`~SpanRecorder.span_hook` (a
  :class:`SpanSource`) once per ``(source, context)`` and get ``None``
  when recording is disabled, which they guard exactly like
  ``FlightRecorder.hook`` and the metric hooks, so the hot path stays
  free when tracing is off. The ring keeps compact tuples and builds
  :class:`Span` objects only when read.

This module never reads a clock (``telemetry`` is an RL001
determinism zone): timestamps arrive as hook arguments — simulation
time from the scenario builder, service-relative wall clock from the
asyncio service. Span *ids* are deterministic in both cases: the n-th
span recorded through a given hook always gets the same id.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

from repro.sim.rng import derive_seed
from repro.sim.trace import event_fields
from repro.telemetry.recorder import SignalRing, json_line, tally

#: Key under which a trace context travels in HELLO/WELCOME JSON
#: options — absent entirely when tracing is off, so traced and
#: untraced wire exchanges stay byte-compatible.
TRACE_OPTION = "trace"


def _hex_id(seed: int, *parts: object) -> str:
    """A 64-bit hex id from two :func:`derive_seed` halves.

    ``derive_seed`` yields 31 bits; two independent derivations cover a
    64-bit id space with the same PYTHONHASHSEED-stable property.
    """
    hi = derive_seed(seed, "hi", *parts)
    lo = derive_seed(seed, "lo", *parts)
    return f"{((hi << 33) | (lo << 2)) & 0xFFFFFFFFFFFFFFFF:016x}"


def _is_hex_id(value: object) -> bool:
    if not isinstance(value, str) or len(value) != 16:
        return False
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


class TraceContext:
    """One trace's identity plus the current parent span.

    Immutable: :meth:`child` returns a new context under the same trace.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        if not _is_hex_id(trace_id) or not _is_hex_id(span_id):
            raise ValueError(
                f"trace ids must be 16 hex chars, got "
                f"trace_id={trace_id!r} span_id={span_id!r}")
        self.trace_id = trace_id
        self.span_id = span_id

    @classmethod
    def derive(cls, seed: int, *parts: object) -> "TraceContext":
        """Deterministic root context for ``(seed, *parts)``."""
        return cls(_hex_id(seed, "trace", *parts),
                   _hex_id(seed, "root", *parts))

    def child(self, *parts: object) -> "TraceContext":
        """A sub-context: same trace, new deterministic parent span."""
        return TraceContext(
            self.trace_id, _hex_id(int(self.span_id, 16), *parts))

    # --------------------------------------------------------------- wire

    def to_wire(self) -> dict[str, str]:
        """The JSON payload carried under :data:`TRACE_OPTION`."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, options: Mapping[str, object]
                  ) -> Optional["TraceContext"]:
        """Recover a context from HELLO/WELCOME options; None if absent.

        Malformed payloads (wrong types, bad hex) read as absent rather
        than raising: a mistraced peer must not kill the session path.
        """
        payload = options.get(TRACE_OPTION)
        if not isinstance(payload, Mapping):
            return None
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        if not _is_hex_id(trace_id) or not _is_hex_id(span_id):
            return None
        assert isinstance(trace_id, str) and isinstance(span_id, str)
        return cls(trace_id, span_id)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TraceContext)
                and self.trace_id == other.trace_id
                and self.span_id == other.span_id)

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.trace_id}, {self.span_id})"


class SpanSource:
    """One producer's span hook, bound to a ``(source, context)``.

    Calling it with ``(start, end, name, fields)`` records a span and
    keeps ``fields`` as handed over (ownership rule at
    :data:`~repro.telemetry.recorder.RecorderHook`); :meth:`tick` and
    :meth:`mirror` record the session core's two span shapes without
    building their fields. Each stores one tuple in its recorder's
    ring, led by this source:

    - ``(self, start, end, name, fields)`` — any span;
    - ``(self, t0, t1, active)`` — the session core's ``qa.tick``;
    - ``(self, entry)`` — an instant ``qa.<kind>`` span over the
      decision entry ``(time, kind, fields, ...)`` a decision sink kept.

    A span's ``n`` (its place in this source's sequence) is not stored:
    the ring holds a suffix of every source's spans, so the view counts
    back from :attr:`recorded`. Span ids are hashed when first read and
    kept in :attr:`_ids`.
    """

    __slots__ = ("trace_id", "parent_id", "source", "recorded",
                 "_ring", "_append", "_ids")

    def __init__(self, recorder: "SpanRecorder", source: str,
                 context: TraceContext) -> None:
        self.trace_id = context.trace_id
        self.parent_id = context.span_id
        self.source = source
        self.recorded = 0
        self._ring = recorder
        self._append = recorder._entries.append
        self._ids: dict[int, str] = {}

    def __call__(self, start: float, end: float, name: str,
                 fields: Mapping[str, object]) -> None:
        self._append((self, start, end, name, fields))
        self.recorded += 1
        self._ring._accepted += 1

    def tick(self, t0: float, t1: float, active: int) -> None:
        """A ``qa.tick`` over ``[t0, t1]`` with ``active`` layers."""
        self._append((self, t0, t1, active))
        self.recorded += 1
        self._ring._accepted += 1

    def mirror(self, entry: tuple) -> None:
        """An instant span over a stored decision entry."""
        self._append((self, entry))
        self.recorded += 1
        self._ring._accepted += 1

    def span_id(self, n: int) -> str:
        """The id of this source's ``n``-th span, a pure function of
        ``(trace, source, n)``; a span nobody reads by id never pays."""
        span_id = self._ids.get(n)
        if span_id is None:
            span_id = self._ids[n] = _hex_id(
                int(self.trace_id, 16), self.source, n)
        return span_id

    def view(self, stored: tuple, n: int) -> "Span":
        """The :class:`Span` a stored tuple stands for."""
        if len(stored) == 5:
            _, start, end, name, fields = stored
            return Span(self, n, name, start, end, fields)
        if len(stored) == 4:
            return Span(self, n, "qa.tick", stored[1], stored[2],
                        {"active": stored[3]})
        time, kind, fields = stored[1][:3]
        return Span(self, n, "qa." + kind, time, time,
                    event_fields(kind, fields))


class Span:
    """One timed operation inside a trace (its source's ``n``-th)."""

    __slots__ = ("_source", "n", "name", "start", "end", "fields")

    def __init__(
        self,
        source: SpanSource,
        n: int,
        name: str,
        start: float,
        end: float,
        fields: Mapping[str, object],
    ) -> None:
        self._source = source
        self.n = n
        self.name = name
        self.start = start
        self.end = end
        self.fields = fields

    @property
    def trace_id(self) -> str:
        return self._source.trace_id

    @property
    def parent_id(self) -> str:
        return self._source.parent_id

    @property
    def source(self) -> str:
        return self._source.source

    @property
    def span_id(self) -> str:
        """Hashed on first read (:meth:`SpanSource.span_id`)."""
        return self._source.span_id(self.n)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def instant(self) -> bool:
        """True for point events (``end == start``)."""
        return self.end <= self.start

    def to_json(self) -> str:
        """One deterministic JSON line (sorted keys, compact)."""
        return json_line({
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "src": self.source,
            "name": self.name,
            "t0": round(self.start, 9),
            "t1": round(self.end, 9),
            "fields": self.fields,
        })

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, src={self.source!r}, "
                f"t0={self.start:.6f}, t1={self.end:.6f})")


class SpanRecorder(SignalRing[Span]):
    """The span sink: a :class:`SignalRing` of :class:`SpanSource`
    tuples, read as :class:`Span`.

    Span ids derive from the owning trace id, the source and the span's
    place in its hook's sequence, so the n-th span a hook records is
    identical across runs — bind one hook per ``(source, context)``
    pair to keep that property. Nothing is hashed while recording; an
    export, a merge or a query pays on first read.
    """

    # ---------------------------------------------------------- recording

    def span_hook(self, source: str,
                  context: TraceContext) -> Optional[SpanSource]:
        """A ``(start, end, name, fields)`` recording callable.

        Returns ``None`` when the recorder is disabled; producers must
        treat that as "don't even build the span", like every other
        telemetry hook.
        """
        if not self.enabled:
            return None
        return SpanSource(self, source, context)

    # ------------------------------------------------------------ queries

    def __iter__(self) -> Iterator[Span]:
        """The retained spans, oldest first. Ids cached for spans that
        have since been evicted are forgotten on the way."""
        spans = []
        seen: dict[SpanSource, int] = {}
        for stored in reversed(self._entries):
            source = stored[0]
            back = seen[source] = seen.get(source, 0) + 1
            spans.append(source.view(stored, source.recorded - back))
        for source, kept in seen.items():
            oldest = source.recorded - kept
            ids = source._ids
            for n in [n for n in ids if n < oldest]:
                del ids[n]
        spans.reverse()
        return iter(spans)

    def spans_of(self, name: Optional[str] = None,
                 source: Optional[str] = None,
                 trace_id: Optional[str] = None) -> list[Span]:
        """Retained spans filtered by name / source / trace."""
        return [
            s for s in self
            if (name is None or s.name == name)
            and (source is None or s.source == source)
            and (trace_id is None or s.trace_id == trace_id)
        ]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids among retained spans, sorted."""
        return sorted({stored[0].trace_id for stored in self._entries})

    def _breakdown(self) -> dict[str, object]:
        return {"traces": len(self.trace_ids()),
                "names": tally(s.name for s in self)}


def merge_spans(*recorders: Optional[SpanRecorder]) -> list[Span]:
    """Deterministically merge span streams from several recorders.

    ``None`` and disabled recorders are skipped, so callers can pass
    client and server recorders unconditionally. The order is total
    (trace, time, source, id): same inputs, same merged list.
    """
    merged: list[Span] = []
    for recorder in recorders:
        if recorder is not None and recorder.enabled:
            merged.extend(recorder)
    merged.sort(key=lambda s: (s.trace_id, s.start, s.end, s.source,
                               s.span_id))
    return merged
