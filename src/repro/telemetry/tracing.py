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
  built on. Producers bind a :meth:`~SpanRecorder.span_hook` once per
  ``(source, context)`` and get ``None`` when recording is disabled,
  which they guard exactly like ``FlightRecorder.hook`` and the metric
  hooks, so the hot path stays free when tracing is off.

This module never reads a clock (``telemetry`` is an RL001
determinism zone): timestamps arrive as hook arguments — simulation
time from the scenario builder, service-relative wall clock from the
asyncio service. Span *ids* are deterministic in both cases: the n-th
span recorded through a given hook always gets the same id.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Mapping, Optional

from repro.sim.rng import derive_seed
from repro.telemetry.recorder import SignalRing, json_line, tally

#: ``(start, end, name, fields)`` — what a producer hands the recorder.
#: The producer's identity (``source``) and trace membership
#: (``TraceContext``) are bound into the hook itself. The span keeps
#: ``fields`` as handed over (ownership rule at
#: :data:`~repro.telemetry.recorder.RecorderHook`).
SpanHook = Callable[[float, float, str, Mapping[str, object]], None]

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


class Span:
    """One timed operation inside a trace (its source's ``n``-th)."""

    __slots__ = ("trace_id", "n", "parent_id", "source", "name",
                 "start", "end", "fields", "_span_id")

    def __init__(
        self,
        trace_id: str,
        n: int,
        parent_id: str,
        source: str,
        name: str,
        start: float,
        end: float,
        fields: Mapping[str, object],
    ) -> None:
        self.trace_id = trace_id
        self.n = n
        self.parent_id = parent_id
        self.source = source
        self.name = name
        self.start = start
        self.end = end
        self.fields = fields
        self._span_id: Optional[str] = None

    @property
    def span_id(self) -> str:
        """A pure function of ``(trace, source, n)``, hashed on first
        read: a span nobody exports or queries by id never pays it."""
        span_id = self._span_id
        if span_id is None:
            span_id = self._span_id = _hex_id(
                int(self.trace_id, 16), self.source, self.n)
        return span_id

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
    """The span sink: a :class:`SignalRing` of :class:`Span`.

    Span ids derive from the owning trace id, the source and a per-hook
    counter, so the n-th span a hook records is identical across runs —
    bind one hook per ``(source, context)`` pair to keep that property.
    The hook only stores the counter; :attr:`Span.span_id` does the
    hashing when an export, a merge or a query first reads it.
    """

    # ---------------------------------------------------------- recording

    def span_hook(self, source: str,
                  context: TraceContext) -> Optional[SpanHook]:
        """A ``(start, end, name, fields)`` recording callable.

        Returns ``None`` when the recorder is disabled; producers must
        treat that as "don't even build the span", like every other
        telemetry hook.
        """
        if not self.enabled:
            return None
        trace_id, parent_id = context.trace_id, context.span_id
        sequence = count()

        def _record(start: float, end: float, name: str,
                    fields: Mapping[str, object]) -> None:
            self._entries.append(Span(
                trace_id, next(sequence), parent_id,
                source, name, start, end, fields))
            self._accepted += 1

        return _record

    # ------------------------------------------------------------ queries

    def spans_of(self, name: Optional[str] = None,
                 source: Optional[str] = None,
                 trace_id: Optional[str] = None) -> list[Span]:
        """Retained spans filtered by name / source / trace."""
        return [
            s for s in self._entries
            if (name is None or s.name == name)
            and (source is None or s.source == source)
            and (trace_id is None or s.trace_id == trace_id)
        ]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids among retained spans, sorted."""
        return sorted({s.trace_id for s in self._entries})

    def _breakdown(self) -> dict[str, object]:
        return {"traces": len(self.trace_ids()),
                "names": tally(s.name for s in self._entries)}


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
