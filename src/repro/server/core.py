"""The transport-agnostic session core.

The paper's server is two cooperating pieces: a congestion controller
providing transmission opportunities, and a :class:`~repro.core.adapter.
QualityAdapter` deciding which layer each opportunity carries. The
*wiring* between them — payload picking, ACK/loss/backoff feedback into
the receiver-buffer estimate, stream narrowing, periodic ticks — is
identical whether the controller is the simulated :class:`~repro.
transport.rap.RapSource` or a real socket pacer. :class:`SessionCore`
is that wiring, extracted so both backends drive byte-identical adapter
code:

- the **packet simulator** (:class:`~repro.server.server.VideoServer`)
  binds a ``RapSource`` and drives ticks from a ``PeriodicSampler``;
- the **asyncio service** (:mod:`repro.service`) binds a ``RapPacer``
  and ticks last at each instant the session runs, as the sampler does
  in its instant.

A :class:`SessionTransport` is anything exposing the two live numbers
the adapter reads between feedback events: the current transmission
``rate`` and the AIMD ``slope`` estimate. Everything else reaches the
core through explicit calls (:meth:`SessionCore.pick_payload`,
:meth:`~SessionCore.on_ack`, :meth:`~SessionCore.on_loss`,
:meth:`~SessionCore.on_backoff`, :meth:`~SessionCore.tick`).

The read budget per call (table in docs/MECHANISM.md, section 7):
``pick_payload``, ``tick`` and ``on_backoff`` make the adapter read the
clock once and the rate once (``tick`` also samples the slope once);
``on_ack`` and ``on_loss`` read neither. On top of that come one clock
read per layer add, per layer drop and per layer whose playout starts,
and -- only when a decision hook is bound -- one per emitted event.
Reads reach the transport in one hop: :meth:`SessionCore.bind_transport`
hands the adapter plain attribute reads of the transport.

The core can also run against a :class:`SessionTape`: recording mode
captures every boundary crossing (driver calls plus each ``now``/
``rate``/``slope`` read), and :meth:`SessionCore.replay` re-drives a
fresh core from the tape through a fake transport. Because the adapter
is a pure function of those input streams, a replay reproduces the
original decision log bit for bit — the equivalence proof the
differential tests pin. The stream lengths are the read budget above,
so a tape replays on the commit that recorded it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Protocol, runtime_checkable

from repro.core.adapter import QualityAdapter
from repro.core.config import QAConfig
from repro.media.stream import LayeredStream
from repro.sim.trace import EventFields, EventHook
from repro.telemetry.tracing import SpanSource


def _tee_decision_spans(on_event: Optional[EventHook],
                        spans: SpanSource) -> EventHook:
    """Mirror adapter decision events into instant ``qa.<kind>`` spans.

    The adapter keeps seeing exactly one hook (hook *presence* changes
    its clock-read count, which the session tape pins), so enabling
    spans alongside a recorder does not perturb taped replays of the
    same wiring. The span keeps a reference to the entry the decision
    sink stored, so the event is kept once; with no sink (or one that
    returns nothing) the span holds ``(time, kind, fields)`` itself.
    """
    mirror = spans.mirror

    def _hook(time: float, kind: str, fields: EventFields) -> tuple:
        entry = (on_event(time, kind, fields) if on_event is not None
                 else None)
        if entry is None:
            entry = (time, kind, fields)
        mirror(entry)
        return entry
    return _hook


@runtime_checkable
class SessionTransport(Protocol):
    """What the session core reads from a congestion controller.

    Both the simulated :class:`~repro.transport.rap.RapSource` and the
    service's wall-clock pacer satisfy this structurally; the core never
    imports either.
    """

    @property
    def rate(self) -> float:
        """Current transmission rate in bytes/s."""
        ...

    @property
    def slope(self) -> float:
        """Estimated AIMD additive-increase slope S in bytes/s^2."""
        ...


# --------------------------------------------------------------- taping


@dataclass
class SessionTape:
    """A recorded session: driver calls plus every transport read.

    ``calls`` holds the boundary crossings in order — ``("pick", seq)``,
    ``("ack", seq, layer, size)``, ``("loss", seq, layer, size)``,
    ``("backoff", new_rate)`` and ``("tick",)`` — while ``clock``,
    ``rates`` and ``slopes`` hold the values each read returned, in
    read order. Replaying the tape through :meth:`SessionCore.replay`
    reproduces the adapter's decisions exactly.
    """

    calls: list[tuple] = field(default_factory=list)
    clock: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)
    slopes: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.calls)


class _TapeCursor:
    """Replays one recorded value stream, failing loudly on exhaustion."""

    def __init__(self, values: list[float], name: str) -> None:
        self._values = values
        self._name = name
        self._next = 0

    def next(self) -> float:
        if self._next >= len(self._values):
            raise IndexError(
                f"session tape exhausted: {self._name} stream has only "
                f"{len(self._values)} values; the replay diverged from "
                f"the recording")
        value = self._values[self._next]
        self._next += 1
        return value


class TapeReplayTransport:
    """A fake :class:`SessionTransport` replaying a recorded tape."""

    def __init__(self, tape: SessionTape) -> None:
        self._rates = _TapeCursor(tape.rates, "rate")
        self._slopes = _TapeCursor(tape.slopes, "slope")

    @property
    def rate(self) -> float:
        return self._rates.next()

    @property
    def slope(self) -> float:
        return self._slopes.next()


# ----------------------------------------------------------------- core


class SessionCore:
    """Adapter + feedback wiring, independent of transport and clock.

    Args:
        config: the requested :class:`~repro.core.config.QAConfig`. When
            the stream carries fewer layers than ``config.max_layers``
            the core narrows a *local copy* (``with_``); the caller's
            object is never rebound or mutated. The effective config is
            :attr:`config`, the original stays :attr:`requested_config`.
        now_fn: the session clock (simulation time or a wall-clock
            offset — the core does not care, it only needs monotony).
        transport: the congestion controller; may be bound later via
            :meth:`bind_transport` when construction order demands it
            (the transport usually needs the core's callbacks first).
        stream: the stored clip; defaults to one matching the config.
        start: session start on the ``now_fn`` clock.
        on_event: decision-record sink shared with the transport, or
            ``None`` when recording is off; callers guard, so no record
            is built.
        span_hook: tracing sink from :meth:`~repro.telemetry.tracing.
            SpanRecorder.span_hook`, or ``None`` when tracing is off
            (callers guard the same way). When bound, every
            :meth:`tick` records a ``qa.tick`` span on the *raw* clock
            (outside the tape, so taped replays stay byte-identical)
            and every adapter decision event is mirrored as an instant
            ``qa.<kind>`` span.
        adapter_cls: the adapter implementation (ablations override).
        tape: optional :class:`SessionTape` to record into.
    """

    def __init__(
        self,
        config: QAConfig,
        now_fn: Callable[[], float],
        transport: Optional[SessionTransport] = None,
        stream: Optional[LayeredStream] = None,
        start: float = 0.0,
        on_event: Optional[EventHook] = None,
        span_hook: Optional[SpanSource] = None,
        adapter_cls: type[QualityAdapter] = QualityAdapter,
        tape: Optional[SessionTape] = None,
    ) -> None:
        self.requested_config = config
        self.stream = stream or LayeredStream(
            layer_rate=config.layer_rate, n_layers=config.max_layers)
        # The codec produced fewer layers than the adapter would use:
        # narrow a local copy; never touch the caller's config object.
        effective = config
        if self.stream.n_layers < config.max_layers:
            effective = config.with_(max_layers=self.stream.n_layers)
        self.config = effective
        self.transport: Optional[SessionTransport] = None
        self.tape = tape
        self.span_hook = span_hook
        #: Span timestamps read the raw clock, never the taped wrapper:
        #: tracing must not perturb the recorded clock stream.
        self._span_now = now_fn
        if span_hook is not None:
            on_event = _tee_decision_spans(on_event, span_hook)

        if tape is not None:
            now_fn = self._taped(now_fn, tape.clock)
        self.adapter = adapter_cls(
            effective,
            now_fn=now_fn,
            rate_fn=self._unbound,
            slope_fn=self._unbound,
            start_time=start,
            on_event=on_event,
        )
        if transport is not None:
            self.bind_transport(transport)

    @staticmethod
    def _taped(fn: Callable[[], float],
               log: list[float]) -> Callable[[], float]:
        def wrapper() -> float:
            value = fn()
            log.append(value)
            return value
        return wrapper

    @staticmethod
    def _unbound() -> float:
        raise RuntimeError("the adapter read its transport before "
                           "bind_transport() gave it one")

    def bind_transport(self, transport: SessionTransport) -> None:
        """Late-bind the controller (it usually needs our callbacks):
        the adapter's ``rate_fn``/``slope_fn`` become plain attribute
        reads of it (behind the logging wrapper on a taped core)."""
        self.transport = transport
        rate_fn: Callable[[], float] = partial(getattr, transport, "rate")
        slope_fn: Callable[[], float] = partial(getattr, transport, "slope")
        if self.tape is not None:
            rate_fn = self._taped(rate_fn, self.tape.rates)
            slope_fn = self._taped(slope_fn, self.tape.slopes)
        self.adapter.rate_fn = rate_fn
        self.adapter.slope_fn = slope_fn

    @property
    def active_layers(self) -> int:
        return self.adapter.active_layers

    # --------------------------------------------------- transport-facing

    def pick_payload(self, seq: int) -> Optional[dict]:
        """Assign the next transmission opportunity to a layer."""
        if self.tape is not None:
            self.tape.calls.append(("pick", seq))
        return self.adapter.pick_layer(seq)

    def on_ack(self, seq: int, meta: dict, size: int) -> None:
        """The controller confirmed delivery of a data packet."""
        layer = meta.get("layer")
        if self.tape is not None:
            self.tape.calls.append(("ack", seq, layer, size))
        if layer is not None:
            self.adapter.on_delivered(layer, size)

    def on_loss(self, seq: int, meta: dict, size: int) -> None:
        """The controller declared a data packet lost."""
        layer = meta.get("layer")
        if self.tape is not None:
            self.tape.calls.append(("loss", seq, layer, size))
        if layer is not None:
            self.adapter.on_lost(layer, size)

    def on_backoff(self, new_rate: float) -> None:
        """The controller halved its rate."""
        if self.tape is not None:
            self.tape.calls.append(("backoff", new_rate))
        self.adapter.on_backoff(new_rate)

    def tick(self) -> None:
        """Periodic housekeeping; drive every ``config.drain_period``."""
        if self.tape is not None:
            self.tape.calls.append(("tick",))
        span = self.span_hook
        if span is None:
            self.adapter.tick()
            return
        t0 = self._span_now()
        self.adapter.tick()
        span.tick(t0, self._span_now(), self.adapter.active_layers)

    # -------------------------------------------------------------- replay

    @classmethod
    def replay(
        cls,
        tape: SessionTape,
        config: QAConfig,
        stream: Optional[LayeredStream] = None,
        start: float = 0.0,
        on_event: Optional[EventHook] = None,
        adapter_cls: type[QualityAdapter] = QualityAdapter,
    ) -> "SessionCore":
        """Re-drive a fresh core from a tape through a fake transport.

        The replayed adapter sees exactly the recorded ``now``/``rate``/
        ``slope`` streams and the recorded feedback sequence, so its
        decision log is bit-identical to the original's — independent of
        which transport produced the tape.

        ``on_event`` hook-presence must match the recording: the adapter
        reads the clock once per emitted event, so replaying a hooked
        recording without a hook (or vice versa) misaligns the taped
        clock stream and the replay fails loudly on divergence.
        """
        if not tape.calls:
            raise ValueError("empty session tape: no recording core filled it")
        clock = _TapeCursor(tape.clock, "clock")
        core = cls(
            config,
            now_fn=clock.next,
            transport=TapeReplayTransport(tape),
            stream=stream,
            start=start,
            on_event=on_event,
            adapter_cls=adapter_cls,
        )
        for entry in tape.calls:
            kind = entry[0]
            if kind == "pick":
                core.pick_payload(entry[1])
            elif kind == "ack":
                core.on_ack(entry[1], {"layer": entry[2]}, entry[3])
            elif kind == "loss":
                core.on_loss(entry[1], {"layer": entry[2]}, entry[3])
            elif kind == "backoff":
                core.on_backoff(entry[1])
            elif kind == "tick":
                core.tick()
            else:  # pragma: no cover - tape corruption guard
                raise ValueError(f"unknown tape entry {entry!r}")
        return core
