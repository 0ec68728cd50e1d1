"""The async load-generator fleet.

Each :class:`LoadClient` is one receiving session on its own connected
UDP socket: it handshakes (HELLO/WELCOME), runs every arriving DATA
frame through a scripted :class:`~repro.service.impairment.Impairment`
shim, plays admitted frames through the simulator's own
:class:`~repro.media.playout.PlayoutBuffer` (identical QoE accounting:
stalls, startup time, gap bytes), ACKs with the frame's echoed
timestamp, and tears down with FIN/FIN_ACK — recovering the server's
adapter decision summary so a service run reports the same
add/drop/efficiency numbers a simulated run does.

:class:`LoadFleet` fans out hundreds of such sessions concurrently with
staggered starts; per-session randomness (the impairment's loss/jitter
draws) is a :meth:`~repro.sim.rng.SeededRNG.spawn` of one fleet seed,
so a fleet's loss *pattern* is reproducible even though wall-clock
arrival times are not. The fleet's clients share one
:class:`FleetTimers` heap behind one loop timer: every impairment-delayed
delivery and every sampling tick is an entry on it, not a loop handle
of its own.

With ``trace_spans`` on, the fleet carries a shared
:class:`~repro.telemetry.tracing.SpanRecorder` and derives one
deterministic :class:`~repro.telemetry.tracing.TraceContext` per client
from the fleet seed. Each client sends its context in the HELLO options
(:data:`repro.service.protocol.TRACE_KEY`), so the server's spans for
the same session land under the *same* trace id — merging both
recorders yields one coherent distributed trace per session.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.metrics import DropCause, DropEvent, QualityMetrics
from repro.media.playout import PlayoutBuffer, PlayoutStats
from repro.server.session import SessionResult
from repro.service import protocol
from repro.service.impairment import Impairment, ImpairmentConfig
from repro.sim.rng import SeededRNG, make_rng
from repro.sim.trace import Tracer
from repro.telemetry.tracing import SpanRecorder, TraceContext

#: How long to wait for a WELCOME / FIN_ACK before retransmitting.
HANDSHAKE_TIMEOUT = 0.5
HANDSHAKE_RETRIES = 10

#: asyncio runs every timer due before ``loop.time()`` plus this in one
#: iteration; the fleet heap's batch uses the same horizon.
_CLOCK_RESOLUTION = time.get_clock_info("monotonic").resolution


def metrics_from_summary(summary: dict) -> QualityMetrics:
    """Rebuild the server's :class:`QualityMetrics` from a FIN_ACK body."""
    metrics = QualityMetrics()
    for time, layer in summary.get("adds", []):
        metrics.record_add(time, layer)
    for (time, layer, cause, buf_drop, buf_total, required,
         drainable) in summary.get("drops", []):
        metrics.record_drop(DropEvent(
            time=time, layer=layer, buf_drop=buf_drop,
            buf_total=buf_total, required=required,
            cause=DropCause(cause), drainable=drainable))
    metrics.startup_latency = summary.get("startup_latency")
    return metrics


@dataclass
class LoadSessionResult:
    """One load session's outcome, shaped for the existing report path."""

    label: str
    session_id: int
    duration: float
    bytes_received: int = 0
    packets_received: int = 0
    acks_sent: int = 0
    dropped_random: int = 0
    dropped_backlog: int = 0
    queue_dropped: int = 0
    tracer: Tracer = field(default_factory=Tracer)
    playout: PlayoutStats = field(default_factory=PlayoutStats)
    server_summary: dict = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def mean_rate(self) -> float:
        """Mean received goodput in bytes/s."""
        if self.duration <= 0:
            return 0.0
        return self.bytes_received / self.duration

    def to_session_result(self) -> SessionResult:
        """The same shape a simulated :class:`StreamingSession` yields."""
        return SessionResult(
            tracer=self.tracer,
            metrics=metrics_from_summary(self.server_summary),
            playout=self.playout,
            duration=self.duration,
            telemetry_enabled=True,
        )


class FleetTimers:
    """One ``(when, seq, callback, args)`` heap behind one loop timer.

    ``when`` is in ``loop.time()`` seconds. The one live
    ``TimerHandle`` is armed at the heap's head; a push that becomes the
    new head cancels it and arms another. When it fires, the batch
    first takes every entry asyncio would have run in that iteration
    (due before ``loop.time()`` plus the clock resolution), arms the
    timer for what is left, and only then runs the batch, in
    ``(when, push order)``. So an entry pushed from inside a batch runs
    on a later fire, even when it is already due.
    """

    def __init__(self, loop: Any) -> None:
        self._loop = loop
        self._heap: list[tuple[float, int, Callable[..., None],
                               tuple]] = []
        self._seq = itertools.count()
        self._timer: Optional[asyncio.TimerHandle] = None
        self._armed_at = math.inf

    def push(self, when: float, callback: Callable[..., None],
             *args: Any) -> None:
        """Run ``callback(*args)`` once the loop clock reaches ``when``."""
        heapq.heappush(self._heap, (when, next(self._seq), callback, args))
        if when < self._armed_at:
            if self._timer is not None:
                self._timer.cancel()
            self._arm(when)

    def _arm(self, when: float) -> None:
        self._armed_at = when
        self._timer = self._loop.call_at(when, self._fire)

    def _fire(self) -> None:
        heap = self._heap
        horizon = self._loop.time() + _CLOCK_RESOLUTION
        due = []
        while heap and heap[0][0] < horizon:
            due.append(heapq.heappop(heap))
        if heap:
            self._arm(heap[0][0])
        else:
            self._timer, self._armed_at = None, math.inf
        for _, _, callback, args in due:
            callback(*args)

    def close(self) -> None:
        """Drop every entry; no loop timer stays armed."""
        if self._timer is not None:
            self._timer.cancel()
        self._timer, self._armed_at = None, math.inf
        self._heap.clear()


class LoadClient(asyncio.DatagramProtocol):
    """One receiving session on its own connected datagram socket.

    Its delayed deliveries and sampling ticks go on the fleet's
    :class:`FleetTimers`; :meth:`run` awaits the last tick.
    """

    def __init__(
        self,
        host: str,
        port: int,
        label: str,
        duration: float,
        timers: FleetTimers,
        impairment: Optional[ImpairmentConfig] = None,
        rng: Optional[SeededRNG] = None,
        nonce: int = 0,
        sample_period: float = 0.1,
        trace: Optional[TraceContext] = None,
        spans: Optional[SpanRecorder] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.label = label
        self.duration = duration
        self.nonce = nonce
        self.sample_period = sample_period
        self._timers = timers
        impairment = impairment or ImpairmentConfig()
        self.impairment = (
            Impairment(impairment, rng or make_rng(0))
            if impairment.active else None)
        self.trace = trace
        self._span = (spans.span_hook(label, trace)
                      if spans is not None and trace is not None else None)

        self.transport: Optional[asyncio.DatagramTransport] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0
        self._closed = False
        self.session_id: Optional[int] = None
        self.session_config: dict = {}
        self.playout: Optional[PlayoutBuffer] = None
        self.tracer = Tracer()
        self.bytes_received = 0
        self.packets_received = 0
        self.acks_sent = 0
        self._last_sample_t = 0.0
        self._last_sample_bytes = 0
        self._last_sample_packets = 0
        self._last_seq = -1
        self._welcome: Optional[asyncio.Future] = None
        self._fin_ack: Optional[asyncio.Future] = None
        #: Resolved by the sampling tick that finds ``duration`` spent.
        self._streamed: Optional[asyncio.Future] = None
        self._end = 0.0

    def _now(self) -> float:
        assert self._loop is not None
        return self._loop.time() - self._t0

    # ------------------------------------------------------------- protocol

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self.transport = None

    def error_received(self, exc) -> None:
        pass

    def _resolve(self, fut: Optional[asyncio.Future],
                 value: object) -> None:
        if fut is not None and not fut.done():
            fut.set_result(value)

    def datagram_received(self, data: bytes, addr: tuple) -> None:
        try:
            frame = protocol.decode(data)
        except protocol.ProtocolError:
            return
        if isinstance(frame, protocol.DataFrame):
            self._on_data(frame)
        elif isinstance(frame, protocol.WelcomeFrame):
            self._resolve(self._welcome, frame)
        elif isinstance(frame, protocol.RejectFrame):
            self._resolve(self._welcome, frame)
        elif isinstance(frame, protocol.FinAckFrame):
            self._resolve(self._fin_ack, frame)

    # ----------------------------------------------------------- data path

    def _on_data(self, frame: protocol.DataFrame) -> None:
        if self._closed or frame.session_id != self.session_id:
            return
        now = self._now()
        if self.impairment is None:
            self._deliver(frame, now)
            return
        delay = self.impairment.admit(frame.size, now)
        if delay is None:
            return  # dropped: the missing ACK is the loss signal
        if delay <= 0:
            self._deliver(frame, now)
        else:
            assert self._loop is not None
            self._timers.push(self._loop.time() + delay, self._deliver,
                              frame, now + delay)

    def _deliver(self, frame: protocol.DataFrame, when: float) -> None:
        if self._closed or self.transport is None:
            return
        if self.playout is None:
            self.playout = PlayoutBuffer(
                layer_rate=self.session_config["layer_rate"],
                max_layers=self.session_config["max_layers"],
                playout_start=(
                    when + self.session_config["startup_delay"]),
                on_event=(self._playout_event
                          if self._span is not None else None),
            )
        self.playout.on_packet(when, frame.layer, frame.size,
                               server_active=frame.active)
        self.bytes_received += frame.size
        self.packets_received += 1
        self._last_seq = frame.seq
        self.transport.sendto(protocol.encode_ack(
            frame.session_id, frame.seq, frame.send_ts))
        self.acks_sent += 1

    def _playout_event(self, when: float, kind: str, fields: dict) -> None:
        """Playout QoE events -> client spans (stalls become intervals)."""
        span = self._span
        if span is None:
            return
        if kind == "stall_end":
            span(when - fields["duration"], when, "client.stall", fields)
        else:
            span(when, when, f"client.{kind}", fields)

    def _arm_sample(self) -> None:
        """Sample again ``sample_period`` on, or resolve at the end."""
        remaining = self._end - self._now()
        if remaining <= 0:
            self._resolve(self._streamed, None)
            return
        assert self._loop is not None
        self._timers.push(
            self._loop.time() + min(self.sample_period, remaining),
            self._tick)

    def _tick(self) -> None:
        self._sample()
        self._arm_sample()

    def _sample(self) -> None:
        now = self._now()
        if now <= self._last_sample_t:
            return
        if self.playout is not None:
            self.playout.advance(now)
            layers = float(self.playout.active_layers)
        else:
            layers = 0.0
        rate = ((self.bytes_received - self._last_sample_bytes)
                / (now - self._last_sample_t))
        self.tracer.record("layers", now, layers)
        self.tracer.record("rate", now, rate)
        span = self._span
        if span is not None:
            span(self._last_sample_t, now, "client.recv", {
                "bytes": self.bytes_received - self._last_sample_bytes,
                "packets": (self.packets_received
                            - self._last_sample_packets),
                "rate": rate,
                "layers": layers,
                "last_seq": self._last_seq,
            })
        self._last_sample_t = now
        self._last_sample_bytes = self.bytes_received
        self._last_sample_packets = self.packets_received

    # ------------------------------------------------------------ lifecycle

    async def _request(self, frame: bytes, fut: asyncio.Future,
                       what: str) -> object:
        assert self.transport is not None
        for _ in range(HANDSHAKE_RETRIES):
            self.transport.sendto(frame)
            try:
                return await asyncio.wait_for(
                    asyncio.shield(fut), HANDSHAKE_TIMEOUT)
            except asyncio.TimeoutError:
                continue
        raise TimeoutError(f"no {what} after {HANDSHAKE_RETRIES} tries")

    async def run(self) -> LoadSessionResult:
        """Handshake, receive for ``duration`` seconds, tear down."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._t0 = loop.time()
        self._welcome = loop.create_future()
        self._fin_ack = loop.create_future()
        self._streamed = loop.create_future()
        await loop.create_datagram_endpoint(
            lambda: self, remote_addr=(self.host, self.port))
        result = LoadSessionResult(
            label=self.label, session_id=-1, duration=self.duration,
            tracer=self.tracer)
        options: dict = {}
        if self.trace is not None:
            options[protocol.TRACE_KEY] = self.trace.to_wire()
        try:
            try:
                hello_t = self._now()
                reply = await self._request(
                    protocol.encode_hello(self.nonce, options),
                    self._welcome, "WELCOME")
            except TimeoutError as exc:
                result.error = str(exc)
                return result
            if isinstance(reply, protocol.RejectFrame):
                result.error = f"rejected: {reply.reason}"
                return result
            assert isinstance(reply, protocol.WelcomeFrame)
            self.session_id = reply.session_id
            self.session_config = reply.config
            result.session_id = reply.session_id
            span = self._span
            if span is not None:
                span(hello_t, self._now(), "client.handshake",
                     {"session_id": reply.session_id})

            self._end = self._now() + self.duration
            self._arm_sample()
            await self._streamed

            self._closed = True  # stop ACKing; quiesce before FIN
            try:
                fin_ack = await self._request(
                    protocol.encode_fin(self.session_id),
                    self._fin_ack, "FIN_ACK")
            except TimeoutError as exc:
                result.error = str(exc)
                return result
            assert isinstance(fin_ack, protocol.FinAckFrame)
            result.server_summary = fin_ack.summary
        finally:
            self._closed = True
            if self.transport is not None:
                self.transport.close()
            result.bytes_received = self.bytes_received
            result.packets_received = self.packets_received
            result.acks_sent = self.acks_sent
            if self.impairment is not None:
                result.dropped_random = self.impairment.dropped_random
                result.dropped_backlog = self.impairment.dropped_backlog
            if self.playout is not None:
                result.playout = self.playout.stats
            span = self._span
            if span is not None:
                teardown = self._now()
                if self.playout is not None and self.playout.stalled:
                    # A stall still open at teardown never saw stall_end.
                    span(self.playout.stall_began, teardown,
                         "client.stall", {"open": True})
                span(0.0, teardown, "client.session", {
                    "session_id": result.session_id,
                    "bytes": self.bytes_received,
                    "packets": self.packets_received,
                    "acks": self.acks_sent,
                    "stalls": result.playout.stall_count,
                    "error": result.error,
                })
        return result


class LoadFleet:
    """Many concurrent load sessions against one service."""

    def __init__(
        self,
        host: str,
        port: int,
        sessions: int = 10,
        duration: float = 10.0,
        impairment: Optional[ImpairmentConfig] = None,
        seed: int = 0,
        spread: float = 1.0,
        sample_period: float = 0.1,
        trace_spans: bool = False,
    ) -> None:
        if sessions <= 0:
            raise ValueError("sessions must be positive")
        self.host = host
        self.port = port
        self.sessions = sessions
        self.duration = duration
        self.impairment = impairment or ImpairmentConfig()
        self.seed = seed
        self.spread = spread
        self.sample_period = sample_period
        #: Shared across all clients; trace ids derive from the fleet
        #: seed so reruns produce the same id per client index.
        self.spans = SpanRecorder(enabled=trace_spans)

    async def run(self) -> list[LoadSessionResult]:
        """Run the whole fleet; one result per session, in index order."""
        root = make_rng(self.seed)
        timers = FleetTimers(asyncio.get_running_loop())

        async def one(index: int) -> LoadSessionResult:
            # Stagger starts across ``spread`` seconds so hundreds of
            # HELLOs do not land in one event-loop tick.
            await asyncio.sleep(self.spread * index / self.sessions)
            trace = (TraceContext.derive(self.seed, "fleet", index)
                     if self.spans.enabled else None)
            client = LoadClient(
                self.host, self.port,
                label=f"load{index}",
                duration=self.duration,
                timers=timers,
                impairment=self.impairment,
                rng=root.spawn(f"load{index}"),
                nonce=index,
                sample_period=self.sample_period,
                trace=trace,
                spans=self.spans,
            )
            return await client.run()

        try:
            gathered = await asyncio.gather(
                *(one(i) for i in range(self.sessions)),
                return_exceptions=True)
        finally:
            timers.close()
        results: list[LoadSessionResult] = []
        for index, item in enumerate(gathered):
            if isinstance(item, BaseException):
                results.append(LoadSessionResult(
                    label=f"load{index}", session_id=-1,
                    duration=self.duration,
                    error=f"{type(item).__name__}: {item}"))
            else:
                results.append(item)
        return results
