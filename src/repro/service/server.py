"""The asyncio UDP streaming server.

:class:`StreamingService` is a single datagram endpoint multiplexing
many sessions: each HELLO spawns a :class:`ServiceSession` owning one
:class:`~repro.server.core.SessionCore` (the paper's quality adapter
plus feedback wiring — the same object the simulator drives) and one
:class:`~repro.service.pacing.RapPacer` (the sans-IO AIMD controller).
Sessions are steppers woken only to send: :meth:`ServiceSession.step`
runs one send slot and returns the next one (or the idle reaper's
deadline, if sooner), and one scheduler task steps every session due on
a ``(deadline, seq, session)`` heap. The AIMD steps, timeout polls and
adapter ticks between two slots change only session state, so the
session runs them lazily: :meth:`ServiceSession.settle` runs each one
due before a given instant at its own instant, in the instant order
send, step(s), poll, tick. Whatever reads a session (its next slot, an
ACK, FIN, expiry, ``close()``, the introspection snapshot) settles it
first. The shared ``datagram_received`` dispatches ACK/FIN feedback to
the owning session by session id, and only when it comes from that
session's own address.

Clocking: every timestamp is *service-relative* — ``loop.time() - t0``
— so decision records and FIN_ACK summaries read like simulation
traces (seconds from service start), and DATA ``send_ts`` echoes stay
small enough for the wire format. Each session's core reads the
session's own clock, the instant the session is processing: a send
slot's or an ACK's arrival time, or the nominal instant of a step,
poll or tick being settled.

Backpressure: each session owns a bounded outbox. When the event loop
pauses writing (socket buffer full) frames queue there; a full outbox
drops the *oldest* frame (the receiver treats it as loss, which is the
correct congestion signal) and counts it.

Flow control: the service config defaults ``max_buffer_seconds`` so an
uncongested loopback session parks at a bounded receiver buffer and the
pacer's ``max_rate`` cap keeps the send loop from spinning.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.core.config import QAConfig
from repro.server.core import SessionCore
from repro.service import protocol
from repro.service.pacing import RapPacer
from repro.telemetry.metrics import MetricsRegistry, SampleHook
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.tracing import SpanRecorder, TraceContext
from repro.transport.law import NOTHING, Feedback

#: Feedback-latency histogram bounds (seconds): loopback sits in the
#: first buckets, an impaired WAN profile in the last.
FEEDBACK_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                    0.1, 0.25, 0.5, 1.0, 2.5)

#: Cap on raw feedback-latency samples kept for percentile reporting.
MAX_LATENCY_SAMPLES = 250_000


def default_service_qa() -> QAConfig:
    """The service's QA profile: the paper's defaults plus flow control.

    ``max_buffer_seconds`` bounds the receiver buffer an uncongested
    session accumulates; without it a loopback run fills memory at
    ``max_rate`` for the whole soak.
    """
    return QAConfig(max_buffer_seconds=8.0)


@dataclass
class ServiceConfig:
    """Knobs for one :class:`StreamingService` instance."""

    host: str = "127.0.0.1"
    #: UDP port; 0 binds an ephemeral port (read it back from
    #: :attr:`StreamingService.port`).
    port: int = 0
    qa: QAConfig = field(default_factory=default_service_qa)
    #: HELLOs beyond this many live sessions are REJECTed.
    max_sessions: int = 512
    #: Seconds without an ACK before a session is reaped.
    session_timeout: float = 10.0
    #: Bounded per-session outbox (frames) for paused-transport spells.
    send_queue_frames: int = 64
    #: Emulated RTT floor for the pacer (see RapPacer.srtt_floor).
    srtt_floor: float = 0.02
    #: max_rate = headroom * max_layers * layer_rate.
    rate_headroom: float = 2.0
    #: Record adapter decisions into a FlightRecorder.
    record_decisions: bool = False
    #: Collect MetricsRegistry counters/gauges/histograms.
    collect_metrics: bool = False
    #: Record distributed-tracing spans into a SpanRecorder. Sessions
    #: adopt the trace context a client ships in its HELLO options (and
    #: echo it in the WELCOME config); clients that send none get a
    #: context derived from their session id.
    trace_spans: bool = False

    def __post_init__(self) -> None:
        if self.qa.packet_size < protocol.MIN_PACKET_SIZE:
            raise ValueError(
                f"packet_size {self.qa.packet_size} below protocol "
                f"minimum {protocol.MIN_PACKET_SIZE}")
        if self.max_sessions <= 0:
            raise ValueError("max_sessions must be positive")
        if self.send_queue_frames <= 0:
            raise ValueError("send_queue_frames must be positive")

    @property
    def max_rate(self) -> float:
        """Pacer rate cap in bytes/s."""
        return (self.rate_headroom
                * self.qa.max_layers * self.qa.layer_rate)


def session_summary(core: SessionCore, pacer: RapPacer) -> dict:
    """The server-side session outcome shipped in the FIN_ACK body.

    JSON-friendly: the client rebuilds a
    :class:`~repro.core.metrics.QualityMetrics` from it so service runs
    flow through the exact report path simulated runs use.
    """
    m = core.adapter.metrics
    return {
        "active_layers": core.active_layers,
        "adds": [[t, layer] for t, layer in m.adds],
        "drops": [
            [e.time, e.layer, e.cause.value, e.buf_drop, e.buf_total,
             e.required, e.drainable]
            for e in m.drops
        ],
        "startup_latency": m.startup_latency,
        "sent_per_layer": list(core.adapter.sent_bytes_per_layer),
        "retransmitted_bytes": core.adapter.retransmitted_bytes,
        "backoffs": pacer.backoffs,
        "packets_lost": pacer.packets_lost,
        "acks_received": pacer.acks_received,
        "final_rate": pacer.rate,
        "srtt": pacer.srtt,
    }


class _Clock:
    """The instant a session is processing; its core reads ``now``.

    A cell of its own, read through ``partial(getattr, ...)``: a clock
    bound to the session would tie session and core into a cycle.
    """

    __slots__ = ("now",)

    def __init__(self, now: float) -> None:
        self.now = now


class ServiceSession:
    """One client's stream: SessionCore + RapPacer, stepped by the service."""

    def __init__(self, service: "StreamingService", session_id: int,
                 addr: tuple, options: Optional[dict] = None) -> None:
        self.service = service
        self.session_id = session_id
        self.addr = addr
        self.label = f"session{session_id}"
        now = service.now()
        cfg = service.config
        recorder_hook = (service.recorder.hook(self.label)
                         if service.recorder is not None else None)
        # Adopt the client's trace context from the HELLO options so
        # both ends of the wire stamp spans into one trace; a client
        # that sent none gets a context derived from its session id.
        self.trace = TraceContext.from_wire(options or {})
        if self.trace is None and service.spans is not None:
            self.trace = TraceContext.derive(session_id, "service")
        self._span = (
            service.spans.span_hook(self.label, self.trace)
            if service.spans is not None and self.trace is not None
            else None)
        self._clock = clock = _Clock(now)
        self.core = SessionCore(
            cfg.qa, now_fn=partial(getattr, clock, "now"), start=now,
            on_event=recorder_hook, span_hook=self._span)
        # The pacer *is* a SessionTransport: it exposes rate and slope.
        self.pacer = RapPacer(
            self.core.config.packet_size, now,
            srtt_floor=cfg.srtt_floor, max_rate=cfg.max_rate)
        self.core.bind_transport(self.pacer)
        #: ``Feedback.replay``'s targets, bound once, not per ACK.
        self._replay_targets = (self.core.on_ack, self.core.on_loss,
                                self._backed_off)
        self.outbox: deque = deque()
        self.queue_drops = 0
        self.data_sent = 0
        self.started = now
        #: The reaper's clock (HELLO, plausible ACKs): the pacer's
        #: ``last_ack_time`` restarts at every RTO backstop.
        self.last_heard = now
        self.done = False
        self._drain_period = self.core.config.drain_period
        self._next_tick = now + self._drain_period
        #: A silent session is stepped this long after it was last
        #: heard from, so the reaper fires within one drain period.
        self._reap_after = cfg.session_timeout + self._drain_period

    # ------------------------------------------------------------ sending

    def _transmit(self, frame: bytes) -> None:
        service = self.service
        if service.send_paused or self.outbox:
            if len(self.outbox) >= service.config.send_queue_frames:
                self.outbox.popleft()
                self.queue_drops += 1
                service.count("queue_drops")
            self.outbox.append(frame)
            return
        service.sendto(frame, self.addr)

    def flush(self) -> None:
        """Drain the outbox after the transport resumes writing."""
        service = self.service
        while self.outbox and not service.send_paused:
            service.sendto(self.outbox.popleft(), self.addr)

    def _send_data(self, now: float) -> None:
        meta = self.core.pick_payload(self.pacer.next_seq)
        if meta is None:
            # Receiver flow control: burn the opportunity idle, exactly
            # like the simulated RapSource does.
            self.pacer.skip_send(now)
            return
        size = self.core.config.packet_size
        seq = self.pacer.register_send(now, meta, size)
        frame = protocol.encode_data(
            self.session_id, seq, meta["layer"], self.core.active_layers,
            now, size)
        self._transmit(frame)
        self.data_sent += 1

    # ----------------------------------------------------------- feedback

    def _apply(self, feedback: Feedback) -> None:
        if feedback is not NOTHING:
            feedback.replay(*self._replay_targets)

    def _backed_off(self, feedback: Feedback) -> None:
        self.core.on_backoff(feedback.backoff_rate)
        span = self._span
        if span is not None:
            now = self._clock.now
            span(now, now, "pacer.backoff", {
                "rate": feedback.backoff_rate,
                "lost": len(feedback.lost),
                "timeout": feedback.timed_out,
            })

    def handle_ack(self, frame: protocol.AckFrame, now: float) -> None:
        self.settle(now)
        self._clock.now = now
        # The pacer protects itself from an impossible ACK either way;
        # here it only decides what the service counts and measures.
        if self.pacer.plausible(frame.acked_seq, frame.echo_ts, now):
            self.last_heard = now
            self.service.observe_feedback_latency(now - frame.echo_ts)
        else:
            self.service.count("malformed_frames")
        self._apply(self.pacer.on_ack(frame.acked_seq, frame.echo_ts,
                                      now))

    # ---------------------------------------------------------- stepping

    def _run_due(self, now: float) -> None:
        """The additive step(s), the timeout poll, then the adapter
        tick, each if due at ``now``."""
        self._apply(self.pacer.advance(now))
        while now >= self._next_tick:
            self.core.tick()
            self._next_tick += self._drain_period

    def settle(self, now: float) -> None:
        """Run every step, poll and tick due strictly before ``now``,
        each at its own instant, earliest first."""
        pacer, clock = self.pacer, self._clock
        while True:
            at = min(pacer.next_step, pacer.next_poll, self._next_tick)
            if at >= now:
                return
            clock.now = at
            self._run_due(at)

    def step(self, now: float) -> Optional[float]:
        """Settle, send if the slot is due, run what else is due at
        ``now``; return the next send slot (or the reaper's deadline if
        sooner), or None once the idle reaper has expired the
        session."""
        pacer = self.pacer
        self.settle(now)
        self._clock.now = now
        if pacer.send_due(now):
            self._send_data(now)
        if min(pacer.next_step, pacer.next_poll, self._next_tick) <= now:
            self._run_due(now)
        if now - self.last_heard > self.service.config.session_timeout:
            self.service.expire_session(self)
            return None
        return min(pacer.next_send, self.last_heard + self._reap_after)

    def finish(self) -> None:
        """Stop stepping; the scheduler drops the heap entry when due."""
        self.done = True
        # ``_backed_off`` is bound to this session: dropping the targets
        # lets reference counting, not the cycle collector, free it.
        self._replay_targets = ()

    def record_session_span(self, now: float, reason: str) -> None:
        """Close the session-lifecycle span (FIN or expiry)."""
        span = self._span
        if span is not None:
            span(self.started, now, "session", {
                "session_id": self.session_id,
                "reason": reason,
                "data_sent": self.data_sent,
                "queue_drops": self.queue_drops,
                "active_layers": self.core.active_layers,
            })


class StreamingService(asyncio.DatagramProtocol):
    """The datagram endpoint multiplexing every session.

    Use :meth:`start` to bind::

        service = await StreamingService.start(ServiceConfig())
        ... drive load against service.port ...
        await service.close()
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        cfg = self.config
        # A sink that is off is ``None``, not disabled; callers guard.
        self.recorder = FlightRecorder() if cfg.record_decisions else None
        metrics = MetricsRegistry() if cfg.collect_metrics else None
        self.metrics = metrics
        self.spans = SpanRecorder() if cfg.trace_spans else None
        self.sessions: dict[int, ServiceSession] = {}
        self._by_addr: dict[tuple, int] = {}
        #: ``(deadline, seq, session)``, earliest first; FIN'd and
        #: expired sessions are dropped when their entry comes due.
        self._heap: list[tuple[float, int, ServiceSession]] = []
        self._seq = itertools.count()
        self._scheduler: Optional[asyncio.Task] = None
        #: What the idle scheduler awaits: set by the one loop timer,
        #: armed for the earliest deadline, or by a HELLO.
        self._woken: Optional[asyncio.Future] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self._next_session_id = 1
        self.send_paused = False
        self.transport: Optional[asyncio.DatagramTransport] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0
        self._closed = False
        #: Raw feedback-latency samples (seconds) for percentiles.
        self.feedback_latencies: list[float] = []
        self.counters = {
            "sessions_started": 0,
            "sessions_completed": 0,
            "sessions_expired": 0,
            "sessions_rejected": 0,
            "acks_received": 0,
            "malformed_frames": 0,
            "queue_drops": 0,
        }
        self._feedback_hist = (
            metrics.histogram_hook(
                "service_feedback_latency_seconds",
                "ACK echo-to-receipt latency",
                buckets=FEEDBACK_BUCKETS)
            if metrics is not None else None)
        #: Bound ``inc``/``set`` per family, cached on first use: no
        #: registry lookup per ACK, and a family still appears in
        #: /metrics only once it has a sample.
        self._counter_incs: dict[str, SampleHook] = {}
        self._active_set: Optional[SampleHook] = None

    # ------------------------------------------------------------ lifecycle

    @classmethod
    async def start(cls, config: Optional[ServiceConfig] = None
                    ) -> "StreamingService":
        service = cls(config)
        loop = asyncio.get_running_loop()
        service._loop = loop
        service._t0 = loop.time()
        await loop.create_datagram_endpoint(
            lambda: service,
            local_addr=(service.config.host, service.config.port))
        service._scheduler = loop.create_task(
            service._schedule(), name="repro-serve-scheduler")
        return service

    @property
    def port(self) -> int:
        assert self.transport is not None, "service not started"
        return self.transport.get_extra_info("sockname")[1]

    def now(self) -> float:
        """Service-relative seconds: the loop clock sessions are woken on."""
        assert self._loop is not None
        return self._loop.time() - self._t0

    @property
    def serving(self) -> bool:
        """True while the socket is bound and close() has not begun."""
        return self.transport is not None and not self._closed

    async def close(self) -> None:
        """Graceful shutdown: settle and finish every live session, stop
        the scheduler, close the socket."""
        if self._closed:
            return
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
        self._heap.clear()
        if self.sessions:
            now = self.now()
            for session in self.sessions.values():
                session.settle(now)
                session.finish()
        self.sessions.clear()
        self._by_addr.clear()
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass
        if self.transport is not None:
            self.transport.close()
        # Let the transport's connection_lost callback run so the
        # socket is fully released before we return.
        await asyncio.sleep(0)

    # ------------------------------------------------------------ scheduler

    async def _schedule(self) -> None:
        """Sleep until the earliest deadline, step what is due, repeat.

        A session whose next deadline is already due runs at the next
        wake, one loop iteration later, so datagrams still interleave
        and no session starves the rest.
        """
        loop, heap, t0 = asyncio.get_running_loop(), self._heap, self._t0
        while True:
            if heap and heap[0][0] <= loop.time() - t0:
                await asyncio.sleep(0)
            else:
                self._woken = woken = loop.create_future()
                if heap:
                    self._timer = loop.call_at(t0 + heap[0][0],
                                               woken.set_result, None)
                await woken
            self._wake()

    def _wake(self) -> None:
        """Step each due session once; one whose step raises expires."""
        heap = self._heap
        now = self.now()
        due = []
        while heap and heap[0][0] <= now:
            due.append(heapq.heappop(heap)[2])
        for session in due:
            if session.done:
                continue
            try:
                deadline = session.step(now)
            except Exception as exc:
                asyncio.get_running_loop().call_exception_handler({
                    "message": f"{session.label} step failed",
                    "exception": exc})
                self.expire_session(session)
                continue
            if deadline is not None:
                heapq.heappush(heap, (deadline, next(self._seq), session))

    # ----------------------------------------------------------- bookkeeping

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        metrics = self.metrics
        if metrics is not None:
            inc = self._counter_incs.get(name)
            if inc is None:
                inc = self._counter_incs[name] = metrics.counter(
                    f"service_{name}_total").inc
            inc(amount)

    def _gauge_active_sessions(self) -> None:
        if self.metrics is not None:
            if self._active_set is None:
                self._active_set = self.metrics.gauge(
                    "service_active_sessions").set
            self._active_set(len(self.sessions))

    def observe_feedback_latency(self, latency: float) -> None:
        if len(self.feedback_latencies) < MAX_LATENCY_SAMPLES:
            self.feedback_latencies.append(latency)
        if self._feedback_hist is not None:
            self._feedback_hist(latency)

    @property
    def decisions_recorded(self) -> int:
        return (self.recorder.total_recorded
                if self.recorder is not None else 0)

    # ------------------------------------------------------------- protocol

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self.transport = None

    def pause_writing(self) -> None:
        self.send_paused = True

    def resume_writing(self) -> None:
        self.send_paused = False
        for session in self.sessions.values():
            session.flush()

    def error_received(self, exc) -> None:
        # ICMP errors (e.g. a client went away); the idle reaper handles
        # the session.
        pass

    def sendto(self, frame: bytes, addr: tuple) -> None:
        if self.transport is not None:
            self.transport.sendto(frame, addr)

    def datagram_received(self, data: bytes, addr: tuple) -> None:
        try:
            frame = protocol.decode(data)
        except protocol.ProtocolError:
            self.count("malformed_frames")
            return
        # ACKs far outnumber all other frames, so they are tested first.
        if isinstance(frame, protocol.AckFrame):
            session = self.sessions.get(frame.session_id)
            if session is None or session.done:
                return
            if addr != session.addr:
                self.count("malformed_frames")  # spoofed feedback
                return
            self.count("acks_received")
            session.handle_ack(frame, self.now())
        elif isinstance(frame, protocol.HelloFrame):
            self._handle_hello(frame, addr)
        elif isinstance(frame, protocol.FinFrame):
            self._handle_fin(frame, addr)
        else:
            self.count("malformed_frames")

    # ------------------------------------------------------------- sessions

    def _welcome_body(self, session: ServiceSession) -> dict:
        cfg = session.core.config
        body = {
            "layer_rate": cfg.layer_rate,
            "max_layers": cfg.max_layers,
            "packet_size": cfg.packet_size,
            "startup_delay": cfg.startup_delay,
        }
        # Echo the trace context so the client can verify propagation;
        # untraced sessions keep the historical body shape.
        if session.trace is not None:
            body[protocol.TRACE_KEY] = session.trace.to_wire()
        return body

    def _handle_hello(self, frame: protocol.HelloFrame,
                      addr: tuple) -> None:
        existing = self._by_addr.get(addr)
        if existing is not None:
            # Duplicate HELLO (lost WELCOME): re-send, don't respawn.
            session = self.sessions[existing]
            self.sendto(protocol.encode_welcome(
                session.session_id, self._welcome_body(session)), addr)
            return
        if len(self.sessions) >= self.config.max_sessions:
            self.count("sessions_rejected")
            self.sendto(protocol.encode_reject("server full"), addr)
            return
        session_id = self._next_session_id
        self._next_session_id += 1
        session = ServiceSession(self, session_id, addr,
                                 options=frame.options)
        self.sessions[session_id] = session
        self._by_addr[addr] = session_id
        self.count("sessions_started")
        self._gauge_active_sessions()
        self.sendto(protocol.encode_welcome(
            session_id, self._welcome_body(session)), addr)
        heapq.heappush(self._heap,
                       (session.started, next(self._seq), session))
        woken = self._woken
        if woken is not None and not woken.done():
            # The new session is due now, before any armed deadline.
            if self._timer is not None:
                self._timer.cancel()
            woken.set_result(None)

    def _remove(self, session: ServiceSession) -> None:
        self.sessions.pop(session.session_id, None)
        if self._by_addr.get(session.addr) == session.session_id:
            self._by_addr.pop(session.addr, None)
        self._gauge_active_sessions()

    def _handle_fin(self, frame: protocol.FinFrame, addr: tuple) -> None:
        session = self.sessions.get(frame.session_id)
        if session is None:
            # FIN retransmit for an already-finished session: re-ACK
            # with an empty summary so the client stops retrying.
            self.sendto(protocol.encode_fin_ack(frame.session_id, {}),
                        addr)
            return
        if addr != session.addr:
            self.count("malformed_frames")  # spoofed teardown
            return
        now = self.now()
        session.settle(now)
        summary = session_summary(session.core, session.pacer)
        session.record_session_span(now, "fin")
        session.finish()
        self.count("sessions_completed")
        self.sendto(protocol.encode_fin_ack(
            session.session_id, summary), addr)
        self._remove(session)

    def expire_session(self, session: ServiceSession) -> None:
        """Drop a session that stopped ACKing (its step settled it) or
        whose step raised."""
        session.record_session_span(self.now(), "expired")
        session.finish()
        self.count("sessions_expired")
        self._remove(session)
