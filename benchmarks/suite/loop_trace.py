"""Span seams for the asyncio service, on either harness loop.

- every callback the loop dispatches (``call_soon`` / ``call_at``) is a
  root span, named after what it runs: a step of a named
  ``repro-serve-session<N>`` task is a server wake-up, a fleet task or a
  ``LoadClient`` method is the load generator, the rest is asyncio's;
- ``create_datagram_endpoint`` wraps each protocol and the transport it
  is given, so the harness is the caller of ``datagram_received`` and
  the callee of ``sendto``;
- the selector is wrapped, so the real time between two ``select``
  calls (one loop iteration's busy time) is measured.

``ServiceConfig`` has no ``adapter_cls`` field, so the adapter of each
session the server creates is switched to the timing subclass in place
(``adapter.__class__``) right after the HELLO that created it; this is
the one spot where the harness reaches into a live program object.
"""

from __future__ import annotations

import asyncio
import selectors
import time
from array import array
from typing import Any, Callable, Mapping, Optional

from repro.service import protocol
from repro.service.client import LoadClient
from repro.service.server import ServiceSession, StreamingService

from sim_trace import timed_adapter_cls
from spanlog import SpanLog
from virtual_loop import MemoryNet, VirtualLoop

#: DATA/ACK datagrams kept per kind for the codec drive.
CAPTURE_FRAMES = 2000

_FRAME_TYPE_OFFSET = 3


class TimingSelector(selectors.BaseSelector):
    """Delegates to ``inner``; records when ``select`` is entered/left."""

    def __init__(self, inner: selectors.BaseSelector) -> None:
        self.inner = inner
        #: Real seconds between leaving one ``select`` and entering the
        #: next: the busy part of each loop iteration.
        self.busy = array("d")
        self.waited_s = 0.0
        self._left: Optional[float] = None

    def register(self, fileobj: Any, events: int, data: Any = None
                 ) -> selectors.SelectorKey:
        return self.inner.register(fileobj, events, data)

    def unregister(self, fileobj: Any) -> selectors.SelectorKey:
        return self.inner.unregister(fileobj)

    def modify(self, fileobj: Any, events: int, data: Any = None
               ) -> selectors.SelectorKey:
        return self.inner.modify(fileobj, events, data)

    def get_map(self) -> Mapping[Any, selectors.SelectorKey]:
        return self.inner.get_map()

    def close(self) -> None:
        self.inner.close()

    def select(self, timeout: Optional[float] = None) -> list:
        entered = time.perf_counter()
        if self._left is not None:
            self.busy.append(entered - self._left)
        ready = self.inner.select(timeout)
        self._left = time.perf_counter()
        self.waited_s += self._left - entered
        return ready


class LoopTracer:
    """Everything one traced service run records."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.idle_picks = [0]
        self._adapter_cls = timed_adapter_cls(log, self.idle_picks)
        self.timers_scheduled = 0
        #: Frames handed to ``sendto``, by wire frame type.
        self.frames_sent = [0] * (protocol.REJECT + 1)
        self.captured: dict[int, list[bytes]] = {protocol.DATA: [],
                                                 protocol.ACK: []}
        #: Every session the server created, kept past its FIN.
        self.sessions: dict[int, ServiceSession] = {}
        self._names: dict[object, int] = {}
        self._wakeup = log.name("service.server:wakeup")
        self._client_task = log.name("service.client:task")
        self._other_task = log.name("other:task")
        self.sendto = log.name("net:sendto")

    # ------------------------------------------------------ loop callbacks

    def wrap(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        name_id = self._classify(callback)
        log = self.log

        def run(*args: Any) -> None:
            log.begin(name_id)
            try:
                callback(*args)
            finally:
                log.end()
        return run

    def _classify(self, callback: Callable[..., Any]) -> int:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, asyncio.Task):
            if owner.get_name().startswith("repro-serve-"):
                return self._wakeup
            qualname = getattr(owner.get_coro(), "__qualname__", "")
            if qualname.startswith(("LoadFleet.", "LoadClient.")):
                return self._client_task
            return self._other_task
        func = getattr(callback, "__func__", callback)
        # One TimedProtocol class fronts both ends of the wire.
        key = (func, getattr(owner, "layer", None))
        found = self._names.get(key)
        if found is None:
            found = self._names[key] = self.log.name(
                self._span_name(owner, func))
        return found

    @staticmethod
    def _span_name(owner: object, func: Any) -> str:
        what = getattr(func, "__name__", "call").lstrip("_")
        if isinstance(owner, LoadClient):
            return f"service.client:{what}"
        if isinstance(owner, MemoryNet):
            return "net:deliver"
        if isinstance(owner, TimedProtocol):
            return f"{owner.layer}:{what}"
        if what == "set_result_unless_cancelled":
            return "asyncio.loop:timer"
        return "asyncio.loop:callback"

    # ------------------------------------------------------------ sessions

    def adopt_sessions(self, service: StreamingService) -> None:
        """Keep (and instrument) sessions created since the last call."""
        for session_id, session in service.sessions.items():
            if session_id not in self.sessions:
                self.sessions[session_id] = session
                session.core.adapter.__class__ = self._adapter_cls


class TimedTransport:
    """What a wrapped protocol sees as its transport."""

    def __init__(self, inner: Any, tracer: LoopTracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def sendto(self, data: bytes, addr: Any = None) -> None:
        tracer = self._tracer
        kind = data[_FRAME_TYPE_OFFSET]
        tracer.frames_sent[kind] += 1
        kept = tracer.captured.get(kind)
        if kept is not None and len(kept) < CAPTURE_FRAMES:
            kept.append(data)
        log = tracer.log
        log.begin(tracer.sendto)
        try:
            self._inner.sendto(data, addr)
        finally:
            log.end()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class TimedProtocol:
    """Stands between a transport and the program's protocol object.

    Not a ``DatagramProtocol`` subclass: its no-op defaults would
    shadow the ``__getattr__`` delegation below.
    """

    def __init__(self, inner: Any, tracer: LoopTracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.is_server = isinstance(inner, StreamingService)
        self.layer = ("service.server" if self.is_server
                      else "service.client")
        self._rx = tracer.log.name(f"{self.layer}:rx")

    def connection_made(self, transport: Any) -> None:
        self.inner.connection_made(TimedTransport(transport, self.tracer))

    def datagram_received(self, data: bytes, addr: Any) -> None:
        log = self.tracer.log
        log.begin(self._rx)
        try:
            self.inner.datagram_received(data, addr)
        finally:
            log.end()
        if (self.is_server and len(data) > _FRAME_TYPE_OFFSET
                and data[_FRAME_TYPE_OFFSET] == protocol.HELLO):
            self.tracer.adopt_sessions(self.inner)

    def __getattr__(self, name: str) -> Any:
        # connection_lost, error_received, pause/resume_writing.
        return getattr(self.inner, name)


class TracedLoopMixin:
    """Wraps what the loop dispatches; mixed in front of a loop class."""

    tracer: LoopTracer

    def call_soon(self, callback: Callable[..., Any], *args: Any,
                  context: Any = None) -> asyncio.Handle:
        return super().call_soon(  # type: ignore[misc]
            self.tracer.wrap(callback), *args, context=context)

    def call_at(self, when: float, callback: Callable[..., Any],
                *args: Any, context: Any = None) -> asyncio.TimerHandle:
        self.tracer.timers_scheduled += 1
        return super().call_at(  # type: ignore[misc]
            when, self.tracer.wrap(callback), *args, context=context)

    async def create_datagram_endpoint(self, protocol_factory: Any,
                                       *args: Any, **kwargs: Any) -> Any:
        tracer = self.tracer
        return await super().create_datagram_endpoint(  # type: ignore[misc]
            lambda: TimedProtocol(protocol_factory(), tracer),
            *args, **kwargs)


class TracedVirtualLoop(TracedLoopMixin, VirtualLoop):
    def __init__(self, log: SpanLog, latency: float) -> None:
        self.tracer = LoopTracer(log)
        super().__init__(latency, wrap_selector=self._wrap)

    def _wrap(self, inner: selectors.BaseSelector) -> TimingSelector:
        self.selector = TimingSelector(inner)
        return self.selector


class TracedSocketLoop(TracedLoopMixin, asyncio.SelectorEventLoop):
    def __init__(self, log: SpanLog) -> None:
        self.tracer = LoopTracer(log)
        self.selector = TimingSelector(selectors.DefaultSelector())
        super().__init__(self.selector)
