"""Span seams for the packet simulator, all reached from outside.

- ``Simulator.instrument(timer, record)``: one root span per dispatched
  event, named after the handler's layer;
- a timing subclass of ``QualityAdapter`` handed in through the
  ``adapter_cls`` spec field;
- ``Host.detach``/``attach``: a proxy in front of every transport agent,
  so ``receive`` (nested inside a link's delivery event) is a child span;
- ``Node.set_default_route``: a proxy in front of each host's access
  link, so the link work an agent triggers by sending is not charged to
  the transport;
- ``RapSink.on_data``: the client's playout bookkeeping.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable

from repro.core.adapter import QualityAdapter
from repro.media.playout import PlayoutBuffer
from repro.scenario import Scenario
from repro.sim.flowmon import FlowMonitor
from repro.sim.link import Link
from repro.sim.trace import PeriodicSampler
from repro.telemetry.probes import Probe
from repro.transport import RapSink, RapSource, TcpSink, TcpSource

from percentiles import p50_p99
from spanlog import SpanLog, SpanStats

_LAYER_BY_OWNER: tuple[tuple[type, str], ...] = (
    (Link, "sim.link"),
    (RapSource, "transport.rap"),
    (RapSink, "transport.rap"),
    (TcpSource, "transport.tcp"),
    (TcpSink, "transport.tcp"),
)


def timed_adapter_cls(log: SpanLog, idle_picks: list[int]
                      ) -> type[QualityAdapter]:
    """A ``QualityAdapter`` whose five entry points are spans.

    ``idle_picks[0]`` counts transmission opportunities the adapter left
    idle (receiver flow control) — the layer's wasted-work count.
    """
    pick = log.name("core.adapter:pick")
    tick = log.name("core.adapter:tick")
    backoff = log.name("core.adapter:backoff")
    delivered = log.name("core.adapter:delivered")
    lost = log.name("core.adapter:lost")
    begin, end = log.begin, log.end

    class TimedAdapter(QualityAdapter):
        def pick_layer(self, seq):  # type: ignore[override]
            begin(pick)
            try:
                meta = super().pick_layer(seq)
            finally:
                end()
            if meta is None:
                idle_picks[0] += 1
            return meta

        def tick(self) -> None:
            begin(tick)
            try:
                super().tick()
            finally:
                end()

        def on_backoff(self, new_rate) -> None:  # type: ignore[override]
            begin(backoff)
            try:
                super().on_backoff(new_rate)
            finally:
                end()

        def on_delivered(self, layer, nbytes) -> None:  # type: ignore[override]
            begin(delivered)
            try:
                super().on_delivered(layer, nbytes)
            finally:
                end()

        def on_lost(self, layer, nbytes) -> None:  # type: ignore[override]
            begin(lost)
            try:
                super().on_lost(layer, nbytes)
            finally:
                end()

    return TimedAdapter


ADAPTER_SPANS = ("core.adapter:pick", "core.adapter:tick",
                  "core.adapter:backoff", "core.adapter:delivered",
                  "core.adapter:lost")


def adapter_span_metrics(log: SpanLog, stats: dict[str, SpanStats],
                         idle_picks: float) -> dict[str, float]:
    """The ``core.adapter.*`` timings every traced QA workload shares."""
    picks = stats.get("core.adapter:pick", SpanStats()).count
    out: dict[str, float] = {
        "core.adapter.busy_s": sum(
            stats[n].total_s for n in ADAPTER_SPANS if n in stats),
        "core.adapter.calls": sum(
            stats[n].count for n in ADAPTER_SPANS if n in stats),
        "core.adapter.picks": picks,
        "core.adapter.ticks":
            stats.get("core.adapter:tick", SpanStats()).count,
        "core.adapter.pick_useful_share":
            (picks - idle_picks) / picks if picks else 0.0,
    }
    for what in ("pick", "tick"):
        micros = [1e6 * d for d in log.durations(f"core.adapter:{what}")]
        out.update(p50_p99(micros, f"core.adapter.{what}_us"))
    return out


class _TimedAgent:
    """Stands in for a transport agent in ``Host``'s demultiplexer."""

    def __init__(self, agent: Any, log: SpanLog, name_id: int) -> None:
        self._receive = agent.receive
        self._log = log
        self._name_id = name_id

    def receive(self, packet: Any) -> None:
        log = self._log
        log.begin(self._name_id)
        try:
            self._receive(packet)
        finally:
            log.end()


class _TimedRoute:
    """Stands in for a host's access link: ``send`` is a link span."""

    def __init__(self, link: Link, log: SpanLog, name_id: int) -> None:
        self._send = link.send
        self._log = log
        self._name_id = name_id

    def send(self, packet: Any) -> bool:
        log = self._log
        log.begin(self._name_id)
        try:
            return self._send(packet)
        finally:
            log.end()


def _timed_call(fn: Callable[..., None], log: SpanLog,
                name_id: int) -> Callable[..., None]:
    def call(*args: Any) -> None:
        log.begin(name_id)
        try:
            fn(*args)
        finally:
            log.end()
    return call


def _transport_layer(agent: Any) -> str:
    for owner_type, layer in _LAYER_BY_OWNER:
        if isinstance(agent, owner_type):
            return layer
    return "other"


class SimTracer:
    """Attaches every simulator seam of one scenario to one span log."""

    def __init__(self, log: SpanLog, scenario: Scenario) -> None:
        self.log = log
        self.scenario = scenario
        #: Pending-event count at every dispatch (for exact percentiles).
        self.heap_depths = array("l")
        self._names: dict[object, int] = {}
        self._in_event = False
        self._event_end = 0.0
        self._anonymous = log.name("other:event")
        self._install()

    # ------------------------------------------------------ engine observer

    def _timer(self) -> float:
        # The engine reads its injected timer exactly twice per event:
        # before and after the handler. The first read opens the root
        # span, the second is kept for record() to close it with.
        if self._in_event:
            now = time.perf_counter()
            self._in_event = False
            self._event_end = now
            return now
        self._in_event = True
        self.log.begin(self._anonymous)
        return self.log.starts[-1]

    def _record(self, callback: Callable[..., None], seconds: float,
                depth: int) -> None:
        self.log.end_at(self._event_end, self._classify(callback))
        self.heap_depths.append(depth)

    def _classify(self, callback: Callable[..., None]) -> int:
        owner = getattr(callback, "__self__", None)
        func = getattr(callback, "__func__", callback)
        # A sampler's layer is its target's, so key those per instance.
        key = owner if isinstance(owner, PeriodicSampler) else func
        found = self._names.get(key)
        if found is None:
            found = self._names[key] = self.log.name(
                self._span_name(owner, func))
        return found

    @staticmethod
    def _span_name(owner: object, func: Any) -> str:
        what = getattr(func, "__name__", "call").lstrip("_")
        if isinstance(owner, PeriodicSampler):
            target = owner.callback
            target_owner = getattr(target, "__self__", None)
            if isinstance(target_owner, Probe):
                return "telemetry:probe"
            if isinstance(target_owner, PlayoutBuffer):
                return "media.playout:clock"
            if isinstance(target_owner, FlowMonitor):
                return "sim.link:flowmon"
            if getattr(target, "__qualname__", "").startswith(
                    "VideoServer."):
                return "server.core:tick"
            return "other:sampler"
        for owner_type, layer in _LAYER_BY_OWNER:
            if isinstance(owner, owner_type):
                return f"{layer}:{what}"
        return f"other:{what}"

    # ------------------------------------------------------------- install

    def _install(self) -> None:
        log = self.log
        link_send = log.name("sim.link:send")
        playout = log.name("media.playout:packet")
        hosts = []
        for flow in self.scenario.flows:
            sink = flow.sink
            if flow.session is not None:
                sink = flow.session.client.sink
                sink.on_data = _timed_call(sink.on_data, log, playout)
            for agent in (flow.source, sink):
                host = agent.host
                hosts.append(host)
                name_id = log.name(f"{_transport_layer(agent)}:receive")
                host.detach(agent.flow_id)
                host.attach(agent.flow_id,
                            _TimedAgent(agent, log, name_id))
        for host in dict.fromkeys(hosts):
            host.set_default_route(
                _TimedRoute(host.default_route, log, link_send))
        self.scenario.sim.instrument(self._timer, self._record)
