"""The asyncio-service workloads: ``service_virtual`` and
``service_loopback``.

Both run the unmodified ``StreamingService`` and ``LoadFleet`` on one
event loop in one thread. ``service_virtual`` puts them on the
harness's virtual-time loop with Internet-like impaired clients: it is
CPU-bound and deterministic, so session-seconds per wall second *is*
sessions per core. ``service_loopback`` uses real UDP sockets on
127.0.0.1 (the host's loopback, not a real link) at a fixed client
count; it is wall-paced, so its cost is CPU per session-second.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import QAConfig
from repro.service import protocol
from repro.service.client import (LoadFleet, LoadSessionResult,
                                  metrics_from_summary)
from repro.service.impairment import ImpairmentConfig
from repro.service.server import ServiceConfig, StreamingService

from drives import pacer_drive, protocol_drive, replay_drive
from loop_trace import TracedSocketLoop, TracedVirtualLoop
from passes import PassReport, Workload, digest_of, sub_seeds
from percentiles import p50_p99, percentile_or_none
from quality import Quality
from sim_trace import adapter_span_metrics
from spanlog import SpanLog, layer_self_seconds
from virtual_loop import VirtualLoop

SERVICE_QA = QAConfig(layer_rate=4000, max_layers=4, packet_size=400,
                      startup_delay=0.5, max_buffer_seconds=4.0)
#: A constrained, lossy last mile: losses, pacer back-offs, the drop
#: rule and draining all fire, and nobody stalls.
IMPAIRMENT = ImpairmentConfig(loss_rate=0.005, delay=0.02, jitter=0.005,
                              rate_limit=11_000, bucket_depth=4000,
                              max_backlog=0.3)
VIRTUAL_SESSIONS = 64
VIRTUAL_DURATION = 10.0
LOOPBACK_SESSIONS = 16
#: One-way latency of the in-memory wire.
WIRE_LATENCY = 0.0005
SPREAD = 1.0
#: Period of the generator's own heartbeat (loopback, traced).
HEARTBEAT = 0.004


@dataclass
class LiveService:
    loop: asyncio.AbstractEventLoop
    service: StreamingService
    fleet: LoadFleet
    log: Optional[SpanLog] = None
    results: list[LoadSessionResult] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    feedback_latencies: list[float] = field(default_factory=list)
    leaked_tasks: int = 0
    heartbeat_lags: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    wall_s: float = 0.0


async def _heartbeat(lags: list[float]) -> None:
    loop = asyncio.get_running_loop()
    due = loop.time()
    while True:
        due += HEARTBEAT
        await asyncio.sleep(max(0.0, due - loop.time()))
        lags.append(loop.time() - due)


class ServiceWorkload(Workload):

    def __init__(self, name: str) -> None:
        self.name = name
        self.virtual = name == "service_virtual"
        self.wall_paced = not self.virtual
        self.sessions = (VIRTUAL_SESSIONS if self.virtual
                         else LOOPBACK_SESSIONS)
        self.duration = VIRTUAL_DURATION

    def prepare(self, seed: int, seconds: Optional[float] = None) -> None:
        self._fleet_seeds = sub_seeds(seed)
        if self.wall_paced and seconds is not None:
            self.duration = float(seconds)

    # ------------------------------------------------------------ the passes

    def construct(self, k: int, log: Optional[SpanLog] = None
                  ) -> LiveService:
        loop: asyncio.AbstractEventLoop
        if self.virtual:
            loop = (TracedVirtualLoop(log, WIRE_LATENCY)
                    if log is not None else VirtualLoop(WIRE_LATENCY))
        else:
            loop = (TracedSocketLoop(log) if log is not None
                    else asyncio.SelectorEventLoop())
        service = loop.run_until_complete(
            StreamingService.start(ServiceConfig(qa=SERVICE_QA)))
        fleet = LoadFleet(
            "127.0.0.1", service.port, sessions=self.sessions,
            duration=self.duration, spread=SPREAD,
            seed=self._fleet_seeds[k],
            impairment=IMPAIRMENT if self.virtual else None)
        return LiveService(loop, service, fleet, log)

    async def _drive(self, live: LiveService) -> None:
        heartbeat = None
        if live.log is not None and self.wall_paced:
            heartbeat = asyncio.ensure_future(
                _heartbeat(live.heartbeat_lags))
        live.results = await live.fleet.run()
        if heartbeat is not None:
            heartbeat.cancel()
            await asyncio.gather(heartbeat, return_exceptions=True)
        live.counters = dict(live.service.counters)
        live.feedback_latencies = live.service.feedback_latencies
        await live.service.close()
        live.leaked_tasks = len(asyncio.all_tasks()) - 1

    def run(self, live: LiveService) -> None:
        log = live.log
        cpu0, t0 = time.process_time(), time.perf_counter()
        if log is not None:
            log.begin(log.name("asyncio.loop:run"))
        try:
            live.loop.run_until_complete(self._drive(live))
        finally:
            if log is not None:
                log.end()
            live.loop.close()
        live.cpu_s = time.process_time() - cpu0
        live.wall_s = time.perf_counter() - t0

    # -------------------------------------------------------------- collect

    def collect(self, live: LiveService) -> PassReport:
        quality = Quality()
        behaviour = []
        decisions = []
        for index, result in enumerate(live.results):
            summary = result.server_summary
            metrics = metrics_from_summary(summary)
            # The server's session clock and the fleet's both start at
            # loop time ~0; session i says HELLO SPREAD*i/N later.
            start = SPREAD * index / self.sessions
            quality.add_session(
                [t for t, _ in metrics.adds],
                [e.time for e in metrics.drops],
                [e.efficiency for e in metrics.drops],
                start=start, end=start + self.duration,
                stall_seconds=result.playout.stall_time)
            decisions.append([result.label, metrics.adds,
                              [[e.time, e.layer, e.cause.value]
                               for e in metrics.drops]])
            behaviour.append([
                result.label, result.bytes_received,
                result.packets_received, result.acks_sent,
                result.dropped_random, result.dropped_backlog,
                summary.get("sent_per_layer"), summary.get("backoffs"),
                summary.get("packets_lost"), result.playout.stall_time])
        counters = live.counters
        not_ok = [r for r in live.results if not r.ok]
        problems = [f"{r.label}: {r.error}" for r in not_ok]
        if counters.get("sessions_completed") != self.sessions:
            problems.append(
                f"sessions_completed={counters.get('sessions_completed')}"
                f", expected {self.sessions}")
        for name in ("sessions_expired", "sessions_rejected",
                     "malformed_frames", "queue_drops"):
            if counters.get(name):
                problems.append(f"{name}={counters[name]}, expected 0")
        if live.leaked_tasks:
            problems.append(
                f"{live.leaked_tasks} tasks alive after close()")
        report = PassReport(
            stream_seconds=self.sessions * self.duration,
            quality=quality,
            digest=digest_of([behaviour, decisions]),
            decisions=digest_of(decisions),
            attempted=self.sessions,
            failed=max(len(not_ok),
                       counters.get("sessions_expired", 0)
                       + counters.get("sessions_rejected", 0)),
            problems=[f"{self.name}: {p}" for p in problems],
        )
        if live.log is not None:
            report.counters = self._counters(live)
        return report

    def _counters(self, live: LiveService) -> dict[str, float]:
        tracer = live.loop.tracer  # type: ignore[attr-defined]
        sent = tracer.frames_sent
        counters = live.counters
        summaries = [r.server_summary for r in live.results]
        out: dict[str, float] = {
            "service.protocol.datagrams_data": sent[protocol.DATA],
            "service.protocol.datagrams_ack": sent[protocol.ACK],
            "service.protocol.datagrams_ctrl":
                sum(sent) - sent[protocol.DATA] - sent[protocol.ACK],
            "service.protocol.malformed": counters["malformed_frames"],
            "service.pacing.backoffs":
                sum(s.get("backoffs", 0) for s in summaries),
            "service.pacing.packets_lost":
                sum(s.get("packets_lost", 0) for s in summaries),
            "service.pacing.timeouts": sum(
                s.pacer.timeouts for s in tracer.sessions.values()),
            "service.server.queue_drops": counters["queue_drops"],
            "service.server.sessions_expired":
                counters["sessions_expired"],
            "service.server.sessions_rejected":
                counters["sessions_rejected"],
            "asyncio.loop.timers_scheduled": tracer.timers_scheduled,
            "core.adapter.idle_picks": tracer.idle_picks[0],
        }
        pooled = [metrics_from_summary(s) for s in summaries]
        drops = [e for m in pooled for e in m.drops]
        out["core.adapter.adds"] = sum(len(m.adds) for m in pooled)
        out["core.adapter.drops"] = len(drops)
        out["core.adapter.poor_distribution_share"] = (
            sum(e.poor_distribution for e in drops) / len(drops)
            if drops else 0.0)
        return out

    # ---------------------------------------------------------- per layer

    def layer_metrics(self, live: LiveService, report: PassReport,
                      traced_wall: float) -> dict[str, float]:
        log = live.log
        assert log is not None
        tracer = live.loop.tracer  # type: ignore[attr-defined]
        selector = live.loop.selector  # type: ignore[attr-defined]
        stats = log.aggregate()
        layer_self = layer_self_seconds(stats)
        out = dict(report.counters)
        out.update(adapter_span_metrics(
            log, stats, out["core.adapter.idle_picks"]))

        for what in ("rx", "wakeup"):
            name = f"service.server:{what}"
            out[f"service.server.{what}_busy_s"] = stats[name].total_s
            out.update(p50_p99([1e6 * d for d in log.durations(name)],
                               f"service.server.{what}_us"))
        wakeups = stats["service.server:wakeup"].count
        out["service.server.wakeups"] = wakeups
        out["service.server.wakeups_per_packet"] = (
            wakeups / max(1.0, out["service.protocol.datagrams_data"]))
        out["service.client.busy_s"] = layer_self.get(
            "service.client", 0.0)
        out["net.sendto_s"] = layer_self.get("net", 0.0)
        out["asyncio.loop.self_s"] = (
            layer_self.get("asyncio.loop", 0.0) - selector.waited_s)
        out["asyncio.loop.iterations"] = len(selector.busy)
        out.update(p50_p99([1e6 * b for b in selector.busy],
                           "asyncio.loop.iter_us"))
        if self.wall_paced:
            out.update(self._wall_clock_metrics(live))
        out["trace.spans"] = len(log)
        attributed = sum(v for k, v in layer_self.items() if k != "other")
        out["trace.attributed_share"] = (
            (attributed - selector.waited_s)
            / (traced_wall - selector.waited_s))
        return out

    @staticmethod
    def _wall_clock_metrics(live: LiveService) -> dict[str, float]:
        """Numbers that only mean something on real sockets and timers."""
        out: dict[str, float] = {
            "asyncio.loop.cpu_share": live.cpu_s / live.wall_s,
            "service.server.feedback_acks": len(live.feedback_latencies),
        }
        out.update(p50_p99([1e3 * s for s in live.feedback_latencies],
                           "service.server.feedback_ms"))
        srtt_ms = [1e3 * r.server_summary["srtt"] for r in live.results
                   if "srtt" in r.server_summary]
        # Sixteen sessions cannot support a percentile by the ten-beyond
        # rule; the median of sixteen is reported as what it is.
        if srtt_ms:
            out["service.server.srtt_ms_p50"] = sorted(srtt_ms)[
                (len(srtt_ms) - 1) // 2]
        lag = percentile_or_none(
            [1e3 * s for s in live.heartbeat_lags], 0.99)
        if lag is not None:
            out["asyncio.loop.lag_ms_p99"] = lag
        return out

    def self_check(self) -> list[str]:
        """The session core replayed from a tape reproduces the live
        decision log."""
        return replay_drive(SERVICE_QA, repeats=1)[1]

    def drives(self, base_wall: float, live: LiveService
               ) -> tuple[dict[str, float], list[str]]:
        out, problems = replay_drive(SERVICE_QA)
        out["service.pacing.us_per_packet"] = pacer_drive(
            SERVICE_QA.packet_size)
        captured = live.loop.tracer.captured  # type: ignore[attr-defined]
        out.update(protocol_drive(captured[protocol.DATA],
                                  captured[protocol.ACK]))
        return out, problems
