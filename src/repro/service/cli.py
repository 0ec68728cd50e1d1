"""``repro-serve`` / ``repro-load`` console entry points.

``repro-serve`` binds the asyncio streaming service and runs until its
``--duration`` elapses (or forever with 0, until interrupted).

``repro-load`` drives a fleet of concurrent load sessions against a
running server — or, with ``--self-serve``, starts an in-process server
on an ephemeral loopback port first, which is how CI soaks the service
in one command with no port coordination. The fleet's outcome flows
through the same report path simulated scenarios use (per-session QoE
plus aggregate Jain fairness), with optional JSON output for gating.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
from typing import Optional, Sequence

from repro.core.config import QAConfig
from repro.service.client import LoadFleet
from repro.service.impairment import ImpairmentConfig
from repro.service.introspect import IntrospectionServer
from repro.service.results import (fleet_result, fleet_summary,
                                   render_fleet_report)
from repro.service.sanitizer import LoopSanitizer
from repro.service.server import ServiceConfig, StreamingService
from repro.telemetry.digest import percentile
from repro.telemetry.exporters import export_chrome_trace
from repro.telemetry.tracing import merge_spans


def _qa_from_args(args: argparse.Namespace) -> QAConfig:
    return QAConfig(
        layer_rate=args.layer_rate,
        max_layers=args.max_layers,
        packet_size=args.packet_size,
        max_buffer_seconds=args.max_buffer,
    )


def _add_qa_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--layer-rate", type=float, default=2500.0,
                        help="per-layer consumption C in bytes/s")
    parser.add_argument("--max-layers", type=int, default=8)
    parser.add_argument("--packet-size", type=int, default=1000)
    parser.add_argument("--max-buffer", type=float, default=8.0,
                        help="receiver flow-control cap in seconds")


def _service_config(args: argparse.Namespace,
                    port: Optional[int] = None) -> ServiceConfig:
    # /metrics needs a registry even when no --metrics-out file is due.
    collect = (getattr(args, "metrics_out", None) is not None
               or getattr(args, "introspect", None) is not None)
    return ServiceConfig(
        host=args.host,
        port=args.port if port is None else port,
        qa=_qa_from_args(args),
        max_sessions=args.max_sessions,
        record_decisions=getattr(args, "flight", None) is not None,
        collect_metrics=collect,
        trace_spans=getattr(args, "trace", None) is not None,
    )


def _write_service_outputs(service: StreamingService,
                           args: argparse.Namespace) -> None:
    if getattr(args, "flight", None) and service.recorder is not None:
        service.recorder.write_jsonl(pathlib.Path(args.flight))
    if getattr(args, "metrics_out", None) and service.metrics is not None:
        pathlib.Path(args.metrics_out).write_text(
            service.metrics.to_prometheus())


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="PATH",
                        help="record distributed-tracing spans and "
                             "write a Chrome trace-event JSON on exit "
                             "(open in ui.perfetto.dev)")
    parser.add_argument("--introspect", type=int, default=None,
                        metavar="PORT",
                        help="serve live /metrics, /sessions and "
                             "/healthz over HTTP on this port "
                             "(0 = ephemeral; implies a metrics "
                             "registry)")


# ------------------------------------------------------------------ serve


def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="asyncio layered-video streaming server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9653)
    parser.add_argument("--duration", type=float, default=0.0,
                        help="seconds to serve; 0 = until interrupted")
    parser.add_argument("--max-sessions", type=int, default=512)
    _add_qa_args(parser)
    parser.add_argument("--flight", metavar="PATH",
                        help="write adapter decision JSONL on exit")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write Prometheus metrics text on exit")
    _add_observability_args(parser)
    parser.add_argument("--quiet", action="store_true")
    return parser


async def _serve(args: argparse.Namespace,
                 started: list[StreamingService]) -> int:
    service = await StreamingService.start(_service_config(args))
    started.append(service)
    introspect: Optional[IntrospectionServer] = None
    sanitizer: Optional[LoopSanitizer] = None
    if args.introspect is not None:
        # The listener gets its own sanitizer so /healthz always has
        # live lag data, even without an explicit soak harness.
        sanitizer = LoopSanitizer(metrics=service.metrics)
        await sanitizer.start()
        introspect = await IntrospectionServer.start(
            service, sanitizer=sanitizer,
            host=args.host, port=args.introspect)
    if not args.quiet:
        print(f"repro-serve: listening on "
              f"{args.host}:{service.port}", flush=True)
        if introspect is not None:
            print(f"repro-serve: introspection on "
                  f"http://{args.host}:{introspect.port}", flush=True)
    try:
        if args.duration > 0:
            await asyncio.sleep(args.duration)
        else:
            await asyncio.Event().wait()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        if introspect is not None:
            await introspect.close()
        await service.close()
        if sanitizer is not None:
            await sanitizer.stop()
    if not args.quiet:
        print(f"repro-serve: {service.counters}", flush=True)
    return 0


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_serve_parser().parse_args(argv)
    # File writes happen here, after the loop has shut down: sync I/O
    # in the coroutine would block the event loop.
    started: list[StreamingService] = []
    try:
        status = asyncio.run(_serve(args, started))
    except KeyboardInterrupt:
        status = 0
    for service in started:
        _write_service_outputs(service, args)
        if args.trace and service.spans is not None:
            export_chrome_trace(pathlib.Path(args.trace),
                                spans=merge_spans(service.spans))
    return status


# ------------------------------------------------------------------- load


def _build_load_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-load",
        description="async load-generator fleet for repro-serve")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9653)
    parser.add_argument("--sessions", type=int, default=10)
    parser.add_argument("--duration", type=float, default=10.0,
                        help="per-session streaming time in seconds")
    parser.add_argument("--spread", type=float, default=1.0,
                        help="stagger session starts across this many s")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--loss", type=float, default=0.0,
                        help="i.i.d. receive loss probability")
    parser.add_argument("--delay", type=float, default=0.0,
                        help="fixed extra one-way delay in seconds")
    parser.add_argument("--jitter", type=float, default=0.0,
                        help="uniform extra delay in [0, jitter] s")
    parser.add_argument("--rate-limit", type=float, default=None,
                        help="token-bucket rate in bytes/s")
    parser.add_argument("--self-serve", action="store_true",
                        help="start an in-process server on an "
                             "ephemeral port (single-command soak)")
    parser.add_argument("--max-sessions", type=int, default=512)
    _add_qa_args(parser)
    parser.add_argument("--flight", metavar="PATH",
                        help="with --self-serve: decision JSONL")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="with --self-serve: Prometheus text")
    _add_observability_args(parser)
    parser.add_argument("--out", metavar="PATH",
                        help="write the plain-text report here too")
    parser.add_argument("--json", metavar="PATH",
                        help="write the aggregate summary as JSON")
    parser.add_argument("--expect-zero-stalls", action="store_true",
                        help="exit non-zero if any session stalled "
                             "(CI gate for unimpaired links)")
    parser.add_argument("--sanitize", action="store_true",
                        help="run the event-loop stall sanitizer "
                             "(callback-lag histogram)")
    parser.add_argument("--max-lag-p99", type=float, default=None,
                        metavar="SECONDS",
                        help="with --sanitize: exit non-zero if the "
                             "p99 callback lag exceeds this bound")
    parser.add_argument("--quiet", action="store_true")
    return parser


async def _load(
    args: argparse.Namespace,
) -> tuple[int, str, dict, Optional[StreamingService], LoadFleet]:
    service: Optional[StreamingService] = None
    port = args.port
    if args.self_serve:
        service = await StreamingService.start(
            _service_config(args, port=0))
        port = service.port
    sanitizer: Optional[LoopSanitizer] = None
    # --introspect arms the sanitizer too (like repro-serve) so
    # /healthz always has lag data to gate on.
    if args.sanitize or (args.introspect is not None
                         and service is not None):
        sanitizer = LoopSanitizer(
            metrics=service.metrics if service is not None else None)
        await sanitizer.start()
    introspect: Optional[IntrospectionServer] = None
    if args.introspect is not None and service is None:
        print("repro-load: --introspect needs --self-serve (it "
              "introspects the in-process server); ignoring",
              file=sys.stderr)
    elif args.introspect is not None and service is not None:
        introspect = await IntrospectionServer.start(
            service, sanitizer=sanitizer,
            host=args.host, port=args.introspect,
            max_lag_p99=args.max_lag_p99)
        if not args.quiet:
            print(f"repro-load: introspection on "
                  f"http://{args.host}:{introspect.port}", flush=True)
    fleet = LoadFleet(
        args.host, port,
        sessions=args.sessions,
        duration=args.duration,
        impairment=ImpairmentConfig(
            loss_rate=args.loss,
            delay=args.delay,
            jitter=args.jitter,
            rate_limit=args.rate_limit,
        ),
        seed=args.seed,
        spread=args.spread,
        trace_spans=args.trace is not None,
    )
    try:
        results = await fleet.run()
    finally:
        if introspect is not None:
            await introspect.close()
        if service is not None:
            await service.close()
        # Stop the heartbeat before the task census below.
        if sanitizer is not None:
            await sanitizer.stop()

    scenario = fleet_result(results, args.duration)
    summary = fleet_summary(results, scenario)
    if service is not None:
        lat = service.feedback_latencies
        summary["feedback_p50"] = percentile(lat, 50.0)
        summary["feedback_p99"] = percentile(lat, 99.0)
        summary["queue_drops"] = service.counters["queue_drops"]
        leaked = [t for t in asyncio.all_tasks()
                  if t is not asyncio.current_task()]
        summary["leaked_tasks"] = len(leaked)
    san_report: Optional[dict] = None
    if sanitizer is not None:
        san_report = sanitizer.report()
        summary["lag_p50"] = san_report["lag_p50"]
        summary["lag_p99"] = san_report["lag_p99"]
        summary["lag_max"] = san_report["lag_max"]
        summary["sanitizer_stalls"] = san_report["stalls"]
    report = render_fleet_report(results, args.duration,
                                 scenario=scenario)
    if not args.quiet:
        print(report)

    status = 0
    if summary["failed"]:
        print(f"repro-load: {summary['failed']} sessions failed",
              file=sys.stderr)
        status = 1
    if args.expect_zero_stalls and summary["stalls"]:
        print(f"repro-load: expected zero stalls, saw "
              f"{summary['stalls']}", file=sys.stderr)
        status = 1
    if service is not None and summary["leaked_tasks"]:
        print(f"repro-load: {summary['leaked_tasks']} tasks leaked "
              f"after shutdown", file=sys.stderr)
        status = 1
    if (san_report is not None and args.max_lag_p99 is not None
            and san_report["lag_p99"] > args.max_lag_p99):
        print(f"repro-load: loop lag p99 "
              f"{san_report['lag_p99'] * 1e3:.2f} ms exceeds "
              f"--max-lag-p99 {args.max_lag_p99 * 1e3:.2f} ms",
              file=sys.stderr)
        status = 1
    return status, report, summary, service, fleet


def load_main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_load_parser().parse_args(argv)
    try:
        status, report, summary, service, fleet = asyncio.run(_load(args))
    except KeyboardInterrupt:
        return 1
    # File writes happen here, after the loop has shut down: sync I/O
    # in the coroutine would block the event loop.
    if args.out:
        pathlib.Path(args.out).write_text(report)
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n")
    if service is not None:
        _write_service_outputs(service, args)
    if args.trace:
        # One document holding both halves of every distributed trace:
        # client spans from the fleet recorder, server spans from the
        # service's (when --self-serve ran one in-process).
        spans = (merge_spans(fleet.spans, service.spans)
                 if service is not None else merge_spans(fleet.spans))
        export_chrome_trace(pathlib.Path(args.trace), spans=spans)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(load_main())
