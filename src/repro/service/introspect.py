"""Live HTTP introspection for a running :class:`StreamingService`.

A tiny stdlib-asyncio HTTP/1.1 listener that shares the service's event
loop and answers three read-only endpoints while sessions stream:

- ``GET /metrics``  — the service's
  :class:`~repro.telemetry.metrics.MetricsRegistry` in the Prometheus
  text exposition format (404 when the service runs without metrics).
- ``GET /sessions`` — a JSON snapshot of every live session: adapter
  layer count, pacer rate and srtt, the server-side buffer estimate,
  send/drop counters and the session's trace id, plus service-level
  counters and span-recorder occupancy.
- ``GET /healthz``  — 200 when the service is accepting traffic and the
  loop sanitizer (when attached) is inside its lag budget, 503
  otherwise; the body carries the sanitizer's live report either way.

Everything is computed on demand from live objects — no background
task, no state of its own. ``/sessions`` settles each session to the
request's instant before reading it (a session runs its steps, polls
and ticks lazily); settling runs only what was already due, each at its
own instant, so attaching the listener never perturbs pacing. Each connection serves one request and closes (``Connection:
close``), which keeps the handler free of keep-alive bookkeeping.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.sanitizer import LoopSanitizer
    from repro.service.server import StreamingService

#: Longest request head (request line + headers) we bother reading.
_MAX_HEAD = 8192
_PROM_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_JSON_TYPE = "application/json; charset=utf-8"

_JSON_SEPARATORS = (",", ":")


def _json_bytes(payload: dict) -> bytes:
    # One small document per introspection request; never the data path.
    return json.dumps(payload, sort_keys=True,
                      separators=_JSON_SEPARATORS).encode()


class IntrospectionServer:
    """Serves ``/metrics``, ``/sessions`` and ``/healthz`` for a service.

    Usage::

        introspect = await IntrospectionServer.start(service, port=0)
        ... curl http://127.0.0.1:{introspect.port}/metrics ...
        await introspect.close()

    Args:
        service: the :class:`~repro.service.server.StreamingService`
            being introspected (must outlive this listener).
        sanitizer: optional :class:`~repro.service.sanitizer.
            LoopSanitizer`; its live lag report feeds ``/healthz``.
        max_lag_p99: when set, ``/healthz`` degrades to 503 once the
            sanitizer's p99 callback lag exceeds this many seconds.
    """

    def __init__(self, service: "StreamingService",
                 sanitizer: Optional["LoopSanitizer"] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 max_lag_p99: Optional[float] = None) -> None:
        self.service = service
        self.sanitizer = sanitizer
        self.host = host
        self._port = port
        self.max_lag_p99 = max_lag_p99
        self.requests_served = 0
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------ lifecycle

    @classmethod
    async def start(cls, service: "StreamingService",
                    sanitizer: Optional["LoopSanitizer"] = None,
                    host: str = "127.0.0.1", port: int = 0,
                    max_lag_p99: Optional[float] = None,
                    ) -> "IntrospectionServer":
        """Bind the listener on the running loop and return it."""
        self = cls(service, sanitizer=sanitizer, host=host, port=port,
                   max_lag_p99=max_lag_p99)
        self._server = await asyncio.start_server(
            self._handle, host=host, port=port)
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` to the real one)."""
        if self._server is not None and self._server.sockets:
            return int(self._server.sockets[0].getsockname()[1])
        return self._port

    async def close(self) -> None:
        # Detach before the await so a concurrent close sees None.
        server, self._server = self._server, None
        if server is None:
            return
        server.close()
        await server.wait_closed()

    # ------------------------------------------------------------- handler

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                ConnectionError):
            writer.close()
            return
        if len(head) > _MAX_HEAD:
            await self._respond(writer, 400, _JSON_TYPE,
                                _json_bytes({"error": "request too large"}))
            return
        request_line = head.split(b"\r\n", 1)[0].decode(
            "latin-1", "replace")
        parts = request_line.split()
        if len(parts) != 3 or parts[0] != "GET":
            await self._respond(writer, 405, _JSON_TYPE,
                                _json_bytes({"error": "GET only"}))
            return
        path = parts[1].split("?", 1)[0]
        status, ctype, body = self._dispatch(path)
        self.requests_served += 1
        await self._respond(writer, status, ctype, body)

    def _dispatch(self, path: str) -> tuple[int, str, bytes]:
        if path == "/metrics":
            return self._metrics()
        if path == "/sessions":
            return 200, _JSON_TYPE, _json_bytes(self.sessions_snapshot())
        if path == "/healthz":
            ok, report = self.health()
            return (200 if ok else 503), _JSON_TYPE, _json_bytes(report)
        return 404, _JSON_TYPE, _json_bytes(
            {"error": f"no such endpoint: {path}",
             "endpoints": ["/metrics", "/sessions", "/healthz"]})

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       ctype: str, body: bytes) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed",
                  503: "Service Unavailable"}.get(status, "OK")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1"))
        writer.write(body)
        try:
            await writer.drain()
        except ConnectionError:
            pass
        writer.close()

    # ----------------------------------------------------------- endpoints

    def _metrics(self) -> tuple[int, str, bytes]:
        metrics = self.service.metrics
        if metrics is None:
            return 404, _JSON_TYPE, _json_bytes(
                {"error": "service runs without a metrics registry"})
        return 200, _PROM_TYPE, metrics.to_prometheus().encode()

    def sessions_snapshot(self) -> dict:
        """The live per-session state at ``now``, JSON-shaped."""
        service = self.service
        now = service.now()
        sessions = []
        for session_id in sorted(service.sessions):
            session = service.sessions[session_id]
            session.settle(now)
            adapter = session.core.adapter
            active = adapter.active_layers
            sessions.append({
                "id": session_id,
                "label": session.label,
                "age": round(now - session.started, 6),
                "active_layers": active,
                "rate": round(session.pacer.rate, 3),
                "srtt": round(session.pacer.srtt, 6),
                "buffered_bytes": round(
                    adapter.buffers.total(active), 3),
                "data_sent": session.data_sent,
                "queue_drops": session.queue_drops,
                "done": session.done,
                "trace_id": (session.trace.trace_id
                             if session.trace is not None else None),
            })
        snapshot: dict = {
            "now": round(now, 6),
            "sessions": sessions,
            "counters": dict(service.counters),
        }
        spans = service.spans
        if spans is not None:
            snapshot["spans"] = {
                "buffered": len(spans),
                "recorded": spans.total_recorded,
                "evicted": spans.evicted,
            }
        return snapshot

    def health(self) -> tuple[bool, dict]:
        """(healthy?, report) — the gate behind ``/healthz``."""
        service = self.service
        serving = service.serving
        report: dict = {
            "serving": serving,
            "sessions": len(service.sessions),
        }
        ok = serving
        if self.sanitizer is not None:
            sanitizer_report = self.sanitizer.report()
            report["sanitizer"] = sanitizer_report
            if (self.max_lag_p99 is not None
                    and sanitizer_report["lag_samples"] > 0
                    and sanitizer_report["lag_p99"] > self.max_lag_p99):
                ok = False
        report["ok"] = ok
        return ok, report
