"""Live introspection endpoints: /metrics, /sessions, /healthz."""

import asyncio
import json

from repro.core.config import QAConfig
from repro.service.client import LoadFleet
from repro.service.introspect import IntrospectionServer
from repro.service.sanitizer import LoopSanitizer
from repro.service.server import ServiceConfig, StreamingService

from tests.service.census import close_and_census

QA = QAConfig(layer_rate=4000.0, max_layers=3, packet_size=200,
              startup_delay=0.5, max_buffer_seconds=4.0)


def service_config(**kw):
    kw.setdefault("qa", QA)
    return ServiceConfig(**kw)


async def fetch(port, path, method="GET"):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, body


def check_prometheus_exposition(text):
    """Every line is a comment or a ``name{labels} value`` sample."""
    families = 0
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE"):
            families += 1
            continue
        if line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        assert name_part, f"sample line without a value: {line!r}"
        float(value)  # the sample value must parse
    assert families > 0, "no metric families in exposition"


class TestEndpoints:
    def test_metrics_serves_prometheus_exposition(self):
        async def run():
            service = await StreamingService.start(
                service_config(collect_metrics=True))
            intro = await IntrospectionServer.start(service)
            try:
                fleet = LoadFleet("127.0.0.1", service.port,
                                  sessions=2, duration=0.8, spread=0.1)
                task = asyncio.create_task(fleet.run())
                await asyncio.sleep(0.4)
                status, headers, body = await fetch(
                    intro.port, "/metrics")
                await task
            finally:
                await intro.close()
                await close_and_census(service)
            return status, headers, body

        status, headers, body = asyncio.run(run())
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        text = body.decode()
        check_prometheus_exposition(text)
        assert "service_acks_received_total" in text

    def test_metrics_404_without_a_registry(self):
        async def run():
            service = await StreamingService.start(service_config())
            intro = await IntrospectionServer.start(service)
            try:
                return await fetch(intro.port, "/metrics")
            finally:
                await intro.close()
                await close_and_census(service)

        status, _, body = asyncio.run(run())
        assert status == 404
        assert "metrics" in json.loads(body)["error"]

    def test_sessions_snapshot_schema(self):
        async def run():
            service = await StreamingService.start(
                service_config(trace_spans=True))
            intro = await IntrospectionServer.start(service)
            try:
                fleet = LoadFleet("127.0.0.1", service.port,
                                  sessions=2, duration=1.0,
                                  spread=0.1, trace_spans=True)
                task = asyncio.create_task(fleet.run())
                await asyncio.sleep(0.6)
                status, headers, body = await fetch(
                    intro.port, "/sessions")
                await task
            finally:
                await intro.close()
                await close_and_census(service)
            return status, headers, body

        status, headers, body = asyncio.run(run())
        assert status == 200
        assert headers["content-type"].startswith("application/json")
        snap = json.loads(body)
        assert set(snap) >= {"now", "sessions", "counters", "spans"}
        assert len(snap["sessions"]) == 2
        for entry in snap["sessions"]:
            assert set(entry) == {
                "id", "label", "age", "active_layers", "rate", "srtt",
                "buffered_bytes", "data_sent", "queue_drops", "done",
                "trace_id"}
            assert entry["active_layers"] >= 1
            assert entry["rate"] > 0
            assert entry["buffered_bytes"] >= 0
            assert isinstance(entry["trace_id"], str)
        assert snap["spans"]["recorded"] > 0
        assert snap["counters"]["sessions_started"] == 2

    def test_healthz_green_while_serving(self):
        async def run():
            service = await StreamingService.start(service_config())
            sanitizer = LoopSanitizer()
            await sanitizer.start()
            intro = await IntrospectionServer.start(
                service, sanitizer=sanitizer, max_lag_p99=10.0)
            try:
                await asyncio.sleep(0.3)  # accumulate lag samples
                return await fetch(intro.port, "/healthz")
            finally:
                await intro.close()
                await sanitizer.stop()
                await close_and_census(service)

        status, _, body = asyncio.run(run())
        assert status == 200
        report = json.loads(body)
        assert report["ok"] is True
        assert report["serving"] is True
        assert report["sanitizer"]["lag_samples"] > 0

    def test_healthz_degrades_on_lag_budget_breach(self):
        async def run():
            service = await StreamingService.start(service_config())
            sanitizer = LoopSanitizer()
            # Forged lag history: the gate reads report() output, so
            # injecting samples tests the 503 path deterministically.
            sanitizer.lag_samples.extend([0.5] * 20)
            intro = await IntrospectionServer.start(
                service, sanitizer=sanitizer, max_lag_p99=0.001)
            try:
                return await fetch(intro.port, "/healthz")
            finally:
                await intro.close()
                await close_and_census(service)

        status, _, body = asyncio.run(run())
        assert status == 503
        assert json.loads(body)["ok"] is False

    def test_unknown_path_404_lists_endpoints(self):
        async def run():
            service = await StreamingService.start(service_config())
            intro = await IntrospectionServer.start(service)
            try:
                return await fetch(intro.port, "/debug/pprof")
            finally:
                await intro.close()
                await close_and_census(service)

        status, _, body = asyncio.run(run())
        assert status == 404
        assert json.loads(body)["endpoints"] == [
            "/metrics", "/sessions", "/healthz"]

    def test_non_get_is_405(self):
        async def run():
            service = await StreamingService.start(service_config())
            intro = await IntrospectionServer.start(service)
            try:
                return await fetch(intro.port, "/metrics",
                                   method="POST")
            finally:
                await intro.close()
                await close_and_census(service)

        status, _, _ = asyncio.run(run())
        assert status == 405

    def test_listener_counts_requests_and_closes_cleanly(self):
        async def run():
            service = await StreamingService.start(service_config())
            intro = await IntrospectionServer.start(service)
            try:
                for _ in range(3):
                    await fetch(intro.port, "/healthz")
            finally:
                await intro.close()
                await close_and_census(service)
            return intro.requests_served

        assert asyncio.run(run()) == 3
