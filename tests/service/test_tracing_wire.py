"""Distributed-trace context propagation across the service wire.

Each test drives its own event loop via ``asyncio.run`` (no
pytest-asyncio in the toolchain), mirroring test_loopback.py.
"""

import asyncio

import pytest

from repro.core.config import QAConfig
from repro.service import protocol
from repro.service.client import LoadFleet
from repro.service.server import ServiceConfig, StreamingService
from repro.telemetry.tracing import TraceContext, merge_spans

from tests.service.census import close_and_census

QA = QAConfig(layer_rate=4000.0, max_layers=3, packet_size=200,
              startup_delay=0.5, max_buffer_seconds=4.0)


def service_config(**kw):
    kw.setdefault("qa", QA)
    return ServiceConfig(**kw)


class _Probe(asyncio.DatagramProtocol):
    def __init__(self):
        self.frames = []
        self.transport = None

    def connection_made(self, transport):
        self.transport = transport

    def datagram_received(self, data, addr):
        self.frames.append(protocol.decode(data))

    def of(self, cls):
        return [f for f in self.frames if isinstance(f, cls)]


async def _probe(port):
    loop = asyncio.get_running_loop()
    _, probe = await loop.create_datagram_endpoint(
        _Probe, remote_addr=("127.0.0.1", port))
    return probe


class TestWireContext:
    def test_hello_frame_round_trips_trace_option(self):
        ctx = TraceContext.derive(5, "wire")
        datagram = protocol.encode_hello(
            7, {protocol.TRACE_KEY: ctx.to_wire()})
        frame = protocol.decode(datagram)
        assert isinstance(frame, protocol.HelloFrame)
        assert TraceContext.from_wire(frame.options) == ctx

    def test_untraced_hello_has_no_trace_key(self):
        frame = protocol.decode(protocol.encode_hello(7, {}))
        assert protocol.TRACE_KEY not in frame.options

    def test_welcome_echoes_client_context(self):
        async def run():
            service = await StreamingService.start(
                service_config(trace_spans=True))
            try:
                probe = await _probe(service.port)
                ctx = TraceContext.derive(1, "probe")
                probe.transport.sendto(protocol.encode_hello(
                    1, {protocol.TRACE_KEY: ctx.to_wire()}))
                await asyncio.sleep(0.2)
                return ctx, probe.of(protocol.WelcomeFrame), service
            finally:
                await close_and_census(service)

        ctx, welcomes, service = asyncio.run(run())
        assert welcomes
        echoed = TraceContext.from_wire(welcomes[0].config)
        assert echoed == ctx
        assert service.spans is not None
        assert ctx.trace_id in service.spans.trace_ids()

    def test_untraced_client_gets_server_derived_context(self):
        async def run():
            service = await StreamingService.start(
                service_config(trace_spans=True))
            try:
                probe = await _probe(service.port)
                probe.transport.sendto(protocol.encode_hello(2, {}))
                await asyncio.sleep(0.2)
                return probe.of(protocol.WelcomeFrame), service
            finally:
                await close_and_census(service)

        welcomes, service = asyncio.run(run())
        assert welcomes
        echoed = TraceContext.from_wire(welcomes[0].config)
        assert echoed is not None  # derived from the session id
        assert echoed == TraceContext.derive(
            welcomes[0].session_id, "service")

    def test_malformed_trace_option_does_not_kill_the_handshake(self):
        async def run():
            service = await StreamingService.start(
                service_config(trace_spans=True))
            try:
                probe = await _probe(service.port)
                probe.transport.sendto(protocol.encode_hello(
                    3, {protocol.TRACE_KEY: {"trace_id": "bogus"}}))
                await asyncio.sleep(0.2)
                return probe.of(protocol.WelcomeFrame)
            finally:
                await close_and_census(service)

        welcomes = asyncio.run(run())
        assert welcomes  # session established; bad context read as absent

    def test_untraced_service_still_echoes_client_context(self):
        # The echo acknowledges adoption of the client's ids even when
        # the server keeps no span recorder; recording is orthogonal.
        async def run():
            service = await StreamingService.start(service_config())
            try:
                probe = await _probe(service.port)
                ctx = TraceContext.derive(4, "probe")
                probe.transport.sendto(protocol.encode_hello(
                    4, {protocol.TRACE_KEY: ctx.to_wire()}))
                await asyncio.sleep(0.2)
                return probe.of(protocol.WelcomeFrame), service
            finally:
                await close_and_census(service)

        welcomes, service = asyncio.run(run())
        assert welcomes
        assert (TraceContext.from_wire(welcomes[0].config)
                == TraceContext.derive(4, "probe"))
        assert service.spans is None  # nothing was recorded

    def test_untraced_both_ends_omit_trace_from_welcome(self):
        async def run():
            service = await StreamingService.start(service_config())
            try:
                probe = await _probe(service.port)
                probe.transport.sendto(protocol.encode_hello(4, {}))
                await asyncio.sleep(0.2)
                return probe.of(protocol.WelcomeFrame)
            finally:
                await close_and_census(service)

        welcomes = asyncio.run(run())
        assert welcomes
        assert protocol.TRACE_KEY not in welcomes[0].config


class TestEndToEndTraces:
    def test_fleet_and_service_spans_share_trace_ids(self):
        async def run():
            service = await StreamingService.start(
                service_config(trace_spans=True))
            try:
                fleet = LoadFleet(
                    "127.0.0.1", service.port, sessions=3,
                    duration=1.0, spread=0.2, trace_spans=True)
                results = await fleet.run()
            finally:
                await close_and_census(service)
            return results, fleet.spans, service.spans

        results, client_spans, server_spans = asyncio.run(run())
        assert all(r.ok for r in results)
        client_ids = set(client_spans.trace_ids())
        server_ids = set(server_spans.trace_ids())
        assert len(client_ids) == 3
        assert client_ids == server_ids
        # Expected deterministic ids from the fleet seed.
        assert client_ids == {
            TraceContext.derive(0, "fleet", i).trace_id
            for i in range(3)}

        merged = merge_spans(client_spans, server_spans)
        names = {s.name for s in merged}
        assert "client.session" in names
        assert "client.handshake" in names
        assert "client.recv" in names
        assert "session" in names  # server-side lifecycle span
        assert "qa.tick" in names  # server-side adapter spans
        for trace_id in client_ids:
            sources = {s.source for s in merged
                       if s.trace_id == trace_id}
            assert any(src.startswith("load") for src in sources)
            assert any(src.startswith("session") for src in sources)

    def test_client_session_span_carries_totals(self):
        async def run():
            service = await StreamingService.start(
                service_config(trace_spans=True))
            try:
                fleet = LoadFleet(
                    "127.0.0.1", service.port, sessions=1,
                    duration=1.0, spread=0.0, trace_spans=True)
                results = await fleet.run()
            finally:
                await close_and_census(service)
            return results, fleet.spans

        results, spans = asyncio.run(run())
        (result,) = results
        assert result.ok
        (session_span,) = spans.spans_of(name="client.session")
        assert session_span.fields["bytes"] == result.bytes_received
        assert session_span.fields["acks"] == result.acks_sent
        assert session_span.fields["error"] is None

    def test_tracing_off_records_nothing_anywhere(self):
        async def run():
            service = await StreamingService.start(service_config())
            try:
                fleet = LoadFleet(
                    "127.0.0.1", service.port, sessions=2,
                    duration=0.6, spread=0.1)
                results = await fleet.run()
            finally:
                await close_and_census(service)
            return results, fleet.spans, service.spans

        results, client_spans, server_spans = asyncio.run(run())
        assert all(r.ok for r in results)
        assert not client_spans.enabled
        assert len(client_spans) == 0
        assert server_spans is None
        assert merge_spans(client_spans, server_spans) == []
