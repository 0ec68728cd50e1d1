"""End-to-end loopback integration: server + fleet on real sockets.

No pytest-asyncio in the toolchain; each test drives its own event
loop through ``asyncio.run`` and ends with the task census.
"""

import asyncio

import pytest

from repro.core.config import QAConfig
from repro.service import protocol
from repro.service.client import LoadFleet, metrics_from_summary
from repro.service.impairment import ImpairmentConfig
from repro.service.results import fleet_result, render_fleet_report
from repro.service.server import ServiceConfig, StreamingService

from tests.service.census import close_and_census

#: A small, fast profile: 3 layers at 4 KB/s, 200-byte packets.
QA = QAConfig(layer_rate=4000.0, max_layers=3, packet_size=200,
              startup_delay=0.5, max_buffer_seconds=4.0)


def service_config(**kw):
    kw.setdefault("qa", QA)
    return ServiceConfig(**kw)


async def _serve_fleet(config, **fleet_kw):
    service = await StreamingService.start(config)
    try:
        fleet = LoadFleet("127.0.0.1", service.port, **fleet_kw)
        results = await fleet.run()
    finally:
        await close_and_census(service)
    return service, results


class _Probe(asyncio.DatagramProtocol):
    """A raw frame-level client for protocol-edge tests."""

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


class TestEndToEnd:
    def test_fleet_streams_cleanly_on_unimpaired_loopback(self):
        async def run():
            return await _serve_fleet(
                service_config(), sessions=4, duration=2.0, spread=0.3)

        service, results = asyncio.run(run())
        assert [r.error for r in results] == [None] * 4
        assert all(r.bytes_received > 0 for r in results)
        assert sum(r.playout.stall_count for r in results) == 0
        assert service.counters["sessions_started"] == 4
        assert service.counters["sessions_completed"] == 4
        assert service.sessions == {}

    def test_summary_rebuilds_adapter_metrics(self):
        async def run():
            return await _serve_fleet(
                service_config(), sessions=1, duration=2.0, spread=0.0)

        _, results = asyncio.run(run())
        summary = results[0].server_summary
        metrics = metrics_from_summary(summary)
        assert len(metrics.adds) == len(summary["adds"])
        # A 2s unimpaired run climbs off the base layer.
        assert summary["active_layers"] >= 2
        session_result = results[0].to_session_result()
        assert session_result.telemetry_enabled
        assert session_result.summary()["mean_layers"] > 0

    def test_results_flow_through_scenario_shapes(self):
        async def run():
            return await _serve_fleet(
                service_config(), sessions=3, duration=2.0, spread=0.2)

        _, results = asyncio.run(run())
        scenario = fleet_result(results, duration=2.0)
        assert len(scenario.qa_flows()) == 3
        assert 0.9 < scenario.fairness <= 1.0
        report = render_fleet_report(results, 2.0, scenario=scenario)
        assert "per-session QoE" in report
        for flow in scenario.flows:
            assert flow.mean_layers() > 0

    def test_impaired_fleet_reports_losses(self):
        async def run():
            return await _serve_fleet(
                service_config(), sessions=2, duration=2.5, spread=0.2,
                impairment=ImpairmentConfig(loss_rate=0.05), seed=11)

        service, results = asyncio.run(run())
        assert all(r.ok for r in results)
        assert sum(r.dropped_random for r in results) > 0


class TestProtocolEdges:
    def test_server_full_rejects_with_reason(self):
        async def run():
            service = await StreamingService.start(
                service_config(max_sessions=1))
            try:
                fleet = LoadFleet("127.0.0.1", service.port,
                                  sessions=2, duration=1.0, spread=0.0)
                return service, await fleet.run()
            finally:
                await close_and_census(service)

        service, results = asyncio.run(run())
        errors = sorted(str(r.error) for r in results)
        assert errors[0] == "None"
        assert "rejected: server full" in errors[1]
        assert service.counters["sessions_rejected"] == 1

    def test_duplicate_hello_reuses_the_session(self):
        async def run():
            service = await StreamingService.start(service_config())
            probe = await _probe(service.port)
            try:
                probe.transport.sendto(protocol.encode_hello(1, {}))
                probe.transport.sendto(protocol.encode_hello(1, {}))
                await asyncio.sleep(0.2)
            finally:
                probe.transport.close()
                await close_and_census(service)
            return service, probe

        service, probe = asyncio.run(run())
        welcomes = probe.of(protocol.WelcomeFrame)
        assert len(welcomes) == 2
        assert welcomes[0].session_id == welcomes[1].session_id
        assert service.counters["sessions_started"] == 1

    def test_malformed_datagrams_are_counted_not_fatal(self):
        async def run():
            service = await StreamingService.start(service_config())
            probe = await _probe(service.port)
            try:
                probe.transport.sendto(b"garbage-not-a-frame")
                probe.transport.sendto(protocol.encode_hello(1, {}))
                await asyncio.sleep(0.2)
            finally:
                probe.transport.close()
                await close_and_census(service)
            return service, probe

        service, probe = asyncio.run(run())
        assert service.counters["malformed_frames"] == 1
        assert len(probe.of(protocol.WelcomeFrame)) == 1  # still alive

    def test_idle_session_is_reaped(self):
        async def run():
            service = await StreamingService.start(
                service_config(session_timeout=0.4))
            probe = await _probe(service.port)
            try:
                probe.transport.sendto(protocol.encode_hello(1, {}))
                await asyncio.sleep(1.2)  # never ACK anything
            finally:
                probe.transport.close()
                await close_and_census(service)
            return service

        service = asyncio.run(run())
        assert service.counters["sessions_expired"] == 1
        assert service.sessions == {}

    def test_fin_for_unknown_session_is_reacked(self):
        async def run():
            service = await StreamingService.start(service_config())
            probe = await _probe(service.port)
            try:
                probe.transport.sendto(protocol.encode_fin(999))
                await asyncio.sleep(0.2)
            finally:
                probe.transport.close()
                await close_and_census(service)
            return probe

        probe = asyncio.run(run())
        fin_acks = probe.of(protocol.FinAckFrame)
        assert len(fin_acks) == 1
        assert fin_acks[0].summary == {}

    def test_welcome_advertises_the_session_profile(self):
        async def run():
            service = await StreamingService.start(service_config())
            probe = await _probe(service.port)
            try:
                probe.transport.sendto(protocol.encode_hello(1, {}))
                await asyncio.sleep(0.2)
            finally:
                probe.transport.close()
                await close_and_census(service)
            return probe

        probe = asyncio.run(run())
        (welcome,) = probe.of(protocol.WelcomeFrame)
        assert welcome.config["layer_rate"] == QA.layer_rate
        assert welcome.config["max_layers"] == QA.max_layers
        assert welcome.config["packet_size"] == QA.packet_size


class TestObservability:
    def test_recorder_and_metrics_capture_the_run(self):
        async def run():
            config = service_config(record_decisions=True,
                                    collect_metrics=True)
            return await _serve_fleet(
                config, sessions=2, duration=2.0, spread=0.2)

        service, results = asyncio.run(run())
        assert all(r.ok for r in results)
        assert service.decisions_recorded > 0
        kinds = {rec.kind for rec in service.recorder}
        assert "add" in kinds
        text = service.metrics.to_prometheus()
        assert "service_sessions_started_total 2" in text
        assert "service_feedback_latency_seconds" in text
        assert service.feedback_latencies

    def test_metrics_off_by_default(self):
        async def run():
            return await _serve_fleet(
                service_config(), sessions=1, duration=1.0, spread=0.0)

        service, _ = asyncio.run(run())
        assert service.metrics is None
        assert service.recorder is None
        assert service.decisions_recorded == 0


class TestServiceConfigValidation:
    def test_packet_size_must_fit_the_data_header(self):
        with pytest.raises(ValueError, match="packet_size"):
            ServiceConfig(qa=QAConfig(packet_size=8))

    def test_max_rate_scales_with_the_profile(self):
        config = service_config(rate_headroom=2.0)
        assert config.max_rate == 2.0 * QA.max_layers * QA.layer_rate
