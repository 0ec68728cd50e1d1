"""The transport-agnostic session core: narrowing, taping, replay."""

import sys

import pytest

from repro.core.config import QAConfig
from repro.media.stream import LayeredStream
from repro.server.core import (SessionCore, SessionTape, SessionTransport,
                               TapeReplayTransport)
from repro.server.server import VideoServer
from repro.server.session import StreamingSession
from repro.sim.topology import Dumbbell, DumbbellConfig
from repro.sim.trace import PeriodicSampler
from repro.telemetry import TelemetryBus
from repro.telemetry.recorder import FlightRecorder
from repro.transport import RapSink, RapSource


@pytest.fixture
def config():
    return QAConfig(layer_rate=8_000.0, max_layers=4, k_max=2,
                    packet_size=500)


class TestConfigNarrowing:
    def test_narrowing_is_local_to_the_core(self, sim, config):
        net = Dumbbell(sim, DumbbellConfig(n_pairs=1))
        host, _ = net.pair(0)
        stream = LayeredStream(layer_rate=config.layer_rate, n_layers=2)
        server = VideoServer(sim, host, "c0", config, stream=stream)
        # The effective config narrowed to the stream's layer count...
        assert server.config.max_layers == 2
        # ...on a copy: the caller's object is never rebound or mutated.
        assert server.core.requested_config is config
        assert config.max_layers == 4

    def test_matching_stream_keeps_the_same_config_object(
            self, sim, config):
        core = SessionCore(config, now_fn=lambda: sim.now)
        assert core.config is config

    def test_pacer_shape_satisfies_transport_protocol(self):
        from repro.service.pacing import RapPacer
        pacer = RapPacer(500, now=0.0)
        assert isinstance(pacer, SessionTransport)


class TestTelemetryFlag:
    def _session(self, sim, config, enabled):
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=1, bottleneck_bandwidth=60_000))
        telemetry = None if enabled else TelemetryBus(sim, enabled=False)
        return StreamingSession(sim, *net.pair(0), config,
                                telemetry=telemetry)

    def test_instrumented_summary_keeps_historical_keys(
            self, sim, config):
        session = self._session(sim, config, enabled=True)
        sim.run(until=5.0)
        summary = session.result().summary()
        assert "mean_layers" in summary and "mean_rate" in summary
        assert "telemetry_enabled" not in summary

    def test_headless_summary_says_so_explicitly(self, sim, config):
        session = self._session(sim, config, enabled=False)
        sim.run(until=5.0)
        result = session.result()
        assert result.telemetry_enabled is False
        summary = result.summary()
        assert summary["telemetry_enabled"] is False
        assert "mean_layers" not in summary


class TestTapeReplay:
    def _run_recorded(self, sim, config):
        """A congested sim session recording both tape and decisions."""
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=2, bottleneck_bandwidth=30_000,
            queue_capacity_packets=15))
        src, dst = net.pair(0)
        tape = SessionTape()
        recorder = FlightRecorder()
        # Wire the core to the simulated transport directly (the hook
        # stays on the core only, so the log holds adapter decisions —
        # exactly what a replay reproduces).
        core = SessionCore(config, now_fn=lambda: sim.now,
                           on_event=recorder.hook("qa"), tape=tape)
        rap = RapSource(sim, src, dst.name,
                        packet_size=config.packet_size,
                        payload_picker=core.pick_payload,
                        on_ack=core.on_ack, on_loss=core.on_loss,
                        on_backoff=core.on_backoff)
        core.bind_transport(rap)
        PeriodicSampler(sim, config.drain_period,
                        lambda _now: core.tick())
        RapSink(sim, dst, src.name, rap.flow_id)
        # A competing flow forces backoffs and losses onto the tape.
        bg = RapSource(sim, *[net.pair(1)[0], net.pair(1)[1].name],
                       packet_size=config.packet_size)
        RapSink(sim, net.pair(1)[1], net.pair(1)[0].name, bg.flow_id)
        sim.run(until=15.0)
        return core, tape, recorder

    def test_replay_digest_matches_live_digest(self, sim, config):
        core, tape, live = self._run_recorded(sim, config)
        assert live.total_recorded > 0
        assert len(tape) > 0
        replayed = FlightRecorder()
        SessionCore.replay(tape, config,
                           on_event=replayed.hook("qa"))
        assert replayed.digest() == live.digest()
        assert replayed.total_recorded == live.total_recorded

    def test_replay_reaches_the_same_final_state(self, sim, config):
        core, tape, _ = self._run_recorded(sim, config)
        # Hook-presence must match the recording (the adapter reads the
        # clock when emitting events), so replay with a sink too.
        twin = SessionCore.replay(tape, config,
                                  on_event=FlightRecorder().hook("qa"))
        assert twin.active_layers == core.active_layers
        assert twin.adapter.buffer_levels() == \
            core.adapter.buffer_levels()
        assert len(twin.adapter.metrics.drops) == \
            len(core.adapter.metrics.drops)

    def test_diverging_replay_fails_loudly(self, config):
        tape = SessionTape(calls=[("tick",), ("tick",)],
                           clock=[0.1], rates=[], slopes=[])
        with pytest.raises(IndexError, match="replay diverged"):
            SessionCore.replay(tape, config)

    def test_replaying_an_unrecorded_tape_raises(self, config):
        # An empty tape would replay zero events and "pass".
        with pytest.raises(ValueError, match="empty session tape"):
            SessionCore.replay(SessionTape(), config)

    def test_replay_transport_pops_in_order(self):
        tape = SessionTape(rates=[1.0, 2.0], slopes=[3.0])
        fake = TapeReplayTransport(tape)
        assert fake.rate == 1.0
        assert fake.slope == 3.0
        assert fake.rate == 2.0
        with pytest.raises(IndexError):
            _ = fake.rate


class TestSpanHook:
    """Tracing hooks on the core: spans record, replays stay intact."""

    def _traced_run(self, sim, config, spans):
        from repro.telemetry.tracing import TraceContext
        net = Dumbbell(sim, DumbbellConfig(
            n_pairs=2, bottleneck_bandwidth=30_000,
            queue_capacity_packets=15))
        src, dst = net.pair(0)
        tape = SessionTape()
        recorder = FlightRecorder()
        context = TraceContext.derive(1, "core-test")
        core = SessionCore(
            config, now_fn=lambda: sim.now,
            on_event=recorder.hook("qa"), tape=tape,
            span_hook=(spans.span_hook("qa", context)
                       if spans is not None else None))
        rap = RapSource(sim, src, dst.name,
                        packet_size=config.packet_size,
                        payload_picker=core.pick_payload,
                        on_ack=core.on_ack, on_loss=core.on_loss,
                        on_backoff=core.on_backoff)
        core.bind_transport(rap)
        PeriodicSampler(sim, config.drain_period,
                        lambda _now: core.tick())
        RapSink(sim, dst, src.name, rap.flow_id)
        bg = RapSource(sim, *[net.pair(1)[0], net.pair(1)[1].name],
                       packet_size=config.packet_size)
        RapSink(sim, net.pair(1)[1], net.pair(1)[0].name, bg.flow_id)
        sim.run(until=10.0)
        return core, tape, recorder

    def test_spans_record_ticks_and_decisions(self, sim, config):
        from repro.telemetry.tracing import SpanRecorder
        spans = SpanRecorder()
        core, _, recorder = self._traced_run(sim, config, spans)
        names = {s.name for s in spans}
        assert "qa.tick" in names
        ticks = spans.spans_of(name="qa.tick")
        assert all(s.end >= s.start for s in ticks)
        # Every decision record has a twin qa.* instant span.
        decisions = sum(1 for s in spans if s.name != "qa.tick")
        assert decisions == recorder.total_recorded

    def test_traced_tape_replays_bit_identically_without_spans(
            self, sim, config):
        from repro.telemetry.tracing import SpanRecorder
        # The span hook reads the raw clock, never the taped one — so
        # a tape cut while tracing replays cleanly with tracing off.
        core, tape, live = self._traced_run(
            sim, config, SpanRecorder())
        assert live.total_recorded > 0
        replayed = FlightRecorder()
        twin = SessionCore.replay(tape, config,
                                  on_event=replayed.hook("qa"))
        assert replayed.digest() == live.digest()
        assert twin.active_layers == core.active_layers

    def test_span_hook_alone_still_feeds_decisions_into_spans(
            self, sim, config):
        from repro.telemetry.tracing import SpanRecorder, TraceContext
        spans = SpanRecorder()
        core = SessionCore(
            QAConfig(layer_rate=8_000.0, max_layers=2,
                     packet_size=500),
            now_fn=lambda: sim.now,
            span_hook=spans.span_hook(
                "qa", TraceContext.derive(2, "solo")))

        class _Still:
            rate = 8_000.0
            slope = 100.0

        core.bind_transport(_Still())
        # No real controller: just tick the idle core a few times.
        for _ in range(3):
            sim.run(until=sim.now + 0.1)
            core.tick()
        assert len(spans.spans_of(name="qa.tick")) == 3


class TestTransportBinding:
    def test_reading_an_unbound_transport_fails_loudly(self, sim, config):
        core = SessionCore(config, now_fn=lambda: sim.now)
        assert core.transport is None
        with pytest.raises(RuntimeError, match="bind_transport"):
            core.tick()
        with pytest.raises(RuntimeError, match="bind_transport"):
            core.pick_payload(0)

    @pytest.mark.parametrize("taped", [False, True])
    def test_the_adapter_reaches_the_transport_in_one_hop(
            self, sim, config, taped):
        """The transport's ``rate`` is read from the adapter's own frame
        (a taped core puts its logging wrapper in between)."""
        readers = []

        class _Watched:
            slope = 100.0

            @property
            def rate(self):
                readers.append(sys._getframe(1).f_code.co_filename)
                return 20_000.0

        tape = SessionTape() if taped else None
        core = SessionCore(config, now_fn=lambda: sim.now, tape=tape)
        core.bind_transport(_Watched())
        assert core.pick_payload(0) is not None
        core.tick()
        core.on_backoff(10_000.0)
        expected = "server/core.py" if taped else "core/adapter.py"
        assert len(readers) == 3
        assert all(name.endswith(expected) for name in readers)
        if taped:
            assert tape.rates == [20_000.0] * 3

    def test_rebinding_switches_the_adapter_over(self, sim, config):
        class _Fixed:
            slope = 100.0

            def __init__(self, rate):
                self.rate = rate

        core = SessionCore(config, now_fn=lambda: sim.now,
                           transport=_Fixed(1_000.0))
        assert core.adapter.rate_fn() == 1_000.0
        core.bind_transport(_Fixed(2_000.0))
        assert core.adapter.rate_fn() == 2_000.0
        assert core.transport.rate == 2_000.0
