"""Short scripted drives of single layers.

Where a layer has no seam to time it in place, the traced run prices it
alone: the wire codec re-run over the datagrams the run captured, the
pacer stepped through a scripted send/ACK/loss sequence, the event core
with no-op handlers, and the session core replayed from a tape with no
engine, link or socket under it.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Sequence

from repro.core.config import QAConfig
from repro.server.core import SessionCore, SessionTape
from repro.service import protocol
from repro.service.pacing import RapPacer
from repro.sim.engine import Simulator
from repro.sim.topology import Dumbbell, DumbbellConfig
from repro.sim.trace import PeriodicSampler
from repro.telemetry.recorder import FlightRecorder
from repro.transport import RapSink, RapSource

#: Repeats of each codec call per captured datagram.
CODEC_REPEATS = 20


def bare_events_per_s(n: int = 200_000) -> float:
    """The event core alone: no-op ``schedule_many`` + ``run``."""
    def noop() -> None:
        pass

    sim = Simulator()
    t0 = time.perf_counter()
    sim.schedule_many((i * 1e-6, noop) for i in range(n))
    sim.run()
    return n / (time.perf_counter() - t0)


def record_tape(config: QAConfig, duration: float = 15.0
                ) -> tuple[SessionTape, FlightRecorder]:
    """One congested session, hand-wired so the tape sees every call.

    ``SessionCore`` + ``RapSource`` share a 30 KB/s, 15-packet dumbbell
    with one competing RAP flow, which forces back-offs and losses onto
    the tape. The decision hook stays on the core only, so the live log
    holds exactly what a replay can reproduce.
    """
    sim = Simulator()
    net = Dumbbell(sim, DumbbellConfig(
        n_pairs=2, bottleneck_bandwidth=30_000,
        queue_capacity_packets=15))
    src, dst = net.pair(0)
    tape = SessionTape()
    live = FlightRecorder()
    core = SessionCore(config, now_fn=lambda: sim.now,
                       on_event=live.hook("qa"), tape=tape)
    rap = RapSource(sim, src, dst.name, packet_size=config.packet_size,
                    payload_picker=core.pick_payload, on_ack=core.on_ack,
                    on_loss=core.on_loss, on_backoff=core.on_backoff)
    core.bind_transport(rap)
    PeriodicSampler(sim, config.drain_period, lambda _now: core.tick())
    RapSink(sim, dst, src.name, rap.flow_id)
    rival_src, rival_dst = net.pair(1)
    rival = RapSource(sim, rival_src, rival_dst.name,
                      packet_size=config.packet_size)
    RapSink(sim, rival_dst, rival_src.name, rival.flow_id)
    sim.run(until=duration)
    return tape, live


def replay_drive(config: QAConfig, repeats: int = 5
                 ) -> tuple[dict[str, float], list[str]]:
    """``SessionCore.replay`` cost per tape call, and the digest check."""
    tape, live = record_tape(config)
    problems: list[str] = []
    best = float("inf")
    for _ in range(repeats):
        replayed = FlightRecorder()
        t0 = time.perf_counter()
        SessionCore.replay(tape, config, on_event=replayed.hook("qa"))
        best = min(best, time.perf_counter() - t0)
        if replayed.digest() != live.digest():
            problems.append("tape replay digest differs from the live "
                            "decision log")
            break
    return {
        "server.core.replay_calls": len(tape),
        "server.core.replay_us_per_call": 1e6 * best / max(1, len(tape)),
    }, problems


def _per_call_us(fn, items: Sequence, repeats: int = CODEC_REPEATS
                 ) -> float:
    t0 = time.perf_counter()
    for _ in range(repeats):
        for item in items:
            fn(item)
    return 1e6 * (time.perf_counter() - t0) / (repeats * len(items))


def protocol_drive(data_frames: Sequence[bytes],
                   ack_frames: Sequence[bytes]) -> dict[str, float]:
    """Codec cost per frame, over datagrams captured in the same run."""
    decoded_data = [protocol.decode(d) for d in data_frames]
    decoded_acks = [protocol.decode(d) for d in ack_frames]
    return {
        "service.protocol.decode_data_us":
            _per_call_us(protocol.decode, data_frames),
        "service.protocol.decode_ack_us":
            _per_call_us(protocol.decode, ack_frames),
        "service.protocol.encode_data_us": _per_call_us(
            lambda f: protocol.encode_data(
                f.session_id, f.seq, f.layer, f.active, f.send_ts, f.size),
            decoded_data),
        "service.protocol.encode_ack_us": _per_call_us(
            lambda f: protocol.encode_ack(
                f.session_id, f.acked_seq, f.echo_ts),
            decoded_acks),
    }


def pacer_drive(packet_size: int, packets: int = 50_000,
                loss_every: int = 97) -> float:
    """``RapPacer`` microseconds per packet on a scripted clock.

    Every ``loss_every``-th packet is never ACKed, so hole detection,
    the loss declaration and the back-off all run; ACKs return one
    fixed 40 ms round trip after the send.
    """
    rtt = 0.04
    pacer = RapPacer(packet_size, 0.0, srtt_floor=0.02,
                     max_rate=200.0 * packet_size)
    now = 0.0
    in_flight: deque[tuple[float, int, float]] = deque()
    meta = {"layer": 0}
    sent = 0
    t0 = time.perf_counter()
    while sent < packets:
        now = max(now, pacer.next_deadline(now))
        pacer.advance(now)
        while in_flight and in_flight[0][0] <= now:
            due, seq, sent_at = in_flight.popleft()
            pacer.on_ack(seq, sent_at, due)
        if pacer.send_due(now):
            seq = pacer.register_send(now, meta, packet_size)
            sent += 1
            if seq % loss_every:
                in_flight.append((now + rtt, seq, now))
    return 1e6 * (time.perf_counter() - t0) / packets
