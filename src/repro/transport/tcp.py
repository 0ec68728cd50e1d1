"""A Sack-era TCP source for background traffic.

The paper's T1/T2 tests run the quality-adaptive RAP flow against ten
Sack-TCP flows; their only role here is to congest the bottleneck the way
TCP does (slow start, congestion avoidance, fast retransmit/recovery,
retransmission timeouts with exponential backoff). This implementation is a
compact Reno/Sack hybrid: cumulative ACKs plus a three-dup-ACK fast
retransmit with window deflation on recovery, which reproduces TCP's
characteristic sawtooth and burstiness at packet level.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import Simulator
from repro.sim.node import Host
from repro.sim.packet import ACK, DATA, Packet
from repro.transport.base import TransportAgent, next_flow_id

ACK_SIZE = 40


class TcpSource(TransportAgent):
    """Bulk-transfer TCP sender (always has data)."""

    DUPACK_THRESHOLD = 3
    INITIAL_CWND = 2.0
    SRTT_GAIN = 0.125
    RTTVAR_GAIN = 0.25

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        peer_name: str,
        flow_id: Optional[int] = None,
        packet_size: int = 1000,
        start: float = 0.0,
        stop: Optional[float] = None,
        max_cwnd: float = 1000.0,
    ) -> None:
        super().__init__(sim, host, peer_name,
                         flow_id if flow_id is not None else next_flow_id())
        self.packet_size = packet_size
        self.cwnd = self.INITIAL_CWND
        self.ssthresh = 64.0
        self.max_cwnd = max_cwnd
        self.snd_una = 0  # oldest unacknowledged seq
        self.snd_nxt = 0  # next seq to send
        self.dupacks = 0
        self.in_recovery = False
        self.recovery_point = 0
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self._send_times: dict[int, float] = {}
        self._retransmitted: set[int] = set()
        self._rto_event = None
        self._rto_backoff = 1.0
        self._stopped = False
        self.stop_time = stop
        sim.schedule(max(0.0, start - sim.now), self._start, priority=0)

    # ------------------------------------------------------------------ API

    @property
    def rto(self) -> float:
        if self.srtt is None:
            return 1.0 * self._rto_backoff
        return self._rto_backoff * min(
            60.0, max(0.2, self.srtt + 4 * self.rttvar))

    @property
    def rate_estimate(self) -> float:
        """cwnd/srtt in bytes/s (rough, for traces)."""
        rtt = self.srtt if self.srtt else 0.2
        return self.cwnd * self.packet_size / rtt

    def stop(self) -> None:
        self._stopped = True
        self._cancel_rto()

    # ------------------------------------------------------------ internals

    def _active(self) -> bool:
        if self._stopped:
            return False
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            return False
        return True

    def _start(self) -> None:
        if not self._active():
            return
        self._try_send()

    def _window(self) -> float:
        return min(self.cwnd, self.max_cwnd)

    def _try_send(self) -> None:
        """Send as much as the window allows."""
        if not self._active():
            return
        while self.snd_nxt < self.snd_una + int(self._window()):
            self._send_seq(self.snd_nxt)
            self.snd_nxt += 1
        self._arm_rto()

    def _send_seq(self, seq: int, retransmit: bool = False) -> None:
        packet = self._make_packet(seq, self.packet_size)
        if retransmit:
            self.stats.retransmissions += 1
            self._retransmitted.add(seq)
        self._send_times[seq] = self.sim.now
        self._transmit(packet)

    # RTO management -----------------------------------------------------

    def _arm_rto(self) -> None:
        if self.snd_una >= self.snd_nxt:
            self._cancel_rto()
            return
        if self._rto_event is None or self._rto_event.cancelled:
            self._rto_event = self.sim.schedule(
                self.rto, self._on_rto, priority=0
            )

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _restart_rto(self) -> None:
        self._cancel_rto()
        self._arm_rto()

    def _on_rto(self) -> None:
        self._rto_event = None
        if not self._active() or self.snd_una >= self.snd_nxt:
            return
        self.stats.timeouts += 1
        self.ssthresh = max(2.0, self._window() / 2)
        self.cwnd = 1.0
        self.dupacks = 0
        self.in_recovery = False
        self._rto_backoff = min(64.0, self._rto_backoff * 2)
        self.snd_nxt = self.snd_una  # go-back-N from the hole
        self._send_seq(self.snd_nxt, retransmit=True)
        self.snd_nxt += 1
        self._arm_rto()

    # ACK processing ------------------------------------------------------

    def _update_rtt(self, seq: int) -> None:
        if seq in self._retransmitted:  # Karn's algorithm
            return
        sent = self._send_times.get(seq)
        if sent is None:
            return
        sample = self.sim.now - sent
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = ((1 - self.RTTVAR_GAIN) * self.rttvar
                           + self.RTTVAR_GAIN * abs(self.srtt - sample))
            self.srtt = ((1 - self.SRTT_GAIN) * self.srtt
                         + self.SRTT_GAIN * sample)
        self._rto_backoff = 1.0

    def receive(self, packet: Packet) -> None:
        if packet.ptype is not ACK or not self._active():
            return
        self.stats.acks_received += 1
        cum = packet.meta["acked_seq"]  # highest contiguously received seq

        if cum + 1 > self.snd_una:
            self._on_new_ack(cum)
        else:
            self._on_dup_ack()
        self._try_send()

    def _on_new_ack(self, cum: int) -> None:
        newly = cum + 1 - self.snd_una
        self._update_rtt(cum)
        for seq in range(self.snd_una, cum + 1):
            self._send_times.pop(seq, None)
            self._retransmitted.discard(seq)
        self.snd_una = cum + 1
        self.dupacks = 0
        self._restart_rto()

        if self.in_recovery:
            if self.snd_una > self.recovery_point:
                self.in_recovery = False
                self.cwnd = self.ssthresh  # full window deflation
            else:
                # Partial ACK: retransmit the next hole immediately (NewReno).
                self._send_seq(self.snd_una, retransmit=True)
            return

        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.max_cwnd, self.cwnd + newly)  # slow start
        else:
            self.cwnd = min(self.max_cwnd,
                            self.cwnd + newly / self.cwnd)  # cong. avoidance

    def _on_dup_ack(self) -> None:
        self.dupacks += 1
        if self.in_recovery:
            self.cwnd += 1  # window inflation per extra dup ACK
            return
        if self.dupacks == self.DUPACK_THRESHOLD:
            self.stats.backoffs += 1
            self.ssthresh = max(2.0, self._window() / 2)
            self.cwnd = self.ssthresh + self.DUPACK_THRESHOLD
            self.in_recovery = True
            self.recovery_point = self.snd_nxt - 1
            self._send_seq(self.snd_una, retransmit=True)
            self._restart_rto()


class TcpSink(TransportAgent):
    """Receiver generating cumulative ACKs (one per data packet)."""

    def __init__(self, sim: Simulator, host: Host, peer_name: str,
                 flow_id: int) -> None:
        super().__init__(sim, host, peer_name, flow_id)
        self._received: set[int] = set()
        self._cumulative = -1  # highest contiguously received seq

    def receive(self, packet: Packet) -> None:
        if packet.ptype is not DATA:
            return
        self.stats.packets_received += 1
        self.stats.bytes_received += packet.size
        self._received.add(packet.seq)
        while self._cumulative + 1 in self._received:
            self._received.discard(self._cumulative + 1)
            self._cumulative += 1
        self.host.send(self._make_packet(
            packet.seq, ACK_SIZE, ACK, {"acked_seq": self._cumulative}))
