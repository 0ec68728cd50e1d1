"""A window-based AIMD transport (the paper's section 7 future work).

The paper: "We plan to extend the idea of quality adaptation to other
congestion control schemes that employ AIMD algorithms." This module
provides exactly that test vehicle: a TCP-style *window* AIMD transport
with the same application hooks as RAP, so the unchanged
:class:`~repro.core.adapter.QualityAdapter` can drive either.

Loss detection, the one-back-off-per-event guard and the RTT estimate
are the shared :class:`~repro.transport.law.AckLedger`; what this
adapter adds is the window law and its clocking:

- transmission is ACK-clocked (bursty at RTT timescales) instead of
  IPG-paced, so the instantaneous rate seen by the adapter is the
  window estimate ``cwnd * P / srtt``;
- additive increase is one packet per window per RTT, giving the same
  slope form S = P / srtt**2 the buffer formulas assume;
- like RAP (and unlike TCP), lost media packets are *not* retransmitted:
  loss detection only frees the window and signals congestion.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import Simulator
from repro.sim.node import Host
from repro.sim.packet import ACK, Packet
from repro.transport.law import AckLedger, Feedback, PacketHandler
from repro.transport.rap import (
    AimdSource,
    BackoffHandler,
    EventHook,
    PayloadPicker,
    RapSink,
)


class WindowAimdSource(AimdSource):
    """Window-based AIMD media transport with RAP-compatible hooks."""

    INITIAL_CWND = 2.0
    MIN_CWND = 1.0

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        peer_name: str,
        flow_id: Optional[int] = None,
        packet_size: int = 1000,
        srtt_init: float = 0.2,
        start: float = 0.0,
        stop: Optional[float] = None,
        payload_picker: Optional[PayloadPicker] = None,
        on_ack: Optional[PacketHandler] = None,
        on_loss: Optional[PacketHandler] = None,
        on_backoff: Optional[BackoffHandler] = None,
        on_event: Optional[EventHook] = None,
    ) -> None:
        self.cwnd = self.INITIAL_CWND
        super().__init__(
            sim, host, peer_name, flow_id,
            AckLedger(packet_size, start, srtt_init, self._halve_window),
            start, stop, payload_picker, on_ack, on_loss, on_backoff,
            on_event)

    @property
    def rate(self) -> float:
        """Window-based rate estimate in bytes/s."""
        return self.cwnd * self.law.packet_size / self.law.srtt

    def _halve_window(self) -> float:
        self.cwnd = max(self.MIN_CWND, self.cwnd / 2)
        return self.rate

    def _start(self) -> None:
        if not self._active():
            return
        self._fill_window()
        self._timeout_tick()

    def _fill_window(self) -> None:
        while (self._active()
               and len(self.law.outstanding) < int(self.cwnd)):
            if not self._send_one():
                # Application idle: retry shortly so the window refills.
                self.sim.schedule(
                    self.law.srtt / 4, self._fill_window, priority=0
                )
                break

    def _timeout_tick(self) -> None:
        if not self._active():
            return
        now = self.sim.now
        if self._timed_out(self.law.poll(now)) or self.law.quiet(now):
            self._fill_window()  # restart a flushed or stalled window
        self.sim.schedule_at(self.law.next_poll, self._timeout_tick,
                             priority=0)

    def _backoff_fields(self, feedback: Feedback) -> tuple:
        return (*super()._backoff_fields(feedback), self.cwnd)

    def receive(self, packet: Packet) -> None:
        if packet.ptype is not ACK:
            return
        if packet.meta["acked_seq"] in self.law.outstanding:
            # Additive increase: one packet per window per RTT. It
            # precedes the law's verdict, so a halving this ACK causes
            # applies to the grown window.
            self.cwnd += 1.0 / self.cwnd
        super().receive(packet)
        self._fill_window()


#: The window transport reuses RAP's per-packet-ACK sink unchanged.
WindowAimdSink = RapSink
