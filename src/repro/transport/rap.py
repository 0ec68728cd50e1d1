"""RAP: the Rate Adaptation Protocol (Rejaie, Handley, Estrin '99).

RAP is a rate-based, TCP-friendly AIMD congestion controller; this is
the variant **without** fine-grain (inter-RTT) adaptation, the one the
paper's quality adaptation analysis assumes. The controller and its
deadlines (send slot, additive step, timeout poll, all first due at
``start``) are :class:`~repro.transport.law.RapLaw`; :class:`RapSource`
is its simulator clock: one event at the earliest deadline, which runs
whatever is due in the law's order.

ACKs and deadlines are handed to the law, and the
:class:`~repro.transport.law.Feedback` it returns is replayed into the
flow's stats, the ``on_event`` decision records and the application
hooks quality adaptation plugs into:

- ``payload_picker(seq)``: called at every transmission opportunity;
  returns the ``meta`` dict for the outgoing packet (e.g. which video layer
  it carries), or ``None`` to leave the slot idle. The dict is not
  copied: it rides on the packet and in the ledger as it is and comes
  back in ``on_ack``/``on_loss``, so a picker returns a fresh dict per
  call and never mutates it afterwards.
- ``on_ack(seq, meta, size)``: a data packet was acknowledged.
- ``on_loss(seq, meta, size)``: a data packet was declared lost.
- ``on_backoff(new_rate)``: the AIMD halving just happened.

RAP does not retransmit: reliability is the application's business (stored
video prefers fresh data over old).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.node import Host
from repro.sim.packet import ACK, DATA, Packet
from repro.sim.trace import EventHook
from repro.transport.base import TransportAgent, next_flow_id
from repro.transport.law import NOTHING, AckLedger, Feedback, PacketHandler, RapLaw

ACK_SIZE = 40

PayloadPicker = Callable[[int], Optional[dict]]
BackoffHandler = Callable[[float], None]


class AimdSource(TransportAgent):
    """What the simulated AIMD senders share around their law.

    Start/stop gating, the application hooks, and the replay of the
    law's :class:`~repro.transport.law.Feedback` into stats, decision
    records and hooks. Subclasses choose the law and schedule its
    deadlines, from ``_start`` on.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        peer_name: str,
        flow_id: Optional[int],
        law: AckLedger,
        start: float,
        stop: Optional[float],
        payload_picker: Optional[PayloadPicker],
        on_ack: Optional[PacketHandler],
        on_loss: Optional[PacketHandler],
        on_backoff: Optional[BackoffHandler],
        on_event: Optional[EventHook],
    ) -> None:
        super().__init__(sim, host, peer_name,
                         flow_id if flow_id is not None else next_flow_id())
        self.law = law
        self.packet_size = law.packet_size
        self.payload_picker = payload_picker
        self.on_ack = on_ack
        self.on_loss = on_loss
        self.on_backoff = on_backoff
        self.on_event = on_event
        self._stopped = False
        self.stop_time = stop
        sim.schedule(max(0.0, start - sim.now), self._start, priority=0)

    # ------------------------------------------------------------------ API

    @property
    def srtt(self) -> float:
        """Smoothed round-trip time in seconds."""
        return self.law.srtt

    @property
    def slope(self) -> float:
        """Rate of linear increase S = P / srtt**2 in bytes/s per second."""
        return self.law.slope

    @property
    def rto(self) -> float:
        """Retransmission-style timeout used as the loss backstop."""
        return self.law.rto

    def stop(self) -> None:
        """Silence the source permanently."""
        self._stopped = True

    # ------------------------------------------------------------ internals

    def _active(self) -> bool:
        if self._stopped:
            return False
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            return False
        return True

    def _send_one(self) -> bool:
        """Offer the next seq to the application; False if it passed."""
        law = self.law
        seq = law.next_seq
        size = law.packet_size
        picker = self.payload_picker
        meta = {} if picker is None else picker(seq)
        if meta is None:
            return False  # application has nothing to send this slot
        law.track(meta, size)
        # Always DATA: count it here instead of asking _transmit to.
        if self.host.send(self._make_packet(seq, size, DATA, meta)):
            stats = self.stats
            stats.packets_sent += 1
            stats.bytes_sent += size
        return True

    def _timed_out(self, feedback: Feedback) -> bool:
        """Replay a timeout poll; True when the backstop fired."""
        if not feedback.timed_out:
            return False
        self.stats.timeouts += 1
        if self.on_event is not None:
            self.on_event(self.sim.now, "transport_timeout", (
                len(feedback.lost), feedback.idle, self.law.rto))
        feedback.replay(self.on_ack, self._lost, self._backed_off)
        return True

    def _lost(self, seq: int, meta: dict, size: int) -> None:
        self.stats.packets_lost += 1
        if self.on_event is not None:
            self.on_event(self.sim.now, "transport_loss",
                          (seq, size, meta.get("layer")))
        if self.on_loss is not None:
            self.on_loss(seq, meta, size)

    def _backoff_fields(self, feedback: Feedback) -> tuple:
        """A ``transport_backoff``'s values, laid out by
        :data:`~repro.sim.trace.EVENT_FIELDS`."""
        return (feedback.backoff_rate, self.law.srtt, feedback.trigger_seq)

    def _backed_off(self, feedback: Feedback) -> None:
        self.stats.backoffs += 1
        if self.on_event is not None:
            self.on_event(self.sim.now, "transport_backoff",
                          self._backoff_fields(feedback))
        if self.on_backoff is not None:
            self.on_backoff(feedback.backoff_rate)

    def receive(self, packet: Packet) -> None:
        """Handle an incoming ACK."""
        if packet.ptype is not ACK:
            return
        self.stats.acks_received += 1
        meta = packet.meta
        feedback = self.law.on_ack(meta["acked_seq"], meta.get("echo_ts"),
                                   self.sim.now)
        if feedback is not NOTHING:
            feedback.replay(self.on_ack, self._lost, self._backed_off)


class RapSource(AimdSource):
    """The sending half of a RAP flow: RapLaw on the simulator's clock."""

    law: RapLaw

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
        super().__init__(
            sim, host, peer_name, flow_id,
            RapLaw(packet_size, start, srtt_init),
            start, stop, payload_picker, on_ack, on_loss, on_backoff,
            on_event)
        self.min_rate = self.law.min_rate

    @property
    def rate(self) -> float:
        """Current transmission rate in bytes/s."""
        return self.law.rate

    @property
    def ipg(self) -> float:
        """Current inter-packet gap in seconds."""
        return self.law.ipg

    def _wake(self) -> None:
        # _active() inlined and the deadlines compared in place: this
        # runs once per packet.
        sim = self.sim
        now = sim.now
        if self._stopped or (self.stop_time is not None
                             and now >= self.stop_time):
            return
        law = self.law
        if now >= law.next_send:
            self._send_one()
            law.next_send = now + law.ipg
        if now >= law.next_step or now >= law.next_poll:
            self._timed_out(law.advance(now))
        sim.schedule_at(min(law.next_send, law.next_step, law.next_poll),
                        self._wake, priority=0)

    _start = _wake


class RapSink(TransportAgent):
    """The receiving half: ACKs every data packet with its seq and stamp."""

    def __init__(self, sim: Simulator, host: Host, peer_name: str,
                 flow_id: int,
                 on_data: Optional[Callable[[Packet], None]] = None) -> None:
        super().__init__(sim, host, peer_name, flow_id)
        self.on_data = on_data

    def receive(self, packet: Packet) -> None:
        if packet.ptype is not DATA:
            return
        stats = self.stats
        stats.packets_received += 1
        stats.bytes_received += packet.size
        if self.on_data is not None:
            self.on_data(packet)
        seq = packet.seq
        self.host.send(self._make_packet(
            seq, ACK_SIZE, ACK,
            {"acked_seq": seq, "echo_ts": packet.created_at}))
