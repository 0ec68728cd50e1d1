"""The AIMD congestion controller, once, with no clock of its own.

Everything the paper's section 2.2/3 analysis assumes about the
transport lives here: the ledger of unacknowledged packets, loss
detection from ACK sequence holes (three newer ACKs, analogous to TCP's
three dup-ACKs) with a conservative timeout backstop, one multiplicative
decrease per congestion event (losses of packets sent before the last
back-off are ignored), the RFC 6298 style RTT estimate, and RAP's rate
law on top of it (``+P/srtt`` once per SRTT, halve, never below
``min_rate``), whose sawtooth is the clean ``R -> R/2 -> linear climb``
the buffer formulas integrate over.

The module is sans-IO: it never reads a clock, schedules a timer or
imports the simulator, asyncio or the service. It owns its deadlines
(send slot, additive step, timeout poll; all first due at the ``now`` it
is built with): the owner wakes it at them, passes ``now`` in and gets a
:class:`Feedback` back. The simulator agents (:mod:`repro.transport.rap`,
:mod:`repro.transport.aimd`) and the UDP service's pacer
(:mod:`repro.service.pacing`) are such owners, so all three run the same
controller in one order within an instant: send, step(s), poll.

ACKs come from the network, so :meth:`AckLedger.on_ack` treats them as
hostile: an ACK for a packet that was never sent changes nothing, and an
echo timestamp that is not a finite, non-negative past instant yields no
RTT sample.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

#: One tracked packet: ``(seq, meta, size)``.
Sent = tuple[int, dict[str, Any], int]
PacketHandler = Callable[[int, dict[str, Any], int], None]


class Feedback:
    """What one controller step decided.

    Only ``acked`` is set per instance on the common path (an ACK that
    reveals no loss); the rest are class-level defaults until a step
    has something to say.
    """

    #: Packets declared lost, oldest first.
    lost: Sequence[Sent] = ()
    #: Rate after the multiplicative decrease, or None when the losses
    #: belong to a congestion event already answered.
    backoff_rate: Optional[float] = None
    #: The seq whose loss caused the decrease.
    trigger_seq: Optional[int] = None
    #: True when the loss came from the timeout backstop, after
    #: ``idle`` seconds without an ACK.
    timed_out = False
    idle = 0.0

    def __init__(self, acked: Sequence[Sent] = ()) -> None:
        #: Packets confirmed delivered.
        self.acked = acked

    def replay(self, on_ack: Optional[PacketHandler],
               on_loss: Optional[PacketHandler],
               on_backoff: Callable[["Feedback"], None]) -> None:
        """Deliveries, then losses, then the event's single back-off."""
        if on_ack is not None:
            for seq, meta, size in self.acked:
                on_ack(seq, meta, size)
        if on_loss is not None:
            for seq, meta, size in self.lost:
                on_loss(seq, meta, size)
        if self.backoff_rate is not None:
            on_backoff(self)


#: The shared "nothing happened" result; never mutated.
NOTHING = Feedback()


class AckLedger:
    """ACK, loss and RTT bookkeeping around one decrease hook.

    ``decrease`` applies the owner's multiplicative decrease and returns
    the resulting rate; it runs at most once per congestion event.
    """

    #: Loss is declared when a packet this many seqs newer is ACKed.
    REORDER_THRESHOLD = 3
    #: EWMA gains for SRTT/RTTVAR, RFC 6298 style.
    SRTT_GAIN = 0.125
    RTTVAR_GAIN = 0.25

    def __init__(self, packet_size: int, now: float, srtt_init: float,
                 decrease: Callable[[], float]) -> None:
        if packet_size <= 0:
            raise ValueError("packet_size must be positive")
        self.packet_size = packet_size
        self.srtt = srtt_init
        self.rttvar = srtt_init / 2
        self._decrease = decrease
        self.next_seq = 0
        self.recovery_seq = 0  # seqs below this don't trigger another backoff
        self.highest_acked = -1
        #: Unacknowledged packets by seq; insertion order is seq order.
        self.outstanding: dict[int, Sent] = {}
        self.last_ack_time = now
        #: When the timeout backstop is next checked.
        self.next_poll = now
        self.backoffs = 0
        self.timeouts = 0
        self.packets_lost = 0
        self.acks_received = 0

    @property
    def slope(self) -> float:
        """Additive-increase slope S in bytes/s per second.

        One packet per SRTT every SRTT, so S = P / srtt**2: exactly the
        ``S`` the paper's buffer formulas need.
        """
        return self.packet_size / (self.srtt * self.srtt)

    @property
    def rto(self) -> float:
        """Retransmission-style timeout used as the loss backstop."""
        return min(5.0, max(0.2, self.srtt + 4 * self.rttvar))

    def quiet(self, now: float) -> bool:
        """Has no ACK arrived for longer than the timeout?"""
        return now - self.last_ack_time > self.rto

    def track(self, meta: dict[str, Any], size: int) -> int:
        """A packet left; returns the seq it was sent under."""
        seq = self.next_seq
        self.outstanding[seq] = (seq, meta, size)
        self.next_seq = seq + 1
        return seq

    def plausible(self, seq: int, echo_ts: Optional[float],
                  now: float) -> bool:
        """Could the receiver of our packets have sent this ACK?

        :meth:`on_ack` applies the two halves itself: it ignores an ACK
        for a seq never sent and takes no RTT sample from an impossible
        echo. This is the same rule for owners that count offenders.
        """
        return seq < self.next_seq and (
            echo_ts is None or 0.0 <= echo_ts <= now)

    def on_ack(self, seq: int, echo_ts: Optional[float],
               now: float) -> Feedback:
        """An ACK arrived; returns the deliveries and losses it caused."""
        if seq >= self.next_seq:
            return NOTHING  # never sent: forged or corrupt
        self.acks_received += 1
        self.last_ack_time = now
        if echo_ts is not None and 0.0 <= echo_ts <= now:
            self._observe_rtt(now - echo_ts)
        outstanding = self.outstanding
        entry = outstanding.pop(seq, None)
        if seq > self.highest_acked:
            self.highest_acked = seq
        # Hole-based loss detection: anything REORDER_THRESHOLD older
        # than the newest ACK is gone. The oldest packet comes first, so
        # it alone decides whether there is anything to scan for.
        horizon = self.highest_acked - self.REORDER_THRESHOLD
        holed = False
        for oldest in outstanding:
            holed = oldest <= horizon
            break
        if not holed:
            return NOTHING if entry is None else Feedback([entry])
        lost: list[Sent] = []
        for candidate in outstanding.values():
            if candidate[0] > horizon:
                break
            lost.append(candidate)
        for candidate in lost:
            del outstanding[candidate[0]]
        feedback = Feedback([] if entry is None else [entry])
        feedback.lost = lost
        self._congested(feedback, lost[-1][0])
        return feedback

    def check_timeout(self, now: float) -> Feedback:
        """The backstop: a quiet spell with packets out loses them all."""
        if not self.outstanding or not self.quiet(now):
            return NOTHING
        self.timeouts += 1
        feedback = Feedback()
        feedback.lost = list(self.outstanding.values())
        feedback.timed_out = True
        feedback.idle = now - self.last_ack_time
        self.outstanding.clear()
        self.last_ack_time = now
        self._congested(feedback, self.next_seq)
        return feedback

    def poll(self, now: float) -> Feedback:
        """The timeout backstop, if its poll is due at ``now``."""
        if now < self.next_poll:
            return NOTHING
        # However many polls are due, one check settles them: firing
        # empties the ledger and restarts the ACK clock.
        feedback = self.check_timeout(now)
        while now >= self.next_poll:
            self.next_poll += self.rto / 2
        return feedback

    def _congested(self, feedback: Feedback, trigger_seq: int) -> None:
        """Count the losses; decrease once per congestion event."""
        self.packets_lost += len(feedback.lost)
        if trigger_seq < self.recovery_seq:
            return  # this loss belongs to an already-handled event
        feedback.backoff_rate = self._decrease()
        feedback.trigger_seq = trigger_seq
        self.recovery_seq = self.next_seq
        self.backoffs += 1

    def _observe_rtt(self, sample: float) -> None:
        self.rttvar = ((1 - self.RTTVAR_GAIN) * self.rttvar
                       + self.RTTVAR_GAIN * abs(self.srtt - sample))
        self.srtt = (1 - self.SRTT_GAIN) * self.srtt + self.SRTT_GAIN * sample


class RapLaw(AckLedger):
    """RAP's rate law over the ledger: the paper's AIMD sawtooth."""

    def __init__(self, packet_size: int, now: float,
                 srtt_init: float = 0.2) -> None:
        super().__init__(packet_size, now, srtt_init, self._halve)
        self.min_rate = packet_size / 2.0  # one packet per 2 s
        self._rate = max(packet_size / srtt_init, self.min_rate)
        #: When the next transmission opportunity and additive step fall.
        self.next_send = now
        self.next_step = now

    @property
    def rate(self) -> float:
        """Current transmission rate in bytes/s."""
        return self._rate

    @property
    def ipg(self) -> float:
        """Current inter-packet gap in seconds."""
        return self.packet_size / self._rate

    def send_due(self, now: float) -> bool:
        """Is a transmission opportunity due?"""
        return now >= self.next_send

    def register_send(self, now: float, meta: dict[str, Any],
                      size: int) -> int:
        """Consume the current opportunity with a real packet."""
        self.next_send = now + self.ipg
        return self.track(meta, size)

    def skip_send(self, now: float) -> None:
        """Consume the opportunity with an idle slot (receiver full)."""
        self.next_send = now + self.ipg

    def advance(self, now: float) -> Feedback:
        """Run the steps, then the poll, due at ``now``; the owner sends
        first, so a packet due at a step leaves at the old rate."""
        while now >= self.next_step:
            self.additive_increase()
            self.next_step += self.srtt
        return self.poll(now)

    def next_deadline(self, now: float) -> float:
        """Earliest time anything needs to run again."""
        return min(self.next_send, self.next_step, self.next_poll)

    def additive_increase(self) -> None:
        """The AI of AIMD, once per SRTT."""
        self._rate += self.packet_size / self.srtt

    def _halve(self) -> float:
        self._rate = max(self.min_rate, self._rate / 2)
        return self._rate
