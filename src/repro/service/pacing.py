"""The service's clock over the shared RAP controller.

:class:`RapPacer` *is* :class:`~repro.transport.law.RapLaw` — the same
object the simulated :class:`~repro.transport.rap.RapSource` drives from
its event timers — plus what an externally clocked owner needs: three
deadlines (next send, next additive step, next timeout check). The owner
calls :meth:`advance` with the current time (event-loop seconds) before
acting, asks :meth:`next_deadline` how long to sleep, and feeds ACKs
through :meth:`on_ack`. Every step returns a
:class:`~repro.transport.law.Feedback` the caller replays into
:class:`~repro.server.core.SessionCore`. No I/O, no asyncio, no
wall-clock reads happen here, which keeps it unit testable with a
scripted clock.

Two service-specific guards that the simulator does not need:

- ``srtt_floor``: loopback RTTs are tens of microseconds; an unfloored
  SRTT would make the additive-increase timer spin and the slope
  estimate ``P/srtt^2`` explode. The floor emulates a sane network RTT.
- ``max_rate``: a cap on the transmission rate so an uncongested
  loopback session cannot ramp without bound (the receiver's
  ``max_buffer_seconds`` flow control idles slots anyway, but the pacer
  must not busy-loop between them).
"""

from __future__ import annotations

from typing import Optional

from repro.transport.law import NOTHING, Feedback, RapLaw


class RapPacer(RapLaw):
    """RAP congestion control as an externally-clocked state machine."""

    def __init__(
        self,
        packet_size: int,
        now: float,
        srtt_init: float = 0.2,
        srtt_floor: float = 0.02,
        initial_rate: Optional[float] = None,
        min_rate: Optional[float] = None,
        max_rate: Optional[float] = None,
    ) -> None:
        if srtt_floor <= 0:
            raise ValueError("srtt_floor must be positive")
        super().__init__(packet_size, now, max(srtt_init, srtt_floor),
                         initial_rate, min_rate)
        self.srtt_floor = srtt_floor
        self.max_rate = max_rate
        if max_rate is not None:
            self._rate = min(self._rate, max_rate)
        self._next_send = now
        self._next_step = now + self.srtt
        self._next_timeout_check = now + self.rto / 2

    # ------------------------------------------------------------ sending

    def send_due(self, now: float) -> bool:
        """Is a transmission opportunity due?"""
        return now >= self._next_send

    def register_send(self, now: float, meta: dict, size: int) -> int:
        """Consume the current opportunity with a real packet."""
        self._next_send = now + self.ipg
        return self.track(meta, size)

    def skip_send(self, now: float) -> None:
        """Consume the opportunity with an idle slot (receiver full)."""
        self._next_send = now + self.ipg

    def next_deadline(self, now: float) -> float:
        """Earliest time anything needs to run again."""
        return min(self._next_send, self._next_step,
                   self._next_timeout_check)

    # ----------------------------------------------------------- clocking

    def advance(self, now: float) -> Feedback:
        """Run every timer that is due at ``now``."""
        while now >= self._next_step:
            self.additive_increase()
            self._next_step += self.srtt
        if now < self._next_timeout_check:
            return NOTHING
        # However many checks are due, one call settles them: firing
        # empties the ledger and restarts the ACK clock.
        feedback = self.check_timeout(now)
        while now >= self._next_timeout_check:
            self._next_timeout_check += self.rto / 2
        return feedback

    # ------------------------------------------------------------- guards

    def additive_increase(self) -> None:
        super().additive_increase()
        if self.max_rate is not None and self._rate > self.max_rate:
            self._rate = self.max_rate

    def _observe_rtt(self, sample: float) -> None:
        super()._observe_rtt(max(sample, self.srtt_floor))
        self.srtt = max(self.srtt_floor, self.srtt)
