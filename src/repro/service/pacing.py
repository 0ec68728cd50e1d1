"""The service's clock over the shared RAP controller.

:class:`RapPacer` *is* :class:`~repro.transport.law.RapLaw`, deadlines
included; the service wakes it at its send slot (``next_send``), first
calling :meth:`~RapLaw.advance` at each step or poll instant due before
it, sends if :meth:`~RapLaw.send_due`, then calls
:meth:`~RapLaw.advance` again and replays each
:class:`~repro.transport.law.Feedback` into
:class:`~repro.server.core.SessionCore`. No I/O, no asyncio, no
wall-clock reads happen here, which keeps it unit testable with a
scripted clock. What it adds is service-specific:

- ``srtt_floor``: loopback RTTs are tens of microseconds; an unfloored
  SRTT would make the additive step spin and the slope estimate
  ``P/srtt^2`` explode. The floor emulates a sane network RTT.
- ``max_rate``: a cap on the transmission rate so an uncongested
  loopback session cannot ramp without bound (the receiver's
  ``max_buffer_seconds`` flow control idles slots anyway, but the pacer
  must not busy-loop between them).
- its start phase: the first step and poll wait one srtt and ``rto/2``.
"""

from __future__ import annotations

from typing import Optional

from repro.transport.law import RapLaw


class RapPacer(RapLaw):
    """RAP congestion control as an externally-clocked state machine."""

    def __init__(
        self,
        packet_size: int,
        now: float,
        srtt_floor: float = 0.02,
        max_rate: Optional[float] = None,
    ) -> None:
        if srtt_floor <= 0:
            raise ValueError("srtt_floor must be positive")
        super().__init__(packet_size, now, max(0.2, srtt_floor))
        self.srtt_floor = srtt_floor
        self.max_rate = max_rate
        if max_rate is not None:
            self._rate = min(self._rate, max_rate)
        # Unlike the simulator, no step or poll at ``now``, so the service
        # moves only by the tie order. The +40 % service_loopback CPU once
        # read for the simulator's phase did not reproduce from checkouts
        # of equal path length (8 pairs).
        self.next_step = now + self.srtt
        self.next_poll = now + self.rto / 2

    def additive_increase(self) -> None:
        super().additive_increase()
        if self.max_rate is not None and self._rate > self.max_rate:
            self._rate = self.max_rate

    def _observe_rtt(self, sample: float) -> None:
        super()._observe_rtt(max(sample, self.srtt_floor))
        self.srtt = max(self.srtt_floor, self.srtt)
