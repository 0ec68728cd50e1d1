"""The asyncio layered-streaming service.

The discrete-event simulator answers the paper's questions; this package
makes "heavy traffic" a benchmark we can *run*: a real UDP server
streaming stored layered video to many concurrent unicast clients, with
the exact same :class:`~repro.server.core.SessionCore` (the paper's
quality adapter plus feedback wiring) driving every session that drives
the simulated one — only the congestion controller's clock differs
(event-loop wall time instead of simulation time).

Layer map::

    repro.core.adapter.QualityAdapter      the paper's mechanism
    repro.server.core.SessionCore          transport-agnostic wiring
    repro.transport.law.RapLaw             the one AIMD controller and
      |                      |             its send/step/poll deadlines
    repro.server (simulated) repro.service (this package)
      RapSource: one Simulator RapPacer: woken on one asyncio
      event per deadline       timer heap, over UDP

Pieces:

- :mod:`repro.service.protocol` -- the datagram wire format
  (HELLO/WELCOME/DATA/ACK/FIN frames, struct-packed hot path).
- :mod:`repro.service.pacing` -- :class:`~repro.transport.law.RapLaw`
  with an SRTT floor, a rate cap and its own start phase.
- :mod:`repro.service.impairment` -- a seeded loopback loss/delay/
  token-bucket shim so CI can script congestion without root/netem.
- :mod:`repro.service.server` -- :class:`StreamingService`, the asyncio
  datagram server: one :class:`~repro.server.core.SessionCore` +
  :class:`~repro.service.pacing.RapPacer` + bounded send queue per
  session, every session a stepper on one timer heap, graceful FIN
  teardown, FlightRecorder/MetricsRegistry sinks.
- :mod:`repro.service.client` -- the async load-generator fleet:
  hundreds of concurrent sessions, each ACKing through the impairment
  shim and playing received data through the simulator's own
  :class:`~repro.media.playout.PlayoutBuffer` for identical QoE
  accounting.
- :mod:`repro.service.results` -- folds fleet outcomes into the same
  :class:`~repro.scenario.result.ScenarioResult` shape simulated
  scenarios produce, rendered through the existing report path.
- :mod:`repro.service.sanitizer` -- a runtime loop-stall monitor
  (callback-lag histogram and stall counter).
- :mod:`repro.service.cli` -- the ``repro-serve`` / ``repro-load``
  console entry points.

This is the one package where wall-clock time and asyncio timers are
legitimate (RL001 carves out the ``service`` zone); randomness remains
seeded via :mod:`repro.sim.rng`.
"""

from repro.service.impairment import Impairment, ImpairmentConfig
from repro.service.pacing import RapPacer
from repro.service.results import fleet_result, render_fleet_report
from repro.service.sanitizer import LoopSanitizer, SanitizerConfig
from repro.service.server import ServiceConfig, StreamingService
from repro.service.client import LoadFleet, LoadSessionResult

__all__ = [
    "Impairment",
    "ImpairmentConfig",
    "LoopSanitizer",
    "RapPacer",
    "SanitizerConfig",
    "ServiceConfig",
    "StreamingService",
    "LoadFleet",
    "LoadSessionResult",
    "fleet_result",
    "render_fleet_report",
]
