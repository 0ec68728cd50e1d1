"""Discrete-event network simulation substrate.

This subpackage is the stand-in for the ns-2 simulator used by the paper.
It provides:

- :mod:`repro.sim.engine` -- the event loop (:class:`Simulator`).
- :mod:`repro.sim.packet` -- packets and packet types.
- :mod:`repro.sim.link` -- point-to-point links with rate and delay.
- :mod:`repro.sim.queues` -- drop-tail (and RED) queues.
- :mod:`repro.sim.node` -- hosts and routers that forward packets.
- :mod:`repro.sim.topology` -- canonical dumbbell topology builder.
- :mod:`repro.sim.flowmon` -- per-flow throughput and Jain fairness.
- :mod:`repro.sim.trace` -- time-series recording of simulation state.
- :mod:`repro.sim.rng` -- deterministic random-number utilities.
- :mod:`repro.sim.fluid` -- analytic fluid fast path (:class:`FluidEngine`).
- :mod:`repro.sim.fluid_batch` -- vectorized homogeneous flow classes.

The simulator is deliberately small but faithful where it matters for the
paper: packet-level transmission and queueing at a shared bottleneck so that
AIMD flows (RAP, TCP) interact through real queue occupancy and drops.
"""

from repro.sim.engine import Simulator, Event
from repro.sim.packet import Packet, PacketType
from repro.sim.link import Link
from repro.sim.queues import DropTailQueue, REDQueue
from repro.sim.node import Node, Host, Router
from repro.sim.topology import Dumbbell, DumbbellConfig
from repro.sim.flowmon import FlowMonitor, jain_index
from repro.sim.trace import TimeSeries, Tracer, PeriodicSampler
# The fluid modules import repro.core.*, and repro.core.fluid imports
# repro.sim.engine and repro.sim.trace back. sim.fluid names the core's
# ScriptedAimd only for type checking, so neither side needs the other
# fully initialised and this order is not load-bearing
# (tests/sim/test_cold_start.py imports repro.core.fluid first).
from repro.sim.fluid import FluidEngine, FluidFlowResult
from repro.sim.fluid_batch import BatchResult, FlowClassBatch


__all__ = [
    "Simulator",
    "Event",
    "Packet",
    "PacketType",
    "Link",
    "DropTailQueue",
    "REDQueue",
    "Node",
    "Host",
    "Router",
    "Dumbbell",
    "DumbbellConfig",
    "FlowMonitor",
    "jain_index",
    "TimeSeries",
    "Tracer",
    "PeriodicSampler",
    "FluidEngine",
    "FluidFlowResult",
    "BatchResult",
    "FlowClassBatch",
]
