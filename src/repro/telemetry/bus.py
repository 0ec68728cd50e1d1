"""The telemetry bus: probe subscription and the on/off switch."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.engine import Simulator
from repro.sim.trace import (EventFields, EventHook, PeriodicSampler,
                             TimeSeries, Tracer)
from repro.telemetry.recorder import FlightRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.probes import Probe


class TelemetryBus:
    """Routes probe samples and discrete events into a :class:`Tracer`.

    Args:
        sim: the event engine (drives the periodic samplers).
        enabled: when False, no samplers are scheduled, records are
            dropped, and :meth:`event_hook` returns ``None`` — the
            simulation runs with near-zero instrumentation cost.
        recorder: optional shared :class:`FlightRecorder`. When it is
            enabled, :meth:`event_hook` fans every discrete event out to
            it as a decision record tagged ``source`` — even if the bus
            itself is disabled, so a run can keep the causal log while
            skipping time-series cost.
        source: the label decision records from this bus carry
            (typically the flow/session name).
    """

    def __init__(
        self,
        sim: Simulator,
        enabled: bool = True,
        recorder: Optional[FlightRecorder] = None,
        source: str = "session",
    ) -> None:
        self.sim = sim
        self.enabled = enabled
        self.tracer = Tracer()
        self.recorder = recorder
        self.source = source
        self.probes: list["Probe"] = []
        self._samplers: list[PeriodicSampler] = []

    # ------------------------------------------------------- subscriptions

    def subscribe(
        self, probe: "Probe", start: float = 0.0
    ) -> Optional[PeriodicSampler]:
        """Register ``probe`` and start sampling it (unless disabled).

        Returns the sampler driving the probe, or ``None`` when the bus
        is disabled (the probe stays registered but is never sampled).
        """
        self.probes.append(probe)
        probe.bind(self)
        if not self.enabled:
            return None
        sampler = PeriodicSampler(
            self.sim, probe.period, probe.sample, start=start)
        self._samplers.append(sampler)
        return sampler

    # ------------------------------------------------------------- sinks

    def record(self, name: str, time: float, value: float) -> None:
        """Append one ad-hoc sample to channel ``name`` (dropped when
        disabled); a probe's periodic samples go through ``Probe.store``."""
        if self.enabled:
            self.tracer.record(name, time, value)

    def log_event(self, time: float, kind: str, **fields: object) -> None:
        """Record a discrete event (dropped when disabled)."""
        if self.enabled:
            self.tracer.log_event(time, kind, **fields)

    def event_hook(self) -> Optional[EventHook]:
        """An ``on_event(t, kind, fields)`` callable, or None if disabled.

        Producers treat ``None`` as "don't even build the event", which
        keeps the disabled path allocation-free. Each event is stored
        once: with an enabled flight recorder attached, its ring and
        the tracer's :attr:`~repro.sim.trace.Tracer.log` hold the same
        ``(t, kind, fields, source)`` entry, and the recorder keeps
        working even when the bus itself is disabled (causal log
        without time-series cost). ``None`` only when both sinks are
        off. The hook returns the entry it stored (the ownership rule
        at :data:`~repro.telemetry.recorder.RecorderHook`).
        """
        log = self.tracer.log
        recorder = self.recorder
        if recorder is not None and recorder.enabled:
            return recorder.hook(self.source,
                                 log if self.enabled else None)
        if not self.enabled:
            return None

        def _log(t: float, kind: str, fields: EventFields) -> tuple:
            entry = (t, kind, fields)
            log.append(entry)
            return entry

        return _log

    # ------------------------------------------------------------ queries

    def series(self, name: str) -> TimeSeries:
        """The recorded channel ``name`` (raises KeyError if absent)."""
        return self.tracer.get(name)

    def stop(self) -> None:
        """Stop every sampler this bus scheduled."""
        for sampler in self._samplers:
            sampler.stop()
