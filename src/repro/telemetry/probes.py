"""Probes: the telemetry channels a bus can sample.

Each probe is a small object with a desired sampling ``period``, the
names of its ``channels()`` and a ``sample(now)`` method that stores one
value per channel: names are formatted and looked up on the first sample
only. A probe's channels share one ``array('d')`` clock, so a sample
instant is stored once, and each channel keeps its values in a typed
array picked by its first sample (:func:`~repro.sim.trace.typed_store`).
Probes are inert until subscribed; a disabled bus registers them without
ever sampling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.sim.link import Link
from repro.sim.trace import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.bus import TelemetryBus


class Probe:
    """Base class: a periodically sampled telemetry channel."""

    def __init__(self, period: float = 0.1) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = period
        self.bus: Optional["TelemetryBus"] = None
        self._series: Optional[list[TimeSeries]] = None
        #: Per channel: its store's ``append`` and the type it last took.
        self._appends: list[Callable[[Any], None]] = []
        self._types: list[type] = []

    def bind(self, bus: "TelemetryBus") -> None:
        self.bus = bus

    def sample(self, now: float) -> None:
        raise NotImplementedError

    def channels(self) -> list[str]:
        """Channel names, in the order :meth:`sample` stores values."""
        raise NotImplementedError

    def store(self, now: float, values: Sequence[Any]) -> None:
        """Append ``values``, one per channel, at time ``now``.

        The first call resolves the channels to their series, so each
        enters ``tracer.series`` with its first sample. The channels
        share one clock (:meth:`~repro.sim.trace.Tracer.lockstep`):
        ``now`` is checked and stored once, then one value per channel.
        A sample whose value types differ from the last one's (checked
        once per sample, not per value) moves each channel whose type
        changed from its array to a list, so reads keep every type.
        """
        series = self._series
        if series is None:
            bus = self.bus
            assert bus is not None, "probe sampled before subscribe()"
            if not bus.enabled:
                return
            series = self._series = bus.tracer.lockstep(
                self.channels(), values)
            self._appends = [ts.values.append for ts in series]
            self._types = list(map(type, values))
        times = series[0].times
        if times and now < times[-1]:
            raise ValueError(f"{series[0].name}: time went backwards "
                             f"({now} < {times[-1]})")
        types = list(map(type, values))
        if types != self._types:
            self._loosen(series, types)
        times.append(now)
        for append, value in zip(self._appends, values):
            append(value)

    def _loosen(self, series: list[TimeSeries], types: list[type]) -> None:
        """Move each channel whose value type changed to a list."""
        for i, (ts, kind) in enumerate(zip(series, types)):
            if kind is not self._types[i] and not isinstance(ts.values,
                                                             list):
                ts.values = list(ts.values)
                self._appends[i] = ts.values.append
        self._types = types


class SessionProbe(Probe):
    """Every series the paper's figures plot, for one streaming session:

    - ``rate``            -- RAP transmission rate (bytes/s)
    - ``consumption``     -- na * C (bytes/s)
    - ``layers``          -- number of active layers
    - ``send_rate_L{i}``  -- per-layer bandwidth share (bytes/s)
    - ``drain_rate_L{i}`` -- per-layer buffer drain rate at the receiver
    - ``buffer_L{i}``     -- per-layer buffered bytes at the receiver
    - ``buffer_est_L{i}`` -- the server's estimate of the same
    - ``total_buffer``    -- sum of receiver buffers
    - ``srtt``            -- the transport's smoothed RTT

    ``prefix`` namespaces the channels (e.g. ``"f3."``) when several
    sessions share one bus.
    """

    def __init__(self, server: Any, client: Any, period: float = 0.1,
                 prefix: str = "") -> None:
        # server/client are duck-typed (``Any``): probes only read the
        # handful of attributes listed above, and ablation variants
        # substitute their own server/adapter classes freely.
        super().__init__(period)
        self.server = server
        self.client = client
        self.prefix = prefix
        max_layers: int = server.config.max_layers
        self._last_sent = [0.0] * max_layers
        self._last_consumed = [0.0] * max_layers
        self._last_delivered = [0.0] * max_layers

    def channels(self) -> list[str]:
        pre = self.prefix
        names = [f"{pre}{name}" for name in (
            "rate", "consumption", "layers", "total_buffer", "srtt")]
        for i in range(self.server.config.max_layers):
            names += [f"{pre}send_rate_L{i}", f"{pre}drain_rate_L{i}",
                      f"{pre}buffer_L{i}", f"{pre}buffer_est_L{i}"]
        return names

    def sample(self, now: float) -> None:
        adapter = self.server.adapter
        playout = self.client.playout
        playout.advance(now)

        rap = self.server.rap
        values = [rap.rate, adapter.consumption, adapter.active_layers,
                  playout.total_buffered(), rap.srtt]
        dt = self.period
        for i in range(self.server.config.max_layers):
            sent = adapter.sent_bytes_per_layer[i]
            consumed = playout.buffers.consumed(i)
            delivered = playout.buffers.delivered(i)
            values += (
                (sent - self._last_sent[i]) / dt,
                max(0.0, (consumed - self._last_consumed[i])
                    - (delivered - self._last_delivered[i])) / dt,
                playout.level(i),
                adapter.buffers.level(i))
            self._last_sent[i] = sent
            self._last_consumed[i] = consumed
            self._last_delivered[i] = delivered
        self.store(now, values)


class QueueOccupancyProbe(Probe):
    """Occupancy and drop count of one link's output queue.

    Channels: ``{name}_qlen`` (packets), ``{name}_qbytes`` (bytes),
    ``{name}_drops`` (cumulative).
    """

    def __init__(self, link: Link, name: str = "bottleneck",
                 period: float = 0.1) -> None:
        super().__init__(period)
        self.link = link
        self.name = name

    def channels(self) -> list[str]:
        return [f"{self.name}_{what}" for what in ("qlen", "qbytes", "drops")]

    def sample(self, now: float) -> None:
        queue = self.link.queue
        self.store(now, (float(len(queue)), float(queue.byte_length),
                         float(queue.drops)))


class TransportRateProbe(Probe):
    """Transmission rate of one transport agent (any with ``.rate``)."""

    def __init__(self, transport: Any, channel: str,
                 period: float = 0.1) -> None:
        super().__init__(period)
        self.transport = transport
        self.channel = channel

    def channels(self) -> list[str]:
        return [self.channel]

    def sample(self, now: float) -> None:
        self.store(now, (self.transport.rate,))
