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
        A value whose type differs from its channel's last one moves
        that channel from its array to a list, so reads keep every type.
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
        times.append(now)
        for append, kind, value in zip(self._appends, self._types, values):
            if type(value) is not kind:
                append = self._loosen(append, type(value))
            append(value)

    def _loosen(self, append: Callable[[Any], None],
                kind: type) -> Callable[[Any], None]:
        """Move the channel ``append`` stores to, whose value type
        changed, to a list."""
        assert self._series is not None
        # Bound methods compare by the object they are bound to, so this
        # finds the channel without counting channels on every sample.
        channel = self._appends.index(append)
        ts = self._series[channel]
        if not isinstance(ts.values, list):
            ts.values = list(ts.values)
            self._appends[channel] = ts.values.append
        self._types[channel] = kind
        return self._appends[channel]


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
        # One pass over the live per-layer counters: sent, the client's
        # delivered/consumed, and the server's estimate of the same.
        sent = adapter.sent_bytes_per_layer
        delivered, consumed = playout.buffers.counters()
        est_delivered, est_consumed = adapter.buffers.counters()
        for now_sent, now_got, now_played, est_got, est_played, \
                last_sent, last_got, last_played in zip(
                    sent, delivered, consumed, est_delivered, est_consumed,
                    self._last_sent, self._last_delivered,
                    self._last_consumed):
            level = now_got - now_played
            estimate = est_got - est_played
            values += (
                (now_sent - last_sent) / dt,
                max(0.0, (now_played - last_played)
                    - (now_got - last_got)) / dt,
                level if level > 0.0 else 0.0,
                estimate if estimate > 0.0 else 0.0)
        layers = len(self._last_sent)
        self._last_sent = sent[:layers]
        self._last_delivered = delivered[:layers]
        self._last_consumed = consumed[:layers]
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
