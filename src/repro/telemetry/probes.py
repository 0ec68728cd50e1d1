"""Probes: the telemetry channels a bus can sample.

Each probe is a small object with a desired sampling ``period`` and a
``sample(now)`` method that pushes values into its bus. Probes are inert
until subscribed; a disabled bus registers them without ever sampling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.sim.link import Link

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.bus import TelemetryBus


class Probe:
    """Base class: a periodically sampled telemetry channel."""

    def __init__(self, period: float = 0.1) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = period
        self.bus: Optional["TelemetryBus"] = None

    def bind(self, bus: "TelemetryBus") -> None:
        self.bus = bus

    def sample(self, now: float) -> None:
        raise NotImplementedError


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

    def sample(self, now: float) -> None:
        bus = self.bus
        assert bus is not None, "probe sampled before subscribe()"
        adapter = self.server.adapter
        playout = self.client.playout
        playout.advance(now)

        pre = self.prefix
        bus.record(f"{pre}rate", now, self.server.rap.rate)
        bus.record(f"{pre}consumption", now, adapter.consumption)
        bus.record(f"{pre}layers", now, adapter.active_layers)
        bus.record(f"{pre}total_buffer", now, playout.total_buffered())
        bus.record(f"{pre}srtt", now, self.server.rap.srtt)

        dt = self.period
        for i in range(self.server.config.max_layers):
            sent = adapter.sent_bytes_per_layer[i]
            bus.record(f"{pre}send_rate_L{i}", now,
                       (sent - self._last_sent[i]) / dt)
            self._last_sent[i] = sent

            consumed = playout.buffers.consumed(i)
            delivered = playout.buffers.delivered(i)
            drain = max(0.0, (consumed - self._last_consumed[i])
                        - (delivered - self._last_delivered[i])) / dt
            bus.record(f"{pre}drain_rate_L{i}", now, drain)
            self._last_consumed[i] = consumed
            self._last_delivered[i] = delivered

            bus.record(f"{pre}buffer_L{i}", now, playout.level(i))
            bus.record(f"{pre}buffer_est_L{i}", now,
                       adapter.buffers.level(i))


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

    def sample(self, now: float) -> None:
        bus = self.bus
        assert bus is not None, "probe sampled before subscribe()"
        queue = self.link.queue
        bus.record(f"{self.name}_qlen", now, float(len(queue)))
        bus.record(f"{self.name}_qbytes", now, float(queue.byte_length))
        bus.record(f"{self.name}_drops", now, float(queue.drops))


class TransportRateProbe(Probe):
    """Transmission rate of one transport agent (any with ``.rate``)."""

    def __init__(self, transport: Any, channel: str,
                 period: float = 0.1) -> None:
        super().__init__(period)
        self.transport = transport
        self.channel = channel

    def sample(self, now: float) -> None:
        bus = self.bus
        assert bus is not None, "probe sampled before subscribe()"
        bus.record(self.channel, now, self.transport.rate)
