"""The video server: quality adaptation riding on RAP.

The paper's target environment is a server playing back stored layered
video on demand. The server side is exactly two cooperating pieces: a RAP
source providing congestion-controlled transmission opportunities, and a
:class:`~repro.core.adapter.QualityAdapter` deciding which layer each
opportunity carries. ACKs feed the adapter's receiver-buffer estimate;
backoff notifications trigger the drop rule and freeze the draining path.

The wiring itself lives in the transport-agnostic :class:`~repro.server.
core.SessionCore`; this class binds it to the *simulated* RAP transport
and drives its ticks from the event loop. The asyncio service
(:mod:`repro.service`) binds the identical core to a real socket pacer.
"""

from __future__ import annotations

from typing import Optional

from repro.core.adapter import QualityAdapter
from repro.core.config import QAConfig
from repro.media.stream import LayeredStream
from repro.server.core import SessionCore
from repro.sim.engine import Simulator
from repro.sim.node import Host
from repro.sim.trace import PeriodicSampler
from repro.transport.rap import RapSource


class VideoServer:
    """Streams one layered clip to one client over simulated RAP."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        client_name: str,
        config: QAConfig,
        stream: Optional[LayeredStream] = None,
        start: float = 0.0,
        on_event=None,
        span_hook=None,
        adapter_cls: type[QualityAdapter] = QualityAdapter,
        transport_cls: type[RapSource] = RapSource,
    ) -> None:
        self.sim = sim
        self.core = SessionCore(
            config,
            now_fn=lambda: sim.now,
            stream=stream,
            start=start,
            on_event=on_event,
            span_hook=span_hook,
            adapter_cls=adapter_cls,
        )
        # Any AIMD transport with RAP's hook signature works here (the
        # paper's section-7 plan); see repro.transport.aimd. The
        # adapter's event hook is shared with the transport so backoffs,
        # losses and timeouts land in the same decision log as the
        # add/drop choices they caused.
        self.rap = transport_cls(
            sim, host, client_name,
            packet_size=self.core.config.packet_size,
            start=start,
            payload_picker=self.core.pick_payload,
            on_ack=self.core.on_ack,
            on_loss=self.core.on_loss,
            on_backoff=self.core.on_backoff,
            on_event=on_event,
        )
        self.core.bind_transport(self.rap)
        self._ticker = PeriodicSampler(
            sim, self.core.config.drain_period,
            lambda _now: self.core.tick(),
            start=start)

    @property
    def config(self) -> QAConfig:
        """The effective (possibly layer-narrowed) session config."""
        return self.core.config

    @property
    def stream(self) -> LayeredStream:
        return self.core.stream

    @property
    def adapter(self) -> QualityAdapter:
        return self.core.adapter

    @property
    def flow_id(self) -> int:
        return self.rap.flow_id

    @property
    def active_layers(self) -> int:
        return self.core.active_layers

    def stop(self) -> None:
        self.rap.stop()
        self._ticker.stop()
