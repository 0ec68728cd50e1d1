"""The adapter's decisions in every estimator mode, pinned.

The benchmark workloads run only ``feedback="send"`` with neither
retransmission nor flow control, so a change to the per-packet path
could move the other modes without any digest noticing. Each case here
is one short congested session -- an adaptive flow and a bare RAP rival
on a 30 KB/s, 15-packet dumbbell, wired like ``test_read_budget``'s
taped session plus the video client -- and its pin is a sha256 of what
the adapter decided and what the client saw: adds, drops, bytes sent
per layer, bytes retransmitted, and the playout's stalls, gaps and
start. (``played_bytes`` is left out: it became a running counter after
these were recorded; ``test_read_budget`` pins it.)
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.config import QAConfig
from repro.server import SessionCore
from repro.server.client import VideoClient
from repro.sim.engine import Simulator
from repro.sim.topology import Dumbbell, DumbbellConfig
from repro.sim.trace import PeriodicSampler
from repro.transport.rap import RapSink, RapSource


def decisions(duration: float = 20.0, **fields) -> str:
    """sha256 of one session's decisions and playout under ``fields``."""
    config = QAConfig(layer_rate=5000.0, max_layers=4, packet_size=500,
                      k_max=2, **fields)
    sim = Simulator()
    net = Dumbbell(sim, DumbbellConfig(
        n_pairs=2, bottleneck_bandwidth=30_000,
        queue_capacity_packets=15))
    src, dst = net.pair(0)
    core = SessionCore(config, now_fn=lambda: sim.now)
    rap = RapSource(sim, src, dst.name, packet_size=config.packet_size,
                    payload_picker=core.pick_payload, on_ack=core.on_ack,
                    on_loss=core.on_loss, on_backoff=core.on_backoff)
    core.bind_transport(rap)
    PeriodicSampler(sim, config.drain_period, lambda _now: core.tick())
    client = VideoClient(sim, dst, src.name, rap.flow_id, config)
    rival_src, rival_dst = net.pair(1)
    rival = RapSource(sim, rival_src, rival_dst.name,
                      packet_size=config.packet_size)
    RapSink(sim, rival_dst, rival_src.name, rival.flow_id)
    sim.run(until=duration)
    adapter, stats = core.adapter, client.stats
    record = [
        adapter.metrics.adds,
        [(e.time, e.layer, e.cause.value) for e in adapter.metrics.drops],
        adapter.sent_bytes_per_layer,
        adapter.retransmitted_bytes,
        [stats.stall_count, stats.stall_time,
         sorted(stats.gap_bytes_per_layer.items()), stats.startup_time],
    ]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


#: Recorded before the per-packet path was flattened.
PINS = {
    ("send", 0, None):
        "b18835c3517688b23efa347196734e815ee09880da599776003a28e2b00ea31a",
    ("send", 0, 0.5):
        "d390cfbddfd70c9250434d46d69d587d4cce6acb8ee32683f149e8c0aa2b7efb",
    ("send", 1, None):
        "f69a702651818f3175e3eb7d8af5fd552943cb59ad46a8430eb7d014c5bc5480",
    ("send", 1, 0.5):
        "6a6aa1fe423562da87bba04fb46f6f9dbbeb420e21d365fa5b4390a258eb1e83",
    ("ack", 0, None):
        "30ddb814e4713e60600bd7a8fb3236628b669f10f7e91f2a8887f722f8a5d019",
    ("ack", 0, 0.5):
        "80837574d2684e6695ed38efda96c671ed693378f1a627db50f870964d6cfcc9",
    ("ack", 1, None):
        "02044be4af095791fb842a3742de3a5d0cd725d67c05d0d0754716ad3f4efe39",
    ("ack", 1, 0.5):
        "6b8c9acb6f1abb4bb810a4bbf5d008533e7d8eef70fca7e75520ec5295d81412",
    ("oracle", 0, None):
        "054cdd390a0927726c57b874101205dd710d757b7d32c5cfea356cf874b2996a",
    ("oracle", 0, 0.5):
        "86e6bff74019fca78126e705365d52060920025a8a3130510e02fa95ff7966c4",
    ("oracle", 1, None):
        "0cd793f8d8057b416bec0895aebc1917a115248253c417a5d82fd9fe549f415f",
    ("oracle", 1, 0.5):
        "ac5226c301aecd41a901d80a50c89bce1bbf1eddd80b492793e62ac86d0d291b",
}

#: The section 2.3 strawmen, in the default ("send") mode.
ALLOCATOR_PINS = {
    "equal_share":
        "da205471dddae199b1099e8f118f7b2146c79463c849300bffde86e2fe678a0f",
    "base_first":
        "7638b5b813540eb68d51f812f330dc2b987617003e52efe3a574a7fe70f900df",
}


@pytest.mark.parametrize("mode", sorted(PINS, key=repr), ids=repr)
def test_estimator_mode_decides_as_pinned(mode):
    feedback, retransmit_layers, max_buffer_seconds = mode
    assert decisions(feedback=feedback, retransmit_layers=retransmit_layers,
                     max_buffer_seconds=max_buffer_seconds) == PINS[mode]


@pytest.mark.parametrize("allocator", sorted(ALLOCATOR_PINS))
def test_strawman_allocator_decides_as_pinned(allocator):
    assert decisions(allocator=allocator) == ALLOCATOR_PINS[allocator]
