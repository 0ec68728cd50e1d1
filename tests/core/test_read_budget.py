"""What an adapter entry point reads, pinned.

``pick_layer``, ``tick`` and ``on_backoff`` each read the rate once and
take one snapshot of the buffer levels; everything further down the call
works from those two values, and only a layer move makes the snapshot
stale. A second rate read or a second ``levels()`` on the per-packet
path is the rebuilt input these counts keep out. The pinned run at the
end holds what the mechanism decided before the reads were hoisted: the
counts may fall, the decisions may not move.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core.config import QAConfig
from repro.core.metrics import DropCause
from repro.scenario import QAFlowSpec, Scenario, ScenarioConfig
from repro.server import SessionCore, SessionTape
from repro.sim.engine import Simulator
from repro.sim.topology import Dumbbell, DumbbellConfig
from repro.sim.trace import PeriodicSampler
from repro.transport.rap import RapSink, RapSource

ENTRY_POINTS = ("pick_layer", "tick", "on_backoff")


def attribute_snapshots(adapter) -> list[tuple[str, int, int, int, int]]:
    """Count the ``levels()`` calls of ``adapter``'s buffer set under
    each entry-point call: ``(entry point, levels() calls, adds, drops,
    of them underflow drops)`` per call, appended as the run goes."""
    snapshots = [0]
    per_entry: list[tuple[str, int, int, int, int]] = []

    def counted_levels(n, inner=adapter.buffers.levels):
        snapshots[0] += 1
        return inner(n)

    def attributed(name):
        inner = getattr(adapter, name)

        def entry(*args):
            metrics = adapter.metrics
            before = snapshots[0], len(metrics.adds), len(metrics.drops)
            result = inner(*args)
            drops = metrics.drops[before[2]:]
            per_entry.append((
                name, snapshots[0] - before[0],
                len(metrics.adds) - before[1], len(drops),
                sum(e.cause is DropCause.UNDERFLOW for e in drops)))
            return result
        return entry

    adapter.buffers.levels = counted_levels
    for name in ENTRY_POINTS:
        setattr(adapter, name, attributed(name))
    return per_entry


def one_snapshot_per_entry(per_entry) -> bool:
    """One ``levels()`` per entry that moves no layer. Only a drop
    re-reads: once to measure what the layer held and once more for
    whoever carries on with one layer fewer -- except after an underflow
    drop, which happens before the entry's own snapshot. An add ends its
    entry (the new layer gets the packet; an unhooked tick has nothing
    left to do)."""
    return all(n == 1 + 2 * drops - underflow
               for _, n, _, drops, underflow in per_entry)


@pytest.fixture(scope="module")
def taped():
    """One congested session (seeded by its fixed wiring) on tape.

    The core shares a 30 KB/s, 15-packet dumbbell with one bare RAP
    flow, so it fills, adds, backs off, drains and drops. Every
    ``levels()`` call of the server-side buffer set is attributed to the
    entry point it was made under.
    """
    config = QAConfig(layer_rate=5000.0, max_layers=4, packet_size=500,
                      k_max=2)
    sim = Simulator()
    net = Dumbbell(sim, DumbbellConfig(
        n_pairs=2, bottleneck_bandwidth=30_000,
        queue_capacity_packets=15))
    src, dst = net.pair(0)
    tape = SessionTape()
    core = SessionCore(config, now_fn=lambda: sim.now, tape=tape)
    rap = RapSource(sim, src, dst.name, packet_size=config.packet_size,
                    payload_picker=core.pick_payload, on_ack=core.on_ack,
                    on_loss=core.on_loss, on_backoff=core.on_backoff)
    core.bind_transport(rap)
    PeriodicSampler(sim, config.drain_period, lambda _now: core.tick())
    RapSink(sim, dst, src.name, rap.flow_id)
    rival_src, rival_dst = net.pair(1)
    rival = RapSource(sim, rival_src, rival_dst.name,
                      packet_size=config.packet_size)
    RapSink(sim, rival_dst, rival_src.name, rival.flow_id)

    per_entry = attribute_snapshots(core.adapter)
    starts = []
    buffers = core.adapter.buffers

    def counted_start(layer, now, inner=buffers.start_consuming):
        starts.append(layer)
        inner(layer, now)

    buffers.start_consuming = counted_start
    sim.run(until=20.0)
    return SimpleNamespace(core=core, tape=tape, per_entry=per_entry,
                           playout_starts=len(starts))


def test_the_taped_session_took_every_path(taped):
    tape, per_entry = taped.tape, taped.per_entry
    metrics = taped.core.adapter.metrics
    assert len(metrics.adds) >= 3 and len(metrics.drops) >= 3
    calls = Counter(entry[0] for entry in tape.calls)
    assert calls["pick"] > 500 and calls["tick"] > 150
    assert calls["backoff"] >= 3 and calls["loss"] >= 3
    assert sum(entry[2] for entry in per_entry) == len(metrics.adds)
    assert sum(entry[3] for entry in per_entry) == len(metrics.drops)


def test_one_rate_read_per_entry(taped):
    tape = taped.tape
    calls = Counter(entry[0] for entry in tape.calls)
    # 3.4 reads per pick before the reads were hoisted.
    assert len(tape.rates) == (
        calls["pick"] + calls["tick"] + calls["backoff"])


def test_one_clock_read_per_entry_and_per_layer_event(taped):
    tape = taped.tape
    calls = Counter(entry[0] for entry in tape.calls)
    metrics = taped.core.adapter.metrics
    # No decision hook is bound; each emitted event would add one more.
    assert len(tape.clock) == (
        calls["pick"] + calls["tick"] + calls["backoff"]
        + len(metrics.adds) + len(metrics.drops) + taped.playout_starts)


def test_one_slope_read_per_tick(taped):
    tape = taped.tape
    ticks = sum(1 for entry in tape.calls if entry[0] == "tick")
    # + the very first use, before any tick has sampled the slope.
    assert len(tape.slopes) == ticks + 1


def test_one_levels_snapshot_per_entry_that_moves_no_layer(taped):
    per_entry = taped.per_entry
    assert len(per_entry) > 700
    quiet = {(name, n) for name, n, adds, drops, _ in per_entry
             if not adds and not drops}
    assert quiet == {(name, 1) for name in ENTRY_POINTS}
    assert one_snapshot_per_entry(per_entry)


def test_a_tape_cut_here_replays_here(taped):
    core = taped.core
    twin = SessionCore.replay(taped.tape, core.config)
    assert twin.adapter.metrics.adds == core.adapter.metrics.adds
    assert ([(e.time, e.layer, e.cause) for e in twin.adapter.metrics.drops]
            == [(e.time, e.layer, e.cause)
                for e in core.adapter.metrics.drops])
    assert (twin.adapter.sent_bytes_per_layer
            == core.adapter.sent_bytes_per_layer)


# ------------------------------------------------------------ pinned run

PINNED_CONFIG = QAConfig(layer_rate=4000.0, max_layers=5, packet_size=500,
                         k_max=2)

#: Recorded at the commit before the reads were hoisted, except the event
#: count: 11603 then, 8127 since the links stopped paying for drains and
#: for the router hop in front of the sinks, 8123 since coincident RAP
#: deadlines share one event; and except ``played``, which
#: fell when a layer was dropped (166199.99999999965 and
#: 294728.80321825517 then) until it became a running counter.
PINNED = {
    "events": 8123,
    "flows": [
        {"adds": [(0.7, 1), (0.7999999999999999, 2),
                  (0.8999999999999999, 3), (0.9999999999999999, 4),
                  (9.699999999999982, 3), (9.89999999999998, 4),
                  (12.299999999999972, 2), (12.499999999999972, 3),
                  (15.399999999999961, 2)],
         "drops": [(5.540975644978063, 4, "underflow"),
                   (8.399999999999986, 3, "rule"),
                   (11.099999999999977, 4, "rule"),
                   (11.378542137897323, 3, "rule"),
                   (11.378542137897323, 2, "rule"),
                   (14.08106103434248, 3, "underflow"),
                   (14.295208804564135, 2, "rule")],
         "sent": [86000.0, 129500.0, 82000.0, 54500.0, 17000.0],
         "played": 256999.99999999927,
         "stall_time": 0.08333333333333393,
         "gaps": {1: 1595.4698849219103, 2: 6123.456595343017,
                  3: 7990.123262009982, 4: 5390.123262009339}},
        {"adds": [(1.15, 1), (1.25, 2), (1.35, 3),
                  (3.9500000000000024, 3), (6.749999999999993, 3),
                  (7.049999999999992, 4), (9.849999999999982, 4)],
         "drops": [(2.606717141046736, 3, "underflow"),
                   (5.7499999999999964, 3, "underflow"),
                   (8.449999999999987, 4, "rule")],
         "sent": [90500.0, 100500.0, 91500.0, 76500.0, 39000.0],
         "played": 300728.8032182537,
         "stall_time": 0.0,
         "gaps": {1: 1423.4565953427855, 2: 3390.1232620108253,
                  3: 6333.333333334354, 4: 12333.33333333326}},
    ],
}


@pytest.mark.parametrize("record_decisions", [False, True])
def test_pinned_two_flow_run(record_decisions):
    """Two adaptive flows on a 30 KB/s, 20-packet dumbbell for 20 s:
    adds, rule and underflow drops, draining phases. With decision
    records on, the adapter reads the clock once more per event and must
    still decide the same."""
    scenario = Scenario(ScenarioConfig(
        flows=(QAFlowSpec(PINNED_CONFIG),
               QAFlowSpec(PINNED_CONFIG, start=0.35)),
        topology=DumbbellConfig(bottleneck_bandwidth=30_000.0,
                                queue_capacity_packets=20),
        duration=20.0, seed=11, telemetry=False,
        record_decisions=record_decisions))
    per_entry = [attribute_snapshots(flow.session.server.adapter)
                 for flow in scenario.flows]
    scenario.run()
    got = {"events": scenario.sim.events_processed, "flows": []}
    for flow in scenario.flows:
        adapter = flow.session.server.adapter
        stats = flow.session.client.stats
        got["flows"].append({
            "adds": adapter.metrics.adds,
            "drops": [(e.time, e.layer, e.cause.value)
                      for e in adapter.metrics.drops],
            "sent": adapter.sent_bytes_per_layer,
            "played": stats.played_bytes,
            "stall_time": stats.stall_time,
            "gaps": stats.gap_bytes_per_layer,
        })
    assert got == PINNED
    if not record_decisions:  # a hooked tick re-reads to log its add
        assert all(one_snapshot_per_entry(entries) for entries in per_entry)
        assert any(entry[4] for entries in per_entry for entry in entries)
