"""One law, two clocks: the simulator's timers and the service's pacer.

A lossy-dumbbell ``RapSource`` run is recorded at the law boundary —
every send, ACK, additive step and timeout check with the instant the
simulator handed it over — and the recording is replayed through a
``RapPacer`` on a scripted clock. Both drive the same controller, so
the trajectories must be *equal*, not merely close.
"""

from repro.service.pacing import RapPacer
from repro.sim.topology import Dumbbell, DumbbellConfig
from repro.transport.law import Feedback
from repro.transport.rap import RapSink, RapSource

PRIMITIVES = ("track", "on_ack", "additive_increase", "check_timeout")


def observe(law, result):
    """What one primitive call did, reduced to comparable values."""
    seqs = None
    if isinstance(result, Feedback):
        seqs = ([s for s, _, _ in result.acked],
                [s for s, _, _ in result.lost],
                result.backoff_rate, result.trigger_seq,
                result.timed_out, result.idle)
    return (law.rate, law.srtt, law.rttvar, law.packets_lost,
            law.backoffs, law.timeouts, seqs)


def tap(law, calls, trajectory):
    """Record every primitive call on ``law`` and what it did."""
    for name in PRIMITIVES:
        def recorded(*args, _inner=getattr(law, name), _name=name):
            result = _inner(*args)
            calls.append((_name, args))
            trajectory.append(observe(law, result))
            return result
        setattr(law, name, recorded)


def test_rap_source_and_rap_pacer_walk_the_same_trajectory(sim):
    net = Dumbbell(sim, DumbbellConfig(
        n_pairs=1, bottleneck_bandwidth=20_000,
        queue_capacity_packets=10))
    src, dst = net.pair(0)
    source = RapSource(sim, src, dst.name, packet_size=500)
    RapSink(sim, dst, src.name, source.flow_id)
    calls, simulated = [], []
    tap(source.law, calls, simulated)
    sim.run(until=40.0)
    assert source.stats.backoffs > 3 and source.stats.packets_lost > 3

    # A floor and cap that never bind: the pacer's guards stay out of it.
    pacer = RapPacer(500, 0.0, srtt_floor=1e-9, max_rate=None)
    scripted = []
    for name, args in calls:
        scripted.append(observe(pacer, getattr(pacer, name)(*args)))

    assert scripted == simulated
    assert pacer.next_seq == source.law.next_seq
    assert pacer.outstanding == source.law.outstanding
