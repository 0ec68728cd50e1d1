"""Unit tests for the analytic fluid engine."""

from __future__ import annotations

import pytest

from repro.core.config import QAConfig
from repro.core.fluid import ScriptedAimd
from repro.core.metrics import DropCause
from repro.sim.fluid import FluidEngine
from repro.sim.rng import SeededRNG, derive_seed


def make_engine(initial_rate=3750.0, slope=900.0, backoffs=(28.0,),
                duration=40.0, sample_period=0.02, on_event=None,
                max_rate=15_625.0, **config_overrides):
    defaults = dict(layer_rate=2500.0, max_layers=5, k_max=1,
                    packet_size=200, startup_delay=0.5)
    defaults.update(config_overrides)
    config = QAConfig(**defaults)
    aimd = ScriptedAimd(initial_rate, slope, backoff_times=backoffs,
                        max_rate=max_rate)
    return FluidEngine(config, aimd, duration=duration,
                       sample_period=sample_period, on_event=on_event)


def test_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        make_engine(duration=0.0)


def test_filling_climbs_the_add_ladder_in_order():
    result = make_engine().run()
    added_layers = [layer for _, layer in result.metrics.adds]
    assert added_layers == sorted(added_layers)
    assert result.final_layers == 5
    # Closed-form epochs, not sampler steps: a 40 s figure-5 style run
    # resolves in a handful of epochs.
    assert result.epochs < 50


def test_deep_backoffs_trigger_rule_drops():
    result = make_engine(initial_rate=11_000.0, slope=800.0,
                         backoffs=(14.0, 15.0, 16.5),
                         max_rate=12_500.0,
                         max_layers=4, k_max=2).run()
    assert result.metrics.drops, "expected at least one drop"
    assert all(ev.cause is DropCause.RULE for ev in result.metrics.drops)
    first = result.metrics.drops[0]
    assert 14.0 <= first.time <= 18.0
    assert result.discarded_bytes >= 0.0


def test_starved_base_layer_stalls_and_accounts_shortfall():
    # Arrivals at ~600 B/s against a 2500 B/s base layer: playout must
    # stall and the unmet consumption must be tracked, not invented.
    result = make_engine(initial_rate=600.0, slope=1.0, backoffs=(),
                         duration=20.0).run()
    assert result.metrics.stall_count >= 1
    assert result.stall_shortfall_bytes > 0.0
    assert result.metrics.stall_time > 0.0
    assert result.final_layers == 1


def test_conservation_closes_the_byte_ledger():
    for engine in (make_engine(),
                   make_engine(initial_rate=11_000.0, slope=800.0,
                               backoffs=(14.0, 15.0, 16.5),
                               max_rate=12_500.0,
                               max_layers=4, k_max=2)):
        result = engine.run()
        assert abs(result.conservation_error) <= max(
            1e-6 * result.sent_bytes, 1e-6)


def test_event_hook_sees_the_decision_stream():
    events = []
    result = make_engine(
        on_event=lambda t, kind, fields: events.append((t, kind))).run()
    kinds = {kind for _, kind in events}
    assert "playout_start" in kinds
    assert "add" in kinds
    assert len([k for _, k in events if k == "add"]) == len(
        result.metrics.adds)
    times = [t for t, _ in events]
    assert times == sorted(times)


def test_summary_reports_trace_derived_means():
    summary = make_engine().run().summary()
    assert summary["sent_bytes"] > 0
    assert 1.0 <= summary["mean_layers"] <= 5.0
    assert summary["mean_rate"] > 0


# ---------------------------------------------------------------- pins
#
# The first three were recorded at commit c48acff, where every probe of
# the add residual built a StateSequence and re-read the sawtooth
# anchor. The kernel and the window binding promise the same floats, so
# ``==`` and no tolerance.


def seeded_backoffs(seed, count, lo, hi):
    rng = SeededRNG(derive_seed(seed, "fluid-pin"))
    return tuple(sorted(rng.uniform(lo, hi) for _ in range(count)))


PINNED_RUNS = {
    # Capped below the eight-layer consumption: rides five or six layers.
    "capped": (
        dict(initial_rate=20_000.0, slope=1000.0, max_rate=32_000.0,
             backoffs=seeded_backoffs(11, 8, 5.0, 115.0), duration=120.0,
             layer_rate=5000.0, max_layers=8, k_max=2, startup_delay=1.0),
        (24, 2635723.577826712, 20636.40394208388, 5,
         [(0.29778313636779785, 1), (0.8544822141258237, 2),
          (4.307179547085192, 3), (9.83135802001469, 4),
          (20.97247322484504, 5), (39.297197468782265, 3),
          (49.298431201714486, 4), (83.2409276976357, 3),
          (89.00596617819065, 4), (100.0876462168282, 5)],
         [(25.672087928198227, 5), (26.988877546336898, 4),
          (26.988877546336898, 3), (63.77495181185867, 4),
          (69.05511602362056, 3), (109.57870347567055, 5)])),
    # Reaches the three-layer ceiling, loses the top layer late.
    "ceiling": (
        dict(initial_rate=8_000.0, slope=100.0, max_rate=None,
             backoffs=seeded_backoffs(12, 4, 20.0, 55.0), duration=90.0,
             layer_rate=2500.0, max_layers=3, k_max=2, startup_delay=1.0),
        (8, 608144.8185732943, 61179.638811776706, 2,
         [(0.9373006224632263, 1), (11.440399503784455, 2)],
         [(52.226471408391475, 2)])),
    # Six back-offs inside five seconds: the base layer stalls once.
    "stall": (
        dict(initial_rate=4_000.0, slope=120.0, max_rate=None,
             backoffs=seeded_backoffs(13, 6, 2.0, 20.0), duration=60.0,
             layer_rate=2500.0, max_layers=4, k_max=1, startup_delay=0.5),
        (12, 186272.38769678405, 28927.919646149436, 2,
         [(11.201297398871155, 1), (56.90853822279537, 1)],
         [(13.197820761606941, 1)])),
    # Recorded at commit 345922d, where ``first_crossing`` walked all 64
    # grid points. Decision slope 5x the scripted one: the rule residual
    # reaches ``t_fill`` as float dust (-1.8e-12 at 44.72 s, after the
    # drop at 40.26 s), the case that forbids trusting ``residual(hi)``.
    "dust": (
        dict(initial_rate=14_000.0, slope=1000.0, max_rate=40_000.0,
             backoffs=seeded_backoffs(14, 8, 5.0, 85.0), duration=90.0,
             layer_rate=2500.0, max_layers=8, k_max=2, startup_delay=1.0,
             slope_override=5000.0),
        (38, 1670657.8153383497, 66143.08847571391, 8,
         [(0.2126704454421997, 1), (0.22731701751325772, 2),
          (0.3203748157634231, 3), (0.5001045811292592, 4),
          (0.7917973857650967, 5), (2.618557904266401, 6),
          (6.38614830257746, 7), (25.20789547949773, 5),
          (27.145063786698437, 6), (29.61331187558483, 7),
          (46.081895201235184, 5), (47.93269178497246, 6),
          (50.348957880383864, 7), (60.27035155657185, 6),
          (61.9753878305473, 7)],
         [(19.172048667855844, 7), (19.94412439685861, 6),
          (20.865677036425375, 5), (38.668232366177506, 7),
          (39.41741872859622, 6), (40.25612089450398, 5),
          (53.10595647466752, 7), (53.95657378230469, 6)])),
    # Same commit. Capped below the five-layer consumption: the fifth
    # layer "drains forever" on the plateau until the rule drops it.
    "plateau": (
        dict(initial_rate=9_000.0, slope=800.0, max_rate=11_000.0,
             backoffs=seeded_backoffs(15, 5, 5.0, 75.0), duration=80.0,
             layer_rate=2500.0, max_layers=6, k_max=2, startup_delay=1.0),
        (16, 771201.7030389836, 9755.6473875968, 4,
         [(0.337521493434906, 1), (0.8030052708435989, 2),
          (3.457589311372046, 3), (20.612691809735196, 3),
          (42.48769167930817, 4), (68.44017063501596, 3)],
         [(9.921197463302319, 3), (54.47129390945561, 4),
          (58.18407432322818, 3)])),
}


def behaviour(result):
    return (result.epochs, result.sent_bytes, result.final_buffer,
            result.final_layers, result.metrics.adds,
            [(event.time, event.layer) for event in result.metrics.drops])


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_seeded_scripts_reproduce_their_floats(name):
    overrides, expected = PINNED_RUNS[name]
    result = make_engine(sample_period=None, **overrides).run()
    assert behaviour(result) == expected
    assert (result.metrics.stall_count > 0) == (name == "stall")


def test_sampling_reads_the_same_closed_forms():
    overrides, expected = PINNED_RUNS["ceiling"]
    result = make_engine(sample_period=0.5, **overrides).run()
    assert behaviour(result) == expected
    total = result.tracer.get("total_buffer")
    assert len(total.values) == 181
    assert total.time_average() == 88052.82140720975
    assert result.tracer.get("buffer_L1").time_average() == 7673.15867356238
