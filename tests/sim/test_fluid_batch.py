"""Unit tests for the vectorized flow-class batch."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import QAConfig
from repro.experiments.flock_scale import batch_config
from repro.sim.fluid_batch import (
    BatchResult,
    FlowClassBatch,
    scripted_backoffs,
)

CONFIG = QAConfig(layer_rate=2500.0, max_layers=8, k_max=2)


def test_rejects_bad_shapes_and_spacing():
    ok = np.full((4, 2), np.inf)
    with pytest.raises(ValueError):
        FlowClassBatch(CONFIG, 0, 1000.0, 20_000.0, ok[:0], 10.0)
    with pytest.raises(ValueError):
        FlowClassBatch(CONFIG, 4, 1000.0, 20_000.0,
                       np.zeros(4), 10.0)  # 1-D script array
    tight = np.array([[5.0, 5.05]] + [[np.inf, np.inf]] * 3)
    with pytest.raises(ValueError):
        FlowClassBatch(CONFIG, 4, 1000.0, 20_000.0, tight, 10.0,
                       step=0.1)


@pytest.mark.parametrize("field, value", [
    ("add_rule", "buffer_and_rate"),
    ("add_rule", "average_bandwidth"),
    ("slope_override", 1000.0),
])
def test_rejects_a_config_it_would_not_honour(field, value):
    # FluidEngine honours both fields; the batch is one rule at the
    # scripted slope and must say so rather than run as buffer_only.
    config = CONFIG.with_(**{field: value})
    with pytest.raises(ValueError, match=field):
        FlowClassBatch(config, 4, 1000.0, 20_000.0,
                       np.full((4, 2), np.inf), 10.0)


def test_the_flock_config_is_one_it_honours():
    assert FlowClassBatch.jittered(batch_config(), 4, slope=1000.0,
                                   duration=10.0).n == 4


def test_jittered_population_runs_and_conserves():
    batch = FlowClassBatch.jittered(CONFIG, 200, slope=1000.0,
                                    duration=30.0, seed=3)
    result = batch.run()
    assert result.n_flows == 200
    residual = result.conservation_error()
    assert float(np.abs(residual).max()) <= 1e-6 * float(
        result.sent_bytes.max())
    assert np.all(result.layers >= 1)
    assert np.all(result.layers <= CONFIG.max_layers)
    assert np.all(result.buffer >= 0.0)
    summary = result.summary()
    assert 0.0 < summary["fairness"] <= 1.0
    assert summary["mean_rate"] > 0


def test_backoff_scripts_are_index_keyed():
    # Same seed, same index -> same script, independent of how many
    # other flows exist (the seed-split property at its root).
    a = scripted_backoffs(9, 17, 30.0, 6.0, min_gap=0.2)
    b = scripted_backoffs(9, 17, 30.0, 6.0, min_gap=0.2)
    assert a == b
    assert a != scripted_backoffs(9, 18, 30.0, 6.0, min_gap=0.2)
    assert all(t2 - t1 >= 0.2 for t1, t2 in zip(a, a[1:]))


def test_backoffs_halve_the_rate_trajectory():
    quiet = FlowClassBatch(
        CONFIG, 1, 1000.0, 10_000.0,
        np.full((1, 1), np.inf), 10.0, max_rate=50_000.0).run()
    noisy = FlowClassBatch(
        CONFIG, 1, 1000.0, 10_000.0,
        np.array([[2.0]]), 10.0, max_rate=50_000.0).run()
    assert noisy.sent_bytes[0] < quiet.sent_bytes[0]


def test_stall_accounting_for_starved_flows():
    # 300 B/s against a 2500 B/s base layer: the window clamp must
    # record the unmet consumption as stalled bytes.
    result = FlowClassBatch(
        CONFIG, 3, 1.0, 300.0, np.full((3, 1), np.inf), 20.0,
        max_rate=400.0).run()
    assert np.all(result.stall_bytes > 0.0)
    assert np.all(result.layers == 1)


def assert_same_arrays(got: BatchResult, want: BatchResult) -> None:
    """Every result array equal to the last bit, with equal dtypes."""
    assert got.n_flows == want.n_flows and got.duration == want.duration
    for field in dataclasses.fields(BatchResult):
        ours, theirs = getattr(got, field.name), getattr(want, field.name)
        if isinstance(theirs, np.ndarray):
            assert ours.dtype == theirs.dtype, field.name
            assert np.array_equal(ours, theirs), field.name


def test_run_is_repeatable_and_leaves_the_batch_as_constructed():
    batch = FlowClassBatch.jittered(CONFIG, 50, slope=1000.0,
                                    duration=30.0, seed=3)
    rate = batch.rate.copy()
    scripts = batch.backoffs.copy()
    first = batch.run()
    assert first.drops.sum() > 0
    assert np.array_equal(batch.rate, rate)
    assert np.array_equal(batch.backoffs, scripts)
    assert_same_arrays(batch.run(), first)


@pytest.mark.parametrize("duration, step, windows", [
    (10.04, 0.1, 101),   # whole windows and a 0.04 s tail
    (0.25, 0.1, 3),
    (0.04, 0.1, 1),      # shorter than one step
    (0.3, 0.1, 3),       # 0.3 / 0.1 = 2.9999999999999996
    (1.1, 0.1, 11),      # 1.1 / 0.1 = 11.000000000000002
    (30.0, 0.1, 300),
])
def test_windows_cover_the_whole_duration(monkeypatch, duration, step,
                                          windows):
    # One layer, no backoff, no cap: the layer count never moves and the
    # bytes sent are the plain ramp integral.
    config = QAConfig(layer_rate=2500.0, max_layers=1, k_max=2)
    batch = FlowClassBatch(config, 2, 1000.0, 10_000.0,
                           np.full((2, 1), np.inf), duration, step=step)
    widths = []
    ramp_area = batch._ramp_area

    def spy(r0, dt):
        widths.append(dt)
        return ramp_area(r0, dt)

    monkeypatch.setattr(batch, "_ramp_area", spy)
    result = batch.run()
    assert len(widths) == windows
    assert min(widths) > 0.0
    assert sum(widths) == pytest.approx(duration, rel=1e-12)
    exact = 10_000.0 * duration + 0.5 * 1000.0 * duration * duration
    assert result.sent_bytes == pytest.approx(exact, rel=1e-12)
    assert result.mean_rate == pytest.approx(exact / duration, rel=1e-12)
    assert result.mean_layers == pytest.approx(1.0, rel=1e-12)


def test_a_zero_width_script_means_no_backoffs():
    def run(scripts):
        return FlowClassBatch(CONFIG, 2, 1000.0, 10_000.0, scripts,
                              5.0, max_rate=50_000.0).run()

    assert_same_arrays(run(np.empty((2, 0))),
                         run(np.full((2, 3), np.inf)))
