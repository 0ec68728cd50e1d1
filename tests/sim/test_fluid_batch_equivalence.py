"""``FlowClassBatch.run`` against the dense window body it replaced.

:class:`DenseBatch` is the previous implementation, kept here as the
oracle: every closed form over every flow in every window — two ramp
legs split by ``np.where``, the drop rule's ``sqrt`` and the add
requirement for all ``n``. The batch now hands each rule only the flows
it can concern and must be indistinguishable from it: all ten
:class:`BatchResult` arrays equal to the last bit, with equal dtypes.

The oracle keeps the old window *count* (``round(duration / step)``),
so every case here runs a whole number of windows; partial last windows
have their own tests in ``test_fluid_batch.py``.

Skipped wholesale when hypothesis is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core import formulas  # noqa: E402
from repro.core.config import QAConfig  # noqa: E402
from repro.sim.fluid_batch import BatchResult, FlowClassBatch  # noqa: E402

from tests.sim.test_fluid_batch import assert_same_arrays  # noqa: E402

#: Binary-exact steps and 0.1, whose multiples are not.
STEPS = (0.1, 0.25, 0.5)


class DenseBatch(FlowClassBatch):
    """The window body of PR 6..17, verbatim."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._cursor = np.zeros(self.n, dtype=np.int64)
        #: Filling flows under the layer ceiling, per window: the one
        #: line added to the copy (``test_fluid_batch_budget.py``).
        self.add_candidates: list[int] = []

    def _add_requirement(self, rate, na):
        cfg = self.config
        cons = na * cfg.layer_rate
        k_max = cfg.k_max
        ratio = np.maximum(rate / np.maximum(cons, 1e-12), 1e-12)
        k1 = np.maximum(1, np.floor(np.log2(ratio)).astype(np.int64) + 1)
        k1 = np.minimum(k1, k_max)
        d1 = np.maximum(cons - rate / (2.0 ** k_max), 0.0)
        s1_total = d1 * d1 / (2.0 * self.slope)
        d_first = np.maximum(cons - rate / (2.0 ** k1), 0.0)
        seq = (cons / 2.0) ** 2 / (2.0 * self.slope)
        s2_total = (d_first * d_first / (2.0 * self.slope)
                    + (k_max - k1) * seq)
        state_total = np.maximum(s1_total, s2_total)
        d_c2 = np.maximum((na + 1) * cfg.layer_rate - rate / 2.0, 0.0)
        condition2 = d_c2 * d_c2 / (2.0 * self.slope)
        return np.maximum(state_total, condition2)

    def run(self) -> BatchResult:
        cfg = self.config
        n = self.n
        dt_full = self.step
        base_floor = cfg.base_floor_bytes
        floor = cfg.floor_bytes
        na = np.ones(n, dtype=np.int64)
        buf = np.zeros(n, dtype=np.float64)
        sent = np.zeros(n, dtype=np.float64)
        consumed = np.zeros(n, dtype=np.float64)
        discarded = np.zeros(n, dtype=np.float64)
        stalled = np.zeros(n, dtype=np.float64)
        adds = np.zeros(n, dtype=np.int64)
        drops = np.zeros(n, dtype=np.int64)
        layer_time = np.zeros(n, dtype=np.float64)
        playout_at = cfg.startup_delay
        n_steps = int(round(self.duration / dt_full))
        pad = self.backoffs.shape[1]

        for k in range(n_steps):
            t0 = k * dt_full
            t1 = min(self.duration, t0 + dt_full)
            dt = t1 - t0
            cursor = np.minimum(self._cursor, pad - 1)
            tb = self.backoffs[np.arange(n, dtype=np.int64), cursor]
            due = (self._cursor < pad) & (tb < t1)
            pre_dt = np.where(due, np.clip(tb - t0, 0.0, dt), dt)
            area = self._ramp_area(self.rate, pre_dt)
            rate_mid = self._rate_after(self.rate, pre_dt)
            halved = np.maximum(rate_mid / 2.0, self.min_rate)
            rate_mid = np.where(due, halved, rate_mid)
            post_dt = np.where(due, dt - pre_dt, 0.0)
            area = area + self._ramp_area(rate_mid, post_dt)
            self.rate = self._rate_after(rate_mid, post_dt)
            self._cursor = self._cursor + due.astype(np.int64)

            sent += area
            cons_dt = np.clip(t1 - max(t0, playout_at), 0.0, dt)
            want = na * cfg.layer_rate * cons_dt
            buf = buf + area - want
            shortfall = np.maximum(-buf, 0.0)
            buf = np.maximum(buf, 0.0)
            consumed += want - shortfall
            stalled += shortfall

            for _ in range(cfg.max_layers):
                deficit = na * cfg.layer_rate - self.rate
                drainable = np.maximum(buf - base_floor, 0.0)
                threshold = np.sqrt(2.0 * self.slope * drainable)
                fire = (na > 1) & (deficit >= threshold - formulas.EPSILON)
                if not fire.any():
                    break
                loss = np.where(fire, np.minimum(drainable, floor), 0.0)
                buf -= loss
                discarded += loss
                drops += fire.astype(np.int64)
                na = na - fire.astype(np.int64)

            filling = (t1 <= playout_at) | (
                self.rate + formulas.EPSILON >= na * cfg.layer_rate)
            can = filling & (na < cfg.max_layers)
            self.add_candidates.append(int(can.sum()))
            if can.any():
                required = self._add_requirement(self.rate, na)
                grant = can & (buf - base_floor >= required)
                adds += grant.astype(np.int64)
                na = na + grant.astype(np.int64)

            layer_time += na * dt

        return BatchResult(
            n_flows=n,
            duration=self.duration,
            layers=na,
            mean_layers=layer_time / self.duration,
            mean_rate=sent / self.duration,
            buffer=buf,
            sent_bytes=sent,
            consumed_bytes=consumed,
            discarded_bytes=discarded,
            stall_bytes=stalled,
            adds=adds,
            drops=drops,
        )


@st.composite
def flow_classes(draw):
    """Constructor arguments of one flow class, whole windows only."""
    n = draw(st.integers(1, 64))
    step = draw(st.sampled_from(STEPS))
    windows = draw(st.integers(1, 120))
    duration = windows * step
    layer_rate = draw(st.sampled_from((1000.0, 2500.0)))
    max_layers = draw(st.integers(1, 8))
    config = QAConfig(
        layer_rate=layer_rate, max_layers=max_layers,
        k_max=draw(st.integers(1, 4)),
        # Inside a window, on a boundary, past the end of the run.
        startup_delay=draw(st.sampled_from(
            (0.0, 0.13, 0.5, 2.0 * step, duration + 1.0))))
    top = layer_rate * max_layers
    # Below the base layer (the stall path) up to above the ceiling.
    rates = st.floats(0.1 * layer_rate, 1.5 * top)
    initial = draw(st.one_of(
        rates, st.lists(rates, min_size=n, max_size=n).map(np.array)))
    max_rate = draw(st.one_of(st.none(), st.floats(layer_rate, 2.0 * top)))
    slope = draw(st.sampled_from((200.0, 1000.0, 5000.0)))

    # Back-offs on window boundaries (t = 0 and t = duration among
    # them) and anywhere between; what the constructor's spacing check
    # would reject is thinned out with the same float subtraction.
    instant = st.one_of(st.integers(0, windows).map(lambda m: m * step),
                        st.floats(0.0, duration))
    scripts = []
    for _ in range(n):
        times: list[float] = []
        for t in sorted(draw(st.lists(instant, max_size=12))):
            if not times or t - times[-1] >= 2.0 * step:
                times.append(t)
        scripts.append(times)
    # No pad left on the longest row: its cursor runs off the end.
    # (Width 0 crashes the oracle; test_fluid_batch.py covers it.)
    width = max(1, max(len(s) for s in scripts) + draw(st.integers(0, 1)))
    padded = np.full((n, width), np.inf, dtype=np.float64)
    for i, times in enumerate(scripts):
        padded[i, :len(times)] = times
    return dict(config=config, n_flows=n, slope=slope,
                initial_rate=initial, backoff_times=padded,
                duration=duration, step=step, max_rate=max_rate)


def _check(case) -> None:
    assert_same_arrays(FlowClassBatch(**case).run(), DenseBatch(**case).run())


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=flow_classes())
def test_sparse_windows_equal_the_dense_oracle_fast(case):
    _check(case)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=flow_classes())
def test_sparse_windows_equal_the_dense_oracle_sweep(case):
    _check(case)


@pytest.mark.parametrize("seed, k_max, fair_share", [
    (1, 2, 20_000.0),   # the flock-scale class
    (7, 4, 20_000.0),   # k1 < K_max: the scenario-2 total decides adds
    (3, 2, 4_000.0),    # back-offs land below the base layer's rate
])
def test_a_jittered_population_equals_the_dense_oracle(seed, k_max,
                                                       fair_share):
    def build() -> FlowClassBatch:
        return FlowClassBatch.jittered(
            QAConfig(layer_rate=2500.0, max_layers=8, k_max=k_max), 501,
            slope=1000.0, duration=40.0, seed=seed, fair_share=fair_share,
            mean_backoff_interval=3.0)

    result = build().run()
    assert result.adds.sum() and result.drops.sum()
    assert_same_arrays(result, as_dense(build()).run())


def test_a_flow_a_hair_above_its_consumption_rate_still_drops():
    # The drop rule's candidates are flows with ``na*C - R >= -EPSILON``,
    # not ``>= 0``. The add conditions keep a flow out of that band
    # unless the slope is tiny: 2^-34 B/s^2 makes the rate a constant,
    # the add requirement zero and the drop threshold ~1e-10. Layer 2 is
    # added at t = 0.25 with the buffer at the base floor; the back-off
    # at that instant halves 4C + 2^-31 to 2C + 2^-32, a deficit of
    # -2.5e-10 against a threshold of 1.4e-10 - EPSILON: it fires.
    rate = 1024.0
    case = dict(
        config=QAConfig(layer_rate=rate, max_layers=4, k_max=1,
                        base_floor=0.75, startup_delay=0.0),
        n_flows=1, slope=2.0 ** -34, initial_rate=4 * rate + 2.0 ** -31,
        backoff_times=np.array([[0.25]]), duration=1.0, step=0.25)
    result = FlowClassBatch(**case).run()
    assert (result.adds[0], result.drops[0], result.layers[0]) == (1, 1, 1)
    assert_same_arrays(result, DenseBatch(**case).run())


def as_dense(batch: FlowClassBatch) -> DenseBatch:
    return DenseBatch(batch.config, batch.n, batch.slope, batch.rate,
                      batch.backoffs, batch.duration, step=batch.step,
                      max_rate=batch.max_rate, min_rate=batch.min_rate)
