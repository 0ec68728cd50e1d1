"""Unit and property tests for the Appendix-A formulas."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import formulas
from repro.core.formulas import SCENARIO_ONE, SCENARIO_TWO
from repro.core.states import ladder, state

# Strategy corners: rates and consumptions in bytes/s, slopes in
# bytes/s^2, all within physically sensible ranges.
rates = st.floats(min_value=1_000, max_value=1_000_000)
layer_rates = st.floats(min_value=500, max_value=50_000)
slopes = st.floats(min_value=100, max_value=1_000_000)
layer_counts = st.integers(min_value=1, max_value=10)
ks = st.integers(min_value=1, max_value=8)


def scenario_state(rate, layer_rate, na, slope, k, scenario):
    """``(total, shares)`` of one A.4-A.5 state, read off a ladder that
    reaches it."""
    return state(ladder(rate, layer_rate, na, slope, k), scenario, k)


class TestTriangleArea:
    def test_basic_value(self):
        # deficit 1000 B/s closing at 500 B/s^2 -> 2 s -> 1000 B area
        assert formulas.triangle_area(1000, 500) == pytest.approx(1000.0)

    def test_zero_deficit(self):
        assert formulas.triangle_area(0.0, 100.0) == 0.0

    def test_negative_deficit(self):
        assert formulas.triangle_area(-5.0, 100.0) == 0.0

    def test_requires_positive_slope(self):
        with pytest.raises(ValueError):
            formulas.triangle_area(10.0, 0.0)

    @given(deficit=st.floats(min_value=0, max_value=1e6), slope=slopes)
    def test_non_negative(self, deficit, slope):
        assert formulas.triangle_area(deficit, slope) >= 0.0

    @given(deficit=st.floats(min_value=1, max_value=1e5), slope=slopes)
    def test_quadratic_scaling(self, deficit, slope):
        one = formulas.triangle_area(deficit, slope)
        four = formulas.triangle_area(2 * deficit, slope)
        assert four == pytest.approx(4 * one, rel=1e-9)


class TestDeficit:
    def test_halving(self):
        assert formulas.deficit_after_backoffs(8000, 6000, 1) == 2000
        assert formulas.deficit_after_backoffs(8000, 6000, 2) == 4000

    def test_k_zero(self):
        assert formulas.deficit_after_backoffs(8000, 6000, 0) == -2000

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            formulas.deficit_after_backoffs(1, 1, -1)


class TestMinBufferingLayers:
    def test_exact_multiples(self):
        assert formulas.min_buffering_layers(10_000, 5_000) == 2

    def test_rounds_up(self):
        assert formulas.min_buffering_layers(10_001, 5_000) == 3

    def test_zero_deficit(self):
        assert formulas.min_buffering_layers(0.0, 5_000) == 0

    def test_requires_positive_layer_rate(self):
        with pytest.raises(ValueError):
            formulas.min_buffering_layers(1.0, 0.0)

    @given(deficit=st.floats(min_value=0.1, max_value=1e6),
           layer_rate=layer_rates)
    def test_covers_deficit(self, deficit, layer_rate):
        nb = formulas.min_buffering_layers(deficit, layer_rate)
        assert nb * layer_rate >= deficit - 1e-6


class TestBandShares:
    def test_single_band(self):
        shares = formulas.band_shares(4000, 5000, 1000)
        assert len(shares) == 1
        assert shares[0] == pytest.approx(
            formulas.triangle_area(4000, 1000))

    def test_base_gets_the_biggest_band(self):
        shares = formulas.band_shares(12_000, 5_000, 1000)
        assert len(shares) == 3
        assert shares[0] > shares[1] > shares[2]

    def test_empty_when_no_deficit(self):
        assert formulas.band_shares(0.0, 5000, 1000) == ()

    @given(deficit=st.floats(min_value=1, max_value=2e5),
           layer_rate=layer_rates, slope=slopes)
    @settings(max_examples=200)
    def test_shares_sum_to_triangle(self, deficit, layer_rate, slope):
        shares = formulas.band_shares(deficit, layer_rate, slope)
        assert math.fsum(shares) == pytest.approx(
            formulas.triangle_area(deficit, slope), rel=1e-9)

    @given(deficit=st.floats(min_value=1, max_value=2e5),
           layer_rate=layer_rates, slope=slopes)
    @settings(max_examples=200)
    def test_shares_decrease_with_layer(self, deficit, layer_rate, slope):
        shares = formulas.band_shares(deficit, layer_rate, slope)
        for lower, higher in zip(shares, shares[1:]):
            assert lower >= higher - 1e-9

    @given(deficit=st.floats(min_value=1, max_value=2e5),
           layer_rate=layer_rates, slope=slopes)
    def test_band_count_matches_nb(self, deficit, layer_rate, slope):
        shares = formulas.band_shares(deficit, layer_rate, slope)
        assert len(shares) == formulas.min_buffering_layers(
            deficit, layer_rate)


class TestDropRule:
    def test_keeps_all_when_buffering_plentiful(self):
        kept = formulas.layers_to_keep(
            rate=10_000, total_buffer=1e9, layer_rate=5_000, slope=1000,
            active_layers=4)
        assert kept == 4

    def test_drops_everything_but_base_when_empty(self):
        kept = formulas.layers_to_keep(
            rate=1_000, total_buffer=0.0, layer_rate=5_000, slope=1000,
            active_layers=4)
        assert kept == 1

    def test_base_never_dropped(self):
        kept = formulas.layers_to_keep(
            rate=1, total_buffer=0.0, layer_rate=50_000, slope=1,
            active_layers=1)
        assert kept == 1

    def test_threshold_matches_triangle(self):
        # With buffer exactly equal to the recovery triangle, the layer
        # survives (>= comparison drops only when strictly insufficient).
        rate, layer_rate, slope, na = 10_000, 5_000, 1_000, 4
        required = formulas.draining_recovery_requirement(
            rate, na * layer_rate, slope)
        kept = formulas.layers_to_keep(rate, required + 1.0, layer_rate,
                                       slope, na)
        assert kept == 4
        kept = formulas.layers_to_keep(rate, required * 0.5, layer_rate,
                                       slope, na)
        assert kept < 4

    @given(rate=rates, layer_rate=layer_rates, slope=slopes,
           na=layer_counts,
           buffer_=st.floats(min_value=0, max_value=1e7))
    @settings(max_examples=200)
    def test_result_in_valid_range(self, rate, layer_rate, slope, na,
                                   buffer_):
        kept = formulas.layers_to_keep(rate, buffer_, layer_rate, slope,
                                       na)
        assert 1 <= kept <= na

    @given(rate=rates, layer_rate=layer_rates, slope=slopes,
           na=layer_counts)
    def test_monotone_in_buffering(self, rate, layer_rate, slope, na):
        low = formulas.layers_to_keep(rate, 100.0, layer_rate, slope, na)
        high = formulas.layers_to_keep(rate, 1e7, layer_rate, slope, na)
        assert high >= low


class TestK1:
    def test_simple_case(self):
        # 30000 halves below 19500 after one backoff.
        assert formulas.k1_backoffs(30_000, 19_500) == 1

    def test_deep_case(self):
        # 100000 -> 50000 -> 25000 -> 12500 < 13000: three backoffs.
        assert formulas.k1_backoffs(100_000, 13_000) == 3

    def test_rate_already_below(self):
        assert formulas.k1_backoffs(5_000, 10_000) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            formulas.k1_backoffs(0, 1)

    @given(rate=rates, consumption=rates)
    def test_definition(self, rate, consumption):
        k1 = formulas.k1_backoffs(rate, consumption)
        assert rate / 2 ** k1 < consumption + 1e-6
        if k1 > 1:
            assert rate / 2 ** (k1 - 1) >= consumption - 1e-6


class TestScenarioTotals:
    def test_scenarios_coincide_at_k1(self):
        rate, layer_rate, na, slope = 30_000, 6_500, 3, 8_000
        k1 = formulas.k1_backoffs(rate, na * layer_rate)
        assert scenario_state(
            rate, layer_rate, na, slope, k1, SCENARIO_ONE)[0] == (
            pytest.approx(scenario_state(rate, layer_rate, na, slope, k1,
                                         SCENARIO_TWO)[0]))

    def test_scenario2_adds_fixed_triangles(self):
        rate, layer_rate, na, slope = 30_000, 6_500, 3, 8_000
        consumption = na * layer_rate
        k1 = formulas.k1_backoffs(rate, consumption)
        t_k1 = scenario_state(rate, layer_rate, na, slope, k1,
                              SCENARIO_TWO)[0]
        t_k3 = scenario_state(rate, layer_rate, na, slope, k1 + 2,
                              SCENARIO_TWO)[0]
        seq = formulas.triangle_area(consumption / 2, slope)
        assert t_k3 == pytest.approx(t_k1 + 2 * seq)

    def test_rejects_bad_scenario(self):
        with pytest.raises(ValueError):
            scenario_state(1000, 1000, 1, 100, 1, 3)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            scenario_state(1000, 1000, 1, 100, 0, SCENARIO_ONE)

    @given(rate=rates, layer_rate=layer_rates, na=layer_counts,
           slope=slopes, k=ks)
    @settings(max_examples=200)
    def test_scenario1_monotone_in_k(self, rate, layer_rate, na, slope,
                                     k):
        a = scenario_state(rate, layer_rate, na, slope, k,
                           SCENARIO_ONE)[0]
        b = scenario_state(rate, layer_rate, na, slope, k + 1,
                           SCENARIO_ONE)[0]
        assert b >= a - 1e-9

    @given(rate=rates, layer_rate=layer_rates, na=layer_counts,
           slope=slopes, k=ks)
    @settings(max_examples=200)
    def test_scenario2_monotone_in_k(self, rate, layer_rate, na, slope,
                                     k):
        a = scenario_state(rate, layer_rate, na, slope, k,
                           SCENARIO_TWO)[0]
        b = scenario_state(rate, layer_rate, na, slope, k + 1,
                           SCENARIO_TWO)[0]
        assert b >= a - 1e-9


class TestScenarioShares:
    @given(rate=rates, layer_rate=layer_rates, na=layer_counts,
           slope=slopes, k=ks,
           scenario=st.sampled_from([SCENARIO_ONE, SCENARIO_TWO]))
    @settings(max_examples=300)
    def test_shares_sum_to_total(self, rate, layer_rate, na, slope, k,
                                 scenario):
        total, shares = scenario_state(rate, layer_rate, na, slope, k,
                                       scenario)
        assert len(shares) == na
        assert math.fsum(shares) == pytest.approx(total, rel=1e-6,
                                                  abs=1e-6)

    @given(rate=rates, layer_rate=layer_rates, na=layer_counts,
           slope=slopes, k=ks,
           scenario=st.sampled_from([SCENARIO_ONE, SCENARIO_TWO]))
    @settings(max_examples=300)
    def test_shares_base_heavy(self, rate, layer_rate, na, slope, k,
                               scenario):
        _, shares = scenario_state(rate, layer_rate, na, slope, k,
                                   scenario)
        for lower, higher in zip(shares, shares[1:]):
            assert lower >= higher - 1e-9

    def test_scenario1_equals_band_slicing(self):
        rate, layer_rate, na, slope = 30_000, 6_500, 4, 8_000
        _, shares = scenario_state(rate, layer_rate, na, slope, 2,
                                   SCENARIO_ONE)
        deficit = na * layer_rate - rate / 4
        bands = formulas.band_shares(deficit, layer_rate, slope)
        for share, band in zip(shares, bands):
            assert share == pytest.approx(band)


class TestDrainDuration:
    def test_value(self):
        assert formulas.drain_duration(1000, 500) == pytest.approx(2.0)

    def test_negative_deficit_clamps(self):
        assert formulas.drain_duration(-10, 500) == 0.0

    def test_requires_positive_slope(self):
        with pytest.raises(ValueError):
            formulas.drain_duration(1.0, 0.0)
