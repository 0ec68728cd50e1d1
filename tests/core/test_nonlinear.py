"""Tests for non-linear layer spacing (section 7 future work)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import formulas, nonlinear
from repro.core.formulas import SCENARIO_ONE, SCENARIO_TWO
from repro.core.states import ladder, state

rate_vectors = st.lists(st.floats(min_value=500, max_value=20_000),
                        min_size=1, max_size=6)
slopes = st.floats(min_value=500, max_value=100_000)


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            nonlinear.validate_rates([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            nonlinear.validate_rates([1000.0, 0.0])

    def test_total_rate(self):
        assert nonlinear.total_rate([1000.0, 500.0]) == 1500.0


class TestMinBufferingLayers:
    def test_prefix_coverage(self):
        assert nonlinear.min_buffering_layers(
            1400.0, [1000.0, 500.0, 250.0]) == 2

    def test_zero_deficit(self):
        assert nonlinear.min_buffering_layers(0.0, [1000.0]) == 0

    def test_excessive_deficit_raises(self):
        with pytest.raises(ValueError):
            nonlinear.min_buffering_layers(1e9, [1000.0])

    def test_matches_linear_when_equal(self):
        deficit = 12_345.0
        rates = [5_000.0] * 4
        assert nonlinear.min_buffering_layers(deficit, rates) == \
            formulas.min_buffering_layers(deficit, 5_000.0)


class TestBandShares:
    def test_linear_case_matches_formulas(self):
        deficit, layer_rate, slope = 12_000.0, 5_000.0, 1_000.0
        linear = formulas.band_shares(deficit, layer_rate, slope)
        general = nonlinear.band_shares(deficit, [layer_rate] * 4, slope)
        for a, b in zip(linear, general):
            assert a == pytest.approx(b)

    def test_padded_with_zeros(self):
        shares = nonlinear.band_shares(4_000.0, [5_000.0] * 3, 1_000.0)
        assert shares[1] == 0.0
        assert shares[2] == 0.0

    def test_fat_base_takes_more(self):
        shares = nonlinear.band_shares(
            6_000.0, [4_000.0, 2_000.0, 1_000.0], 1_000.0)
        assert shares[0] > shares[1] > shares[2] >= 0

    @given(deficit_frac=st.floats(min_value=0.05, max_value=0.99),
           rates=rate_vectors, slope=slopes)
    @settings(max_examples=200)
    def test_shares_sum_to_triangle(self, deficit_frac, rates, slope):
        deficit = deficit_frac * math.fsum(rates)
        shares = nonlinear.band_shares(deficit, rates, slope)
        assert math.fsum(shares) == pytest.approx(
            formulas.triangle_area(deficit, slope), rel=1e-9)

    @given(deficit_frac=st.floats(min_value=0.05, max_value=0.99),
           rates=rate_vectors, slope=slopes)
    @settings(max_examples=200)
    def test_band_count_matches_nb(self, deficit_frac, rates, slope):
        deficit = deficit_frac * math.fsum(rates)
        shares = nonlinear.band_shares(deficit, rates, slope)
        nonzero = sum(1 for s in shares if s > 0)
        assert nonzero == nonlinear.min_buffering_layers(deficit, rates)


class TestScenarioShares:
    @given(rates=rate_vectors, slope=slopes,
           k=st.integers(min_value=1, max_value=6),
           scenario=st.sampled_from([SCENARIO_ONE, SCENARIO_TWO]),
           rate_factor=st.floats(min_value=1.05, max_value=4.0))
    @settings(max_examples=200)
    def test_totals_match_linear_formula(self, rates, slope, k, scenario,
                                         rate_factor):
        consumption = math.fsum(rates)
        rate = rate_factor * consumption
        shares = nonlinear.scenario_shares(rate, rates, slope, k,
                                           scenario)
        expected, _ = state(ladder(rate, consumption, 1, slope, k),
                            scenario, k)
        assert math.fsum(shares) == pytest.approx(expected, rel=1e-6,
                                                  abs=1e-6)

    def test_linear_special_case(self):
        rate, layer_rate, na, slope = 30_000.0, 6_500.0, 4, 8_000.0
        _, linear = state(ladder(rate, layer_rate, na, slope, 2),
                          SCENARIO_TWO, 2)
        general = nonlinear.scenario_shares(rate, [layer_rate] * na,
                                            slope, 2, SCENARIO_TWO)
        for a, b in zip(linear, general):
            assert a == pytest.approx(b)

    def test_rejects_bad_scenario(self):
        with pytest.raises(ValueError):
            nonlinear.scenario_shares(1000.0, [100.0], 100.0, 1, 3)


class TestDropRule:
    def test_base_survives(self):
        kept = nonlinear.layers_to_keep(10.0, 0.0,
                                        [5_000.0, 2_000.0], 1_000.0)
        assert kept == 1

    def test_matches_linear_case(self):
        rates = [5_000.0] * 4
        for buffer_ in (0.0, 1_000.0, 1e6):
            assert nonlinear.layers_to_keep(
                8_000.0, buffer_, rates, 1_000.0) == \
                formulas.layers_to_keep(8_000.0, buffer_, 5_000.0,
                                        1_000.0, 4)

    def test_thin_top_layers_dropped_first(self):
        # Dropping a thin enhancement barely reduces consumption; the
        # rule keeps dropping until the deficit is coverable.
        rates = [8_000.0, 1_000.0, 1_000.0, 1_000.0]
        kept = nonlinear.layers_to_keep(7_000.0, 100.0, rates, 1_000.0)
        assert kept == 1


class TestGeometricLadder:
    def test_ratio_shapes_rates(self):
        rates = nonlinear.geometric_rates(8_000.0, 3, ratio=0.5)
        assert rates == (8_000.0, 4_000.0, 2_000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            nonlinear.geometric_rates(0.0, 3)
        with pytest.raises(ValueError):
            nonlinear.geometric_rates(1000.0, 0)
        with pytest.raises(ValueError):
            nonlinear.geometric_rates(1000.0, 3, ratio=0.0)

    def test_equivalent_linear_rate(self):
        assert nonlinear.equivalent_linear_rate(
            [8_000.0, 4_000.0]) == 6_000.0
