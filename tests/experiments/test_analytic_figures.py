"""Shape tests for the analytic figures (3, 4, 7, 8, 9, 10, 14)."""

import math

import pytest

from repro.core import formulas
from repro.core.states import StateSequence
from repro.experiments import analytic, runner
from repro.experiments.analytic import C, R, S

render = runner.render_experiment


class TestFig03:
    def test_areas_match_formulas(self):
        cycle = analytic.cycle_geometry()
        assert cycle["draining_deficit_bytes (triangle cde)"] == \
            pytest.approx(formulas.one_backoff_requirement(
                cycle["R_pre_backoff_Bps"], cycle["consumption_na_C_Bps"],
                cycle["slope_S_Bps2"]))

    def test_durations_positive(self):
        cycle = analytic.cycle_geometry()
        assert cycle["filling_phase_s"] > 0
        assert cycle["draining_phase_s"] > 0

    def test_renders(self):
        assert "triangle" in render("fig03")


class TestFig04:
    def test_shares_sum_to_triangle(self):
        shares, _, total, _ = analytic.optimal_allocation()
        assert math.fsum(shares) == pytest.approx(total)

    def test_base_layer_largest(self):
        shares, _, _, _ = analytic.optimal_allocation()
        nonzero = [s for s in shares if s > 0]
        assert nonzero == sorted(nonzero, reverse=True)

    def test_nb_counts_nonzero_shares(self):
        shares, _, _, nb = analytic.optimal_allocation()
        assert nb == sum(1 for s in shares if s > 0)

    def test_renders(self):
        assert "L0" in render("fig04")


class TestFig07:
    def test_extremes_match_closed_forms(self):
        rows = analytic.double_backoff_rows()
        s1 = formulas.scenario_total(R, 3 * C, S, 2, formulas.SCENARIO_ONE)
        s2 = formulas.scenario_total(R, 3 * C, S, 2, formulas.SCENARIO_TWO)
        assert rows[0][1] == pytest.approx(s1, rel=0.02)
        assert rows[-1][1] == pytest.approx(s2, rel=0.02)

    def test_intermediate_scenarios_bracketed(self):
        totals = [total for _, total in analytic.double_backoff_rows()]
        lo, hi = min(totals[0], totals[-1]), max(totals[0], totals[-1])
        for total in totals[1:-1]:
            assert lo - 1 <= total <= hi + 1

    def test_renders(self):
        assert "scenario" in render("fig07")


class TestFig08:
    def test_row_count(self):
        rows = analytic.buffer_state_rows(k_max=5)
        assert len(rows) == 10  # 5 k values x 2 scenarios

    def test_scenario1_uses_more_layers_at_high_k(self):
        rows = {(row[0], row[1]): row[3:]
                for row in analytic.buffer_state_rows(k_max=5)}
        s1_layers = sum(1 for v in rows[("S1", 5)] if v > 0)
        s2_layers = sum(1 for v in rows[("S2", 5)] if v > 0)
        assert s1_layers >= s2_layers

    def test_renders(self):
        assert "S1" in render("fig08")


def figure_sequence():
    return StateSequence(R, C, 4, S, 5)


class TestFig09:
    def test_totals_ascending(self):
        rows = analytic.state_order_rows(figure_sequence())
        totals = [row[1] for row in rows]
        assert totals == sorted(totals)

    def test_some_raw_dips_exist(self):
        """The motivation for Figure 10: the raw ordering would require
        draining some layer at some step."""
        rows = analytic.state_order_rows(figure_sequence())
        assert any(row[-1] for row in rows)


class TestFig10:
    def test_effective_totals_ascending(self):
        rows = analytic.filling_step_rows(figure_sequence())
        totals = [row[2] for row in rows]
        assert totals == sorted(totals)

    def test_per_layer_monotone(self):
        previous = None
        for row in analytic.filling_step_rows(figure_sequence()):
            shares = row[3:-1]
            if previous is not None:
                for a, b in zip(previous, shares):
                    assert b >= a
            previous = shares


class TestFig14:
    def test_decomposition_matches_closed_form(self):
        assert "closed_form_total" in render("fig14")

    def test_component_sum(self):
        consumption = 3 * C
        k1 = formulas.k1_backoffs(R, consumption)
        first = formulas.triangle_area(
            formulas.deficit_after_backoffs(R, consumption, k1), S)
        seq = formulas.triangle_area(consumption / 2, S)
        total = formulas.scenario_total(R, consumption, S, 4,
                                        formulas.SCENARIO_TWO)
        assert first + (4 - k1) * seq == pytest.approx(total)
