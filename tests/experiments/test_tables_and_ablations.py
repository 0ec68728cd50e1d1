"""Shape tests for Tables 1/2 and the ablation experiments.

Shortened runs and few seeds: the full-length numbers are recorded in
EXPERIMENTS.md. What is asserted here is the *direction* of every
comparison the paper (or our ablation design) makes.
"""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.ablations import fraction_at_or_above, static_scheme
from repro.experiments.common import pool_by
from repro.experiments.tables import table_cells


@pytest.fixture(scope="module")
def tables(artifact_results):
    """One shared small collection for both tables."""
    return artifact_results("table1", k_values=(2, 4), seeds=(1, 2),
                            duration=30.0)


class TestTables:
    def test_cells_present(self, tables):
        cells = table_cells(tables)
        assert ("T1", 2) in cells
        assert ("T2", 4) in cells

    def test_efficiency_is_high(self, tables):
        for key, cell in table_cells(tables).items():
            eff = cell.metrics.buffering_efficiency()
            if eff is not None:
                assert eff > 0.75, key

    def test_poor_distribution_is_low(self, tables):
        for key, cell in table_cells(tables).items():
            poor = cell.metrics.poor_distribution_percent()
            if poor is not None:
                assert poor <= 25.0, key

    def test_smoothing_reduces_drops(self, tables):
        cells = table_cells(tables)
        t1_k2 = len(cells[("T1", 2)].metrics.drops)
        t1_k4 = len(cells[("T1", 4)].metrics.drops)
        assert t1_k4 <= t1_k2

    def test_t2_has_more_drops_than_t1(self, tables):
        # The CBR burst forces extra adaptation.
        cells = table_cells(tables)
        assert (len(cells[("T2", 2)].metrics.drops)
                >= len(cells[("T1", 2)].metrics.drops))

    def test_render_both_tables(self, tables):
        assert "Table 1" in EXPERIMENTS["table1"].render(tables)
        assert "Table 2" in EXPERIMENTS["table2"].render(tables)


class TestAllocatorAblation:
    @pytest.fixture(scope="class")
    def result(self, artifact_results):
        return artifact_results("ablation-allocators", seeds=(1,),
                                duration=30.0)

    def test_all_three_run(self, result):
        assert set(pool_by(result, lambda run: run.config.allocator)) == {
            "optimal", "equal_share", "base_first"}

    def test_optimal_is_most_efficient(self, result):
        eff = {name: p.metrics.buffering_efficiency() for name, p in
               pool_by(result, lambda run: run.config.allocator).items()}
        if eff["optimal"] is not None and eff["equal_share"] is not None:
            assert eff["optimal"] >= eff["equal_share"] - 0.1

    def test_renders(self, result):
        assert "allocator" in EXPERIMENTS["ablation-allocators"].render(
            result)


class TestAddRuleAblation:
    @pytest.fixture(scope="class")
    def result(self, artifact_results):
        return artifact_results("ablation-add-rules", duration=60.0)

    def test_all_rules_run(self, result):
        assert {run.config.add_rule for run in result} == {
            "buffer_only", "buffer_and_rate", "average_bandwidth"}

    def test_buffer_rule_delivers_the_extra_layer_more(self, result):
        """The paper's 2.9-layer argument: the buffer-based rule spends
        (much) more time at >= 3 layers than the average-bandwidth
        rule."""
        time_at_3_plus = {
            run.config.add_rule: fraction_at_or_above(
                outcome.session.tracer.get("layers").window(10.0, 60.0),
                3.0)
            for run, outcome in result.items()}
        assert (time_at_3_plus["buffer_only"]
                >= time_at_3_plus["average_bandwidth"])

    def test_renders(self, result):
        assert "add rule" in EXPERIMENTS["ablation-add-rules"].render(result)


class TestStaticAblation:
    @pytest.fixture(scope="class")
    def result(self, artifact_results):
        return pool_by(
            artifact_results("ablation-static", seeds=(1,), duration=30.0),
            static_scheme)

    def test_rows(self, result):
        assert "adaptive" in result
        assert any("fixed" in s for s in result)

    def test_adaptive_does_not_stall(self, result):
        assert result["adaptive"].total("stalls_receiver") == 0

    def test_high_fixed_quality_suffers(self, result):
        fixed4, adaptive = result["fixed 4 layers"], result["adaptive"]
        assert (fixed4.total("stalls_receiver")
                > adaptive.total("stalls_receiver")
                or fixed4.mean("gap_bytes") > adaptive.mean("gap_bytes"))

    def test_renders(self, artifact_results):
        results = artifact_results("ablation-static", seeds=(1,),
                                   duration=30.0)
        assert "adaptive" in EXPERIMENTS["ablation-static"].render(results)


class TestFeedbackAblation:
    @pytest.fixture(scope="class")
    def result(self, artifact_results):
        return artifact_results("ablation-feedback", seeds=(1,),
                                duration=30.0)

    def test_all_modes_run(self, result):
        assert {run.config.feedback for run in result} == {
            "send", "ack", "oracle"}

    def test_send_mode_protects_playback_best(self, result):
        """'send' (loss-aware) must not stall more than 'oracle'
        (loss-blind) -- ignoring losses overestimates the receiver's
        buffers and breaks stall protection."""
        by_mode = pool_by(result, lambda run: run.config.feedback)
        assert (by_mode["send"].total("stalls_receiver")
                <= by_mode["oracle"].total("stalls_receiver"))
        assert by_mode["send"].total("stall_time_receiver") < 1.0

    def test_renders(self, result):
        assert "feedback" in EXPERIMENTS["ablation-feedback"].render(result)
