"""Shape tests for the section-7 extension ablations."""

import pytest

from repro.experiments import EXPERIMENTS, analytic
from repro.experiments.ablations import transport_name
from repro.experiments.common import pool_by


class TestNonlinearAblation:
    @pytest.fixture(scope="class")
    def ladders(self):
        return analytic.layer_ladders()

    def test_totals_identical_across_spacings(self, ladders):
        rows = analytic.ladder_share_rows(ladders)
        by_key = {(r[0], r[1]): r[2] for r in rows}
        for k in (1, 2):
            assert by_key[("linear", k)] == by_key[("geometric", k)]

    def test_fat_base_needs_fewer_buffering_layers(self, ladders):
        rows = analytic.ladder_share_rows(ladders)
        by_key = {(r[0], r[1]): r[3] for r in rows}
        for k in (1, 2):
            assert by_key[("geometric", k)] <= by_key[("linear", k)]

    def test_geometric_concentrates_in_base(self, ladders):
        rows = {(r[0], r[1]): r[4:]
                for r in analytic.ladder_share_rows(ladders)}
        lin = rows[("linear", 2)]
        geo = rows[("geometric", 2)]
        assert geo[0] > lin[0]

    def test_drop_rule_cuts_deeper_on_thin_ladders(self, ladders):
        kept = {}
        for spacing, post_rate, layers in analytic.ladder_drop_rows(ladders):
            kept.setdefault(spacing, []).append(layers)
        for lin_kept, geo_kept in zip(kept["linear"], kept["geometric"]):
            assert geo_kept <= lin_kept

    def test_renders(self):
        assert "geometric" in EXPERIMENTS["ablation-nonlinear"].render({})


class TestTransportAblation:
    @pytest.fixture(scope="class")
    def results(self, artifact_results):
        return artifact_results("ablation-transport", seeds=(1,),
                                duration=30.0)

    @pytest.fixture(scope="class")
    def result(self, results):
        return pool_by(results, transport_name)

    def test_both_transports_run(self, result):
        assert set(result) == {"rap", "window-aimd"}

    def test_adapter_streams_over_both(self, result):
        for pooled in result.values():
            assert pooled.mean("mean_rate") > 5_000
            assert pooled.mean("mean_layers") >= 1.0
            assert pooled.total("adds") > 0

    def test_rap_is_the_smoother_ride(self, result):
        """Rate-based pacing (RAP) was chosen by the paper for a reason:
        it should not stall more than the bursty window transport."""
        assert (result["rap"].total("stall_time_receiver")
                <= result["window-aimd"].total("stall_time_receiver") + 0.5)

    def test_renders(self, results):
        assert "transport" in EXPERIMENTS["ablation-transport"].render(
            results)
