"""Shape tests for the packet-level experiments (Figures 1, 11, 12, 13).

These assert the *qualitative* claims of the paper's evaluation on
shortened runs; the full-length numbers live in EXPERIMENTS.md.
"""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.packet_figures import cbr_phase_means


@pytest.fixture(scope="module")
def fig01(artifact_results):
    return artifact_results("fig01", duration=30.0)


@pytest.fixture(scope="module")
def fig11(artifact_results):
    return artifact_results("fig11", duration=25.0)


@pytest.fixture(scope="module")
def fig13(artifact_results):
    # The real T2 timing: 90 s, CBR on 30..60 s (a shortened run would
    # still be in its startup climb when the burst starts).
    return artifact_results("fig13")


def only(results):
    (run, outcome), = results.items()
    return run, outcome


class TestFig01:
    def test_sawtooth_hunts_around_link_rate(self, fig01):
        run, out = only(fig01)
        assert 0.5 * run.link_bandwidth < out["mean_rate"] \
            < 2.0 * run.link_bandwidth

    def test_regular_backoffs(self, fig01):
        assert only(fig01)[1]["backoffs"] >= 5

    def test_high_utilization(self, fig01):
        assert only(fig01)[1]["utilization"] > 0.7

    def test_rate_oscillates(self, fig01):
        values = only(fig01)[1]["rate"].values
        assert max(values) > 1.3 * min(v for v in values if v > 0)

    def test_renders(self, fig01):
        assert "Figure 1" in EXPERIMENTS["fig01"].render(fig01)


class TestFig11:
    def test_playback_never_stalls(self, fig11):
        assert only(fig11)[1].session.playout.stall_count == 0

    def test_quality_tracks_bandwidth(self, fig11):
        run, outcome = only(fig11)
        t = outcome.session.tracer
        mean_layers = t.get("layers").window(5.0, 25.0).time_average()
        fair_layers = (t.get("rate").time_average()
                       / run.config.layer_rate)
        assert mean_layers == pytest.approx(fair_layers, rel=0.5)

    def test_buffering_is_base_heavy(self, fig11):
        t = only(fig11)[1].session.tracer
        means = [t.get(f"buffer_L{i}").mean() for i in range(4)]
        assert means[0] == max(means)

    def test_lowest_layers_absorb_rate_variation(self, fig11):
        """Figure 11's middle panels: the paper notes most bandwidth
        variation shows up in the lowest layers' share (they take the
        filling spikes), while upper layers hover near C."""
        t = only(fig11)[1].session.tracer
        spread0 = (t.get("send_rate_L0").max()
                   - t.get("send_rate_L0").min())
        spread3 = (t.get("send_rate_L3").max()
                   - t.get("send_rate_L3").min())
        assert spread0 >= spread3

    def test_drain_happens_after_backoffs(self, fig11):
        t = only(fig11)[1].session.tracer
        total_drain = sum(t.get(f"drain_rate_L{i}").mean()
                          for i in range(4))
        assert total_drain > 0

    def test_renders(self, fig11):
        text = EXPERIMENTS["fig11"].render(fig11)
        assert "Figure 11" in text
        assert "buffered data, layer 0" in text


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self, artifact_results):
        return artifact_results("fig12", k_values=(1, 4), duration=25.0)

    def test_higher_kmax_fewer_quality_changes(self, result):
        by_k = {run.config.k_max: outcome.session.summary()
                for run, outcome in result.items()}
        assert (by_k[4]["quality_changes"] <= by_k[1]["quality_changes"])

    def test_renders(self, result):
        assert "K_max" in EXPERIMENTS["fig12"].render(result)


class TestFig13:
    def test_layers_shed_during_cbr_and_recover(self, fig13):
        phases = cbr_phase_means(*only(fig13))
        assert (phases["mean_layers_during_cbr"]
                < phases["mean_layers_before_cbr"])
        assert (phases["mean_layers_after_cbr"]
                > phases["mean_layers_during_cbr"])

    def test_base_layer_never_jeopardized(self, fig13):
        assert only(fig13)[1].session.playout.stall_count == 0

    def test_rate_collapses_under_cbr(self, fig13):
        rate = only(fig13)[1].session.tracer.get("rate")
        before = rate.window(10.0, 30.0).time_average()
        during = rate.window(35.0, 60.0).time_average()
        assert during < before

    def test_renders(self, fig13):
        assert "Figure 13" in EXPERIMENTS["fig13"].render(fig13)
