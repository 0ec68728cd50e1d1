"""Shape tests for the fluid-model figures (2, 5, 6)."""

import pytest

from repro.experiments import EXPERIMENTS


def run_and_traces(artifact_results, name):
    results = artifact_results(name)
    (run, tracer), = results.items()
    return run, tracer, EXPERIMENTS[name].render(results)


@pytest.fixture(scope="module")
def fig02(artifact_results):
    return run_and_traces(artifact_results, "fig02")


@pytest.fixture(scope="module")
def fig05(artifact_results):
    return run_and_traces(artifact_results, "fig05")


@pytest.fixture(scope="module")
def fig06(artifact_results):
    return run_and_traces(artifact_results, "fig06")


class TestFig02:
    def test_both_layers_stream(self, fig02):
        _, t, _ = fig02
        assert t.get("layers").final() == 2
        assert t.get("buffer_L0").max() > 0

    def test_base_buffered_more_than_enhancement(self, fig02):
        _, t, _ = fig02
        assert t.get("buffer_L0").max() > t.get("buffer_L1").max()

    def test_backoffs_cause_draining(self, fig02):
        run, t, _ = fig02
        total = t.get("total_buffer")
        for backoff in run.backoff_times:
            before = total.value_at(backoff - 0.05)
            after_min = min(total.window(backoff,
                                         backoff + 3.0).values)
            assert after_min < before

    def test_renders(self, fig02):
        assert "Figure 2" in fig02[2]


class TestFig05:
    def test_layers_join_sequentially(self, fig05):
        run, t, _ = fig05
        layers = t.get("layers")
        assert layers.values[0] <= 2
        assert layers.max() == run.layers

    def test_base_heavy_distribution(self, fig05):
        _, t, _ = fig05
        means = [t.get(f"buffer_L{i}").mean() for i in range(3)]
        assert means[0] >= means[1] >= means[2]

    def test_backoff_drains_buffers(self, fig05):
        _, t, _ = fig05
        total = t.get("total_buffer")
        before = total.value_at(27.9)
        trough = min(total.window(28.0, 34.0).values)
        assert trough < before

    def test_renders(self, fig05):
        assert "Figure 5" in fig05[2]


class TestFig06:
    def test_buffering_exceeds_one_backoff_requirement(self, fig06):
        """The whole point of smoothing: before the second backoff the
        receiver holds more than one backoff's worth of protection."""
        run, t, text = fig06
        before = t.get("total_buffer").value_at(run.backoff_times[-1] - 0.1)
        assert before > 0
        assert "smoothing_factor_k_max" in text

    def test_two_filling_phases_visible(self, fig06):
        """Total buffering dips after backoff 1 and climbs again."""
        run, t, _ = fig06
        total = t.get("total_buffer")
        first_peak = max(total.window(0, 18.0).values)
        trough = min(total.window(18.0, 24.0).values)
        later = max(total.window(24.0, run.backoff_times[-1]).values)
        assert trough < first_peak
        assert later > trough
