"""Tests for the artifact table, CLI runner and workload builder."""

from repro.experiments import EXPERIMENTS, runner
from repro.experiments.common import (
    PaperOutcome,
    PaperRun,
    PaperWorkload,
    Pooled,
    WorkloadConfig,
)


class TestRegistry:
    def test_every_entry_importable_with_run(self):
        for name, artifact in EXPERIMENTS.items():
            assert callable(artifact.runs), name
            assert callable(artifact.render), name
            assert artifact.render.__doc__, name  # states the paper claim

    def test_expected_experiments_present(self):
        for name in ("fig01", "fig11", "fig12", "fig13", "table1",
                     "table2"):
            assert name in EXPERIMENTS


class TestRunnerCli:
    def test_list(self, capsys):
        assert runner.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out

    def test_unknown_experiment(self, capsys):
        assert runner.main(["nope"]) == 2

    def test_runs_an_analytic_experiment(self, capsys):
        assert runner.main(["fig04"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "fig04.txt"
        assert runner.main(["fig04", "--out", str(target)]) == 0
        assert "Figure 4" in target.read_text()


class TestWorkloadConfig:
    def test_defaults(self):
        cfg = WorkloadConfig()
        assert cfg.cbr_fraction == 0.0
        assert cfg.qa_config().k_max == cfg.k_max

    def test_t2_variant(self):
        cfg = WorkloadConfig.t2(k_max=4)
        assert cfg.cbr_fraction == 0.5
        assert cfg.duration == 90.0
        assert cfg.k_max == 4

    def test_retransmit_layers_reach_the_adapter(self):
        cfg = WorkloadConfig(retransmit_layers=1, duration=1.0)
        assert cfg.qa_config().retransmit_layers == 1
        adapter = PaperWorkload(cfg).session.server.adapter
        assert adapter.config.retransmit_layers == 1

    def test_equal_configs_are_one_run_key(self):
        assert PaperRun(WorkloadConfig(k_max=3)) == \
            PaperRun(WorkloadConfig(k_max=3))
        assert len({PaperRun(WorkloadConfig(seed=s)) for s in (1, 1, 2)}) \
            == 2


class TestPaperWorkload:
    def test_overrides_via_kwargs(self):
        w = PaperWorkload(k_max=5, duration=5.0)
        assert w.config.k_max == 5

    def test_config_plus_overrides(self):
        w = PaperWorkload(WorkloadConfig(k_max=3), duration=5.0)
        assert w.config.k_max == 3
        assert w.config.duration == 5.0

    def test_flow_counts(self):
        kinds = [f.kind for f in PaperWorkload(duration=1.0).scenario.flows]
        assert kinds.count("rap") == 9
        assert kinds.count("tcp") == 10
        assert "cbr" not in kinds

    def test_cbr_present_for_t2(self):
        w = PaperWorkload(WorkloadConfig.t2(duration=1.0))
        assert "cbr" in [f.kind for f in w.scenario.flows]

    def test_same_seed_reproduces(self):
        a = PaperWorkload(seed=7, duration=8.0).run()
        b = PaperWorkload(seed=7, duration=8.0).run()
        assert a.summary() == b.summary()

    def test_different_seeds_differ(self):
        a = PaperWorkload(seed=1, duration=10.0).run()
        b = PaperWorkload(seed=2, duration=10.0).run()
        assert (a.tracer.get("rate").values
                != b.tracer.get("rate").values)

    def test_network_summary(self):
        w = PaperWorkload(duration=5.0)
        w.run()
        summary = w.network_summary()
        assert 0 < summary["bottleneck_utilization"] <= 1.05

    def test_pooled_metrics(self, execute):
        runs = [PaperRun(WorkloadConfig(seed=seed, duration=8.0))
                for seed in (1, 2)]
        results = execute(runs)
        assert all(isinstance(o, PaperOutcome) for o in results.values())
        pooled = Pooled(list(results.items())).metrics
        assert pooled.adds or pooled.drops or True  # pools run fine
