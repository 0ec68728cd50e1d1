"""Tests for the runner: deduplicated runs, determinism, seeds, manifest.

The load-bearing guarantees:

- each distinct run executes once, however many artifacts read it
  (Tables 1 and 2 share their 50 runs);
- parallel (process-pool) and serial execution produce byte-identical
  rendered output and output digests (determinism under parallelism);
- ``--seed`` reaches the artifacts built on one seeded run and leaves
  the seed-pooling ones alone;
- the run manifest records the distinct-run count, seeds and output
  digests, and a plain invocation writes nothing.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

import pytest

from repro.experiments import EXPERIMENTS, Artifact, runner
from repro.experiments.common import PaperRun
from repro.experiments.runner import build_manifest, run_experiments

CHEAP = ["fig01", "fig02", "fig05"]
RESULTS_DIR = pathlib.Path(__file__).resolve().parents[2] / "results"


def distinct_runs(names):
    return set().union(*runner.plan(names).values())


class TestDedup:
    def test_tables_share_their_runs(self):
        assert sum(len(runs) for runs in runner.plan(
            ["table1", "table2"]).values()) == 100
        assert len(distinct_runs(["table1", "table2"])) == 50

    def test_all_runs_each_distinct_run_once(self):
        names = sorted(EXPERIMENTS)
        asked = [run for runs in runner.plan(names).values() for run in runs
                 if isinstance(run, PaperRun)]
        assert len(asked) == 144
        # The 78 distinct T1/T2 runs: Table 1's 50, plus the runs whose
        # allocator, add rule, adapter, feedback, transport or
        # retransmission differ from the paper's configuration.
        assert len(set(asked)) == 78
        assert len(distinct_runs(names)) == 89  # + fig01, 3 fluid,
        #                                          4 multiflow, 3 flock

    def test_execute_runs_each_key_once(self):
        calls = []

        @dataclass(frozen=True)
        class Counted:
            name: str

            def execute(self):
                calls.append(self.name)
                return self.name.upper()

        results = runner.execute([Counted("a"), Counted("b"), Counted("a")])
        assert calls == ["a", "b"]
        assert list(results.values()) == ["A", "B"]

    def test_retransmit_rows_are_distinct_runs(self):
        runs = EXPERIMENTS["ablation-retransmit"].runs()
        assert len(set(runs)) == len(runs) == 6
        by_row = {}
        for run in runs:
            by_row.setdefault(run.config.retransmit_layers, set()).add(run)
        assert sorted(by_row) == [0, 1]
        assert not by_row[0] & by_row[1]

    def test_retransmit_renders_the_committed_artifact(self, execute):
        artifact = EXPERIMENTS["ablation-retransmit"]
        text = artifact.render(execute(artifact.runs()))
        assert text == (RESULTS_DIR / "ablation-retransmit.txt").read_text()


class TestDeterminism:
    def test_serial_and_parallel_runs_are_bit_identical(self):
        serial, runs = run_experiments(CHEAP, jobs=1)
        pooled, pooled_runs = run_experiments(CHEAP, jobs=2)
        # More than one distinct run, or execute() never starts the pool.
        assert runs == pooled_runs == 3
        assert [r.name for r in serial] == [r.name for r in pooled]
        for a, b in zip(serial, pooled):
            assert a.text == b.text, a.name
            assert a.output_sha256 == b.output_sha256, a.name

    def test_pooled_paper_runs_render_identically(self):
        """T1 outcomes (session, tracer, network stats) survive the trip
        back from a worker: pooled and serial render the same text."""
        artifact = EXPERIMENTS["fig12"]
        runs = artifact.runs(k_values=(2, 3), duration=10.0)
        assert len(set(runs)) == 2
        serial = artifact.render(runner.execute(runs, 1))
        pooled = artifact.render(runner.execute(runs, 2))
        assert serial == pooled

    def test_repeated_serial_runs_are_bit_identical(self):
        a = run_experiments(["fig01"])[0][0]
        b = run_experiments(["fig01"])[0][0]
        assert a.text == b.text
        assert a.output_sha256 == b.output_sha256


class TestSeedPlumbing:
    def test_explicit_seed_param_receives_override(self):
        runs = runner.plan(["ablation-add-rules"], seed=9)
        assert {run.seed for run in runs["ablation-add-rules"]} == {9}

    def test_var_keyword_run_receives_override(self):
        (run,) = runner.plan(["fig11"], seed=9)["fig11"]
        assert run.seed == 9
        assert run.config.k_max == 2

    def test_pooled_seeds_run_is_left_alone(self):
        runs = runner.plan(["table1"], seed=9)["table1"]
        assert runs == runner.plan(["table1"])["table1"]
        assert sorted({run.seed for run in runs}) == [1, 2, 3, 4, 5]

    def test_analytic_run_is_left_alone(self):
        assert runner.plan(["fig04"], seed=9) == {"fig04": ()}
        (record,), _ = run_experiments(["fig04"], seed=9)
        assert record.seeds == []

    def test_seed_override_changes_stochastic_output(self):
        (base,), _ = run_experiments(["fig11"])
        (other,), _ = run_experiments(["fig11"], seed=3)
        assert base.seeds == [1] and other.seeds == [3]
        assert base.text != other.text


class TestRenderProtocol:
    def test_render_experiment_full_path(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "stub", Artifact(
            runs=lambda seed=None: (),
            render=lambda results: f"module render: {len(results) + 7}"))
        assert runner.render_experiment("stub") == "module render: 7"

    def test_formula_artifacts_reject_unknown_params(self):
        assert "S1" in runner.render_experiment("fig08", seed=3)
        with pytest.raises(TypeError):
            runner.render_experiment("fig08", k_max=3)


class TestManifest:
    def test_fields(self):
        records, runs = run_experiments(["fig03", "fig04", "fig05"])
        manifest = build_manifest(records, jobs=2, runs=runs, seconds=1.5)
        assert manifest["schema"] == runner.MANIFEST_SCHEMA == 2
        assert manifest["jobs"] == 2
        assert manifest["runs"] == 1
        assert manifest["total_seconds"] == 1.5
        entries = manifest["experiments"]
        assert [e["name"] for e in entries] == ["fig03", "fig04", "fig05"]
        assert [e["runs"] for e in entries] == [0, 0, 1]
        for entry in entries:
            assert len(entry["output_sha256"]) == 64
            assert entry["seeds"] == []
        assert not {"cache_dir", "cache_hits", "cache_misses"} & set(manifest)


class TestCli:
    def test_multi_name_out_dir_writes_files_and_manifest(
            self, tmp_path, capsys):
        out = tmp_path / "out"
        assert runner.main(["fig03", "fig04", "--out", str(out)]) == 0
        assert (out / "fig03.txt").is_file()
        assert (out / "fig04.txt").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert {e["name"] for e in manifest["experiments"]} == \
            {"fig03", "fig04"}

    def test_no_cache_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert runner.main(["fig04", "fig03"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_explicit_manifest_path(self, tmp_path, capsys):
        target = tmp_path / "m.json"
        assert runner.main(["fig04", "--manifest", str(target)]) == 0
        assert json.loads(target.read_text())["runs"] == 0
