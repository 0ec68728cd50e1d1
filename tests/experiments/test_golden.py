"""Golden-output regression tests: the paper artifacts may never drift.

Two layers of protection:

1. Every artifact is re-rendered and compared byte-for-byte against its
   snapshot in ``tests/golden/``. Cheap artifacts run in every test
   session; the ones that need packet simulations carry
   ``@pytest.mark.slow`` (enable with ``--run-slow``). They share one
   session's runs, so Tables 1 and 2 execute their 50 runs once.
2. The committed ``results/*.txt`` artifacts must equal the golden
   snapshots file-for-file — this costs nothing and covers *all*
   experiments in every session.

After an intentional output change, regenerate with::

    PYTHONPATH=src python -m pytest tests/experiments/test_golden.py \\
        --update-golden
    repro-experiments all --out results/
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.runner import EXPERIMENTS

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden"
RESULTS_DIR = GOLDEN_DIR.parents[1] / "results"

#: Artifacts cheap enough to re-render on every test run.
FAST = ("fig01", "fig02", "fig03", "fig04", "fig05", "fig07", "fig08",
        "fig09", "fig10", "fig14", "ablation-nonlinear", "flock-scale")
#: Artifacts that take seconds to a minute of packet simulation.
SLOW = ("fig06", "fig11", "fig12", "fig13", "table1", "table2",
        "multiflow-fairness", "ablation-allocators", "ablation-add-rules",
        "ablation-static", "ablation-feedback", "ablation-transport",
        "ablation-retransmit")

PAPER_ARTIFACTS = [
    *(pytest.param(name, id=name) for name in FAST),
    *(pytest.param(name, id=name, marks=pytest.mark.slow)
      for name in SLOW),
]


def test_every_paper_artifact_is_parametrized():
    assert set(FAST) | set(SLOW) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", PAPER_ARTIFACTS)
def test_rendered_output_matches_golden(name, request, artifact_results):
    text = EXPERIMENTS[name].render(artifact_results(name))
    golden = GOLDEN_DIR / f"{name}.txt"
    if request.config.getoption("--update-golden"):
        golden.write_text(text)
        return
    assert golden.is_file(), (
        f"missing snapshot {golden}; create it with --update-golden")
    assert text == golden.read_text(), (
        f"{name} output drifted from tests/golden/{name}.txt — if the "
        "change is intentional, rerun with --update-golden and "
        "regenerate results/")


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_committed_results_equal_golden(name):
    """results/*.txt must stay in lockstep with the golden snapshots."""
    golden = GOLDEN_DIR / f"{name}.txt"
    committed = RESULTS_DIR / f"{name}.txt"
    assert golden.is_file(), f"no golden snapshot for {name}"
    assert committed.is_file(), f"no committed artifact for {name}"
    assert committed.read_text() == golden.read_text(), (
        f"results/{name}.txt no longer matches tests/golden/{name}.txt")
