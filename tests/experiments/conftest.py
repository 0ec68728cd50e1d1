"""Shared fixture: runs executed once per session, as the runner does.

Test modules ask for shortened run sets; equal run keys across modules
(Table 1's T1 / K_max = 2 runs and the ablations' paper-configuration
rows, say) execute once.
"""

from __future__ import annotations

from types import MappingProxyType

import pytest

from repro.experiments import EXPERIMENTS, runner


@pytest.fixture(scope="session")
def execute():
    done: dict = {}

    def run(runs):
        done.update(runner.execute(r for r in runs if r not in done))
        return MappingProxyType({r: done[r] for r in runs})

    return run


@pytest.fixture(scope="session")
def artifact_results(execute):
    """``artifact_results(name, **params)``: the results the artifact's
    renderer would receive for ``runs(**params)``."""
    def results(name, **params):
        return execute(EXPERIMENTS[name].runs(**params))
    return results
