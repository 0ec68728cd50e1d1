"""Shared fixtures and CLI options for the test suite.

Marker conventions:

- ``slow``: multi-minute work, skipped unless ``--run-slow`` (or
  ``--update-golden``, which must refresh the expensive artifacts too).
- ``differential``: packet-vs-fluid backend agreement tests
  (``tests/differential/``). The paper-figure subset is fast and always
  runs; the hypothesis fuzz sweep is additionally marked ``slow``, so
  ``--run-slow`` runs the full sweep — mirroring how the golden suite
  splits its FAST/SLOW artifact lists. Select just this suite with
  ``pytest -m differential``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.core.config import QAConfig
from repro.sim.engine import Simulator
from repro.sim.topology import Dumbbell, DumbbellConfig

# pyproject's ``pythonpath`` puts src/ on this interpreter's path; the
# interpreters some tests start get it through the environment.
_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/golden/ snapshots from freshly rendered "
             "experiment output instead of asserting against them")
    parser.addoption(
        "--run-slow", action="store_true", default=False,
        help="also run tests marked slow (multi-minute golden "
             "regenerations)")


def pytest_collection_modifyitems(config, items):
    # --update-golden implies running the slow golden tests: an update
    # that skipped the expensive artifacts would leave stale snapshots.
    if config.getoption("--run-slow") or config.getoption("--update-golden"):
        return
    skip_slow = pytest.mark.skip(reason="slow: pass --run-slow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def qa_config() -> QAConfig:
    """A small, fast default QA configuration for unit tests."""
    return QAConfig(
        layer_rate=5000.0,
        max_layers=4,
        k_max=2,
        packet_size=500,
        startup_delay=0.5,
    )


@pytest.fixture
def dumbbell(sim) -> Dumbbell:
    """A two-pair dumbbell with a 50 KB/s bottleneck."""
    return Dumbbell(sim, DumbbellConfig(
        n_pairs=2,
        bottleneck_bandwidth=50_000.0,
        queue_capacity_packets=20,
    ))
