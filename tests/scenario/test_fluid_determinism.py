"""Determinism guarantees of the fluid backend.

Mirror of ``test_determinism.py`` for the analytic path: a fluid
scenario must be bit-for-bit reproducible run to run, and the rendered
flock-scale artifact must hash identically whether executed in-process
or in a worker process — numpy vectorization and process boundaries
must not leak into a single float.
"""

from __future__ import annotations

import concurrent.futures
import hashlib

from repro.core.config import QAConfig
from repro.experiments import runner
from repro.scenario import (
    ScenarioConfig,
    ScenarioResult,
    ScriptedQAFlowSpec,
    run_scenario,
)
from tests.scenario.test_determinism import fingerprint

DURATION = 25.0


def build_config() -> ScenarioConfig:
    qa = QAConfig(layer_rate=2500, max_layers=5, k_max=2,
                  packet_size=200, startup_delay=0.5)
    flows = tuple(
        ScriptedQAFlowSpec(
            config=qa,
            initial_rate=4_000.0 + 1_500.0 * i,
            slope=800.0 + 100.0 * i,
            backoff_times=(8.0 + i, 17.0 + 0.5 * i),
            max_rate=18_000.0,
            label=f"scripted{i}")
        for i in range(4)
    )
    return ScenarioConfig(flows=flows, duration=DURATION,
                          backend="fluid")


def run_once() -> ScenarioResult:
    return run_scenario(build_config())


def test_fluid_scenarios_are_bit_for_bit_reproducible():
    assert fingerprint(run_once()) == fingerprint(run_once())


def test_fluid_and_packet_fingerprints_stay_close_but_distinct():
    """Backends agree to tolerance, not to the bit — the differential
    harness owns the tolerance; determinism must not blur the two."""
    fluid = fingerprint(run_once())
    packet = fingerprint(run_scenario(ScenarioConfig(
        flows=build_config().flows, duration=DURATION,
        backend="packet")))
    assert fluid != packet


def test_serial_and_pooled_flock_scale_hash_identically():
    """The artifact's sha256 must not depend on where it is computed."""
    params = {"counts": (50, 200), "duration": 15.0}
    serial_text = runner.render_experiment("flock-scale", **params)
    with concurrent.futures.ProcessPoolExecutor(1) as pool:
        pooled_text = pool.submit(runner.render_experiment,
                                  "flock-scale", **params).result()
    serial_sha = hashlib.sha256(serial_text.encode()).hexdigest()
    pooled_sha = hashlib.sha256(pooled_text.encode()).hexdigest()
    assert serial_sha == pooled_sha
