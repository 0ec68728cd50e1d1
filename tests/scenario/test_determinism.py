"""Determinism guarantees of multi-flow scenarios.

The acceptance bar for the scenario layer: an 8-QA-flow run with TCP
cross-traffic must be bit-for-bit reproducible run to run, and the
rendered multiflow artifact must hash identically whether executed
in-process or in a worker process (the parallel runner's contract).
"""

from __future__ import annotations

import concurrent.futures
import hashlib

from repro.experiments import multiflow_fairness, runner
from repro.scenario import ScenarioResult

N_QA = 8
N_TCP = 4
DURATION = 10.0


def fingerprint(result: ScenarioResult) -> str:
    """Exact textual image of every float the result exposes.

    Flow ids are excluded: they come from a process-global counter and
    differ between runs without affecting any simulated outcome.
    """
    parts = [repr(result.fairness), repr(result.link_utilization)]
    for flow in result.flows:
        parts.append(
            f"{flow.label}:{flow.bytes_delivered}:"
            f"{flow.mean_rate!r}:{flow.share!r}:{flow.start!r}")
    return "|".join(parts)


def run_once() -> ScenarioResult:
    scenario = multiflow_fairness.build_scenario(
        N_QA, N_TCP, duration=DURATION)
    return scenario.run()


def test_eight_qa_flows_are_bit_for_bit_reproducible():
    assert fingerprint(run_once()) == fingerprint(run_once())


def test_seed_changes_the_outcome():
    base = multiflow_fairness.build_scenario(
        N_QA, N_TCP, duration=DURATION).run()
    other = multiflow_fairness.build_scenario(
        N_QA, N_TCP, duration=DURATION, seed=2).run()
    assert fingerprint(base) != fingerprint(other)


def test_serial_and_pooled_render_hash_identically():
    """The artifact's sha256 must not depend on where it is computed."""
    params = {"counts": (N_QA,), "duration": DURATION}
    serial_text = runner.render_experiment("multiflow-fairness", **params)
    with concurrent.futures.ProcessPoolExecutor(1) as pool:
        pooled_text = pool.submit(runner.render_experiment,
                                  "multiflow-fairness", **params).result()
    serial_sha = hashlib.sha256(serial_text.encode()).hexdigest()
    pooled_sha = hashlib.sha256(pooled_text.encode()).hexdigest()
    assert serial_sha == pooled_sha
