"""Determinism guarantees of the fluid models.

Mirror of ``test_determinism.py`` for the analytic path: the fluid
engines must be bit-for-bit reproducible run to run, and the rendered
flock-scale artifact must hash identically whether executed in-process
or in a worker process — numpy vectorization and process boundaries
must not leak into a single float.
"""

from __future__ import annotations

import concurrent.futures
import hashlib

from repro.core.config import QAConfig
from repro.core.fluid import FluidResult, FluidRun, ScriptedAimd
from repro.experiments import runner
from repro.sim.fluid import FluidEngine, FluidFlowResult

DURATION = 25.0
QA = QAConfig(layer_rate=2500, max_layers=5, k_max=2,
              packet_size=200, startup_delay=0.5)


def scripts() -> list[ScriptedAimd]:
    """Four scripted sawtooths, fresh per run (a run consumes one)."""
    return [
        ScriptedAimd(4_000.0 + 1_500.0 * i, 800.0 + 100.0 * i,
                     backoff_times=(8.0 + i, 17.0 + 0.5 * i),
                     max_rate=18_000.0)
        for i in range(4)
    ]


def fingerprint(sent: list[float],
                results: list[FluidFlowResult] | list[FluidResult]) -> str:
    """Exact textual image of each flow's sent bytes, mean layers and
    add/drop instants."""
    return "|".join(
        f"{s!r}:{r.tracer.get('layers').time_average()!r}:"
        f"{r.metrics.adds!r}:{[d.time for d in r.metrics.drops]!r}"
        for s, r in zip(sent, results))


def fluid_fingerprint(results: list[FluidFlowResult]) -> str:
    return fingerprint([r.sent_bytes for r in results], results)


def packet_fingerprint(results: list[FluidResult]) -> str:
    return fingerprint(
        [float(sum(r.adapter.sent_bytes_per_layer)) for r in results],
        results)


def run_fluid() -> list[FluidFlowResult]:
    return [FluidEngine(QA, aimd, duration=DURATION).run()
            for aimd in scripts()]


def test_fluid_scenarios_are_bit_for_bit_reproducible():
    assert fluid_fingerprint(run_fluid()) == fluid_fingerprint(run_fluid())


def test_fluid_and_packet_fingerprints_stay_close_but_distinct():
    """Backends agree to tolerance, not to the bit — the differential
    harness owns the tolerance; determinism must not blur the two."""
    packet = [FluidRun(QA, aimd, duration=DURATION).run()
              for aimd in scripts()]
    assert fluid_fingerprint(run_fluid()) != packet_fingerprint(packet)


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
