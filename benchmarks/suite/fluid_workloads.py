"""The packet-free workloads: ``fluid_flock`` and ``fluid_scalar``.

Two solvers, two workloads, so that merging them ("the scalar engine is
the N=1 case of the batch") cannot speed one up by slowing the other
unseen: ``fluid_flock`` is one vectorised 10 000-flow population
(``sim.fluid_batch``, numpy), ``fluid_scalar`` is 150 single-flow
analytic runs (``sim.fluid`` + ``core.fluid_solver``, scalar Python).
Neither touches the event engine, a link or a socket.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.fluid import FluidRun, ScriptedAimd
from repro.experiments.flock_scale import FAIR_SHARE, batch_config
from repro.sim.fluid import FluidEngine, FluidFlowResult
from repro.sim.fluid_batch import BatchResult, FlowClassBatch
from repro.sim.rng import SeededRNG, derive_seed

from passes import PassReport, Workload, digest_of, sub_seeds
from quality import Quality
from spanlog import SpanLog, layer_self_seconds

SLOPE = 1000.0
FLOCK_FLOWS = 10_000
FLOCK_DURATION = 150.0
SCALAR_RUNS = 150
SCALAR_DURATION = 120.0
SCALAR_BACKOFFS = 8
#: Relative byte-conservation slack: float accumulation over a run.
CONSERVATION_TOLERANCE = 1e-6


@dataclass
class LiveFlock:
    batch: FlowClassBatch
    log: Optional[SpanLog] = None
    result: Optional[BatchResult] = None


class FluidFlock(Workload):

    def __init__(self, name: str) -> None:
        self.name = name

    def prepare(self, seed: int, seconds: Optional[float] = None) -> None:
        self._sub_seeds = sub_seeds(seed)

    def construct(self, k: int, log: Optional[SpanLog] = None
                  ) -> LiveFlock:
        if log is not None:
            log.begin(log.name("sim.fluid_batch:build"))
        batch = FlowClassBatch.jittered(
            batch_config(), FLOCK_FLOWS, slope=SLOPE,
            duration=FLOCK_DURATION, seed=self._sub_seeds[k],
            fair_share=FAIR_SHARE)
        if log is not None:
            log.end()
        return LiveFlock(batch, log)

    def run(self, live: LiveFlock) -> None:
        log = live.log
        if log is not None:
            log.begin(log.name("sim.fluid_batch:run"))
        live.result = live.batch.run()
        if log is not None:
            log.end()

    def collect(self, live: LiveFlock) -> PassReport:
        result = live.result
        assert result is not None
        sent = float(result.sent_bytes.sum())
        stalled = float(result.stall_bytes.sum())
        quality = Quality(
            layer_seconds=float(result.mean_layers.sum()) * result.duration,
            session_seconds=result.n_flows * result.duration,
            changes=int(result.adds.sum() + result.drops.sum()),
            play_wanted=float(result.consumed_bytes.sum()) + stalled,
            play_missed=stalled,
            efficiency_num=sent - float(result.discarded_bytes.sum()),
            efficiency_den=sent,
        )
        sha = hashlib.sha256()
        for column in (result.layers, result.adds, result.drops,
                       result.sent_bytes, result.mean_layers):
            sha.update(column.tobytes())
        decisions = hashlib.sha256(
            result.adds.tobytes() + result.drops.tobytes()).hexdigest()
        error = abs(result.conservation_error())
        slack = CONSERVATION_TOLERANCE * result.sent_bytes.clip(min=1.0)
        broken = int((error > slack).sum() + (result.layers < 1).sum())
        report = PassReport(
            stream_seconds=result.n_flows * result.duration,
            quality=quality,
            digest=sha.hexdigest(),
            decisions=decisions,
            attempted=result.n_flows,
            failed=broken,
            problems=([f"fluid_flock: {broken} flows break byte "
                       f"conservation or lost their base layer"]
                      if broken else []),
        )
        if live.log is not None:
            report.counters = {
                "sim.fluid_batch.flows": result.n_flows,
                "sim.fluid_batch.sent_bytes": sent,
            }
        return report

    def layer_metrics(self, live: LiveFlock, report: PassReport,
                      traced_wall: float) -> dict[str, float]:
        assert live.log is not None
        stats = live.log.aggregate()
        out = dict(report.counters)
        out["sim.fluid_batch.build_s"] = stats[
            "sim.fluid_batch:build"].total_s
        out["sim.fluid_batch.run_s"] = stats["sim.fluid_batch:run"].total_s
        out["trace.spans"] = len(live.log)
        out["trace.attributed_share"] = (
            sum(layer_self_seconds(stats).values()) / traced_wall)
        return out


@dataclass
class LiveScalar:
    engines: list[FluidEngine]
    log: Optional[SpanLog] = None
    results: list[FluidFlowResult] = field(default_factory=list)


class FluidScalar(Workload):

    def __init__(self, name: str) -> None:
        self.name = name

    def prepare(self, seed: int, seconds: Optional[float] = None) -> None:
        self._scripts: list[list[tuple[float, ...]]] = []
        for sub in sub_seeds(seed):
            scripts = []
            for i in range(SCALAR_RUNS):
                rng = SeededRNG(derive_seed(sub, "scalar-flow", i))
                scripts.append(tuple(sorted(
                    rng.uniform(5.0, SCALAR_DURATION - 5.0)
                    for _ in range(SCALAR_BACKOFFS))))
            self._scripts.append(scripts)

    def construct(self, k: int, log: Optional[SpanLog] = None
                  ) -> LiveScalar:
        config = batch_config()
        return LiveScalar([
            FluidEngine(
                config,
                ScriptedAimd(FAIR_SHARE, SLOPE, backoff_times=script,
                             max_rate=2.5 * FAIR_SHARE),
                duration=SCALAR_DURATION, sample_period=None)
            for script in self._scripts[k]], log)

    def run(self, live: LiveScalar) -> None:
        log = live.log
        if log is None:
            live.results = [engine.run() for engine in live.engines]
            return
        name_id = log.name("sim.fluid:run")
        for engine in live.engines:
            log.begin(name_id)
            live.results.append(engine.run())
            log.end()

    def collect(self, live: LiveScalar) -> PassReport:
        quality = Quality()
        decisions = []
        behaviour = []
        broken = 0
        for result in live.results:
            metrics = result.metrics
            quality.add_session(
                [t for t, _ in metrics.adds],
                [e.time for e in metrics.drops],
                [e.efficiency for e in metrics.drops],
                start=0.0, end=result.duration,
                stall_seconds=metrics.stall_time)
            decisions.append([metrics.adds,
                              [[e.time, e.layer] for e in metrics.drops]])
            behaviour.append([result.epochs, result.sent_bytes,
                              result.final_buffer, result.final_layers])
            slack = CONSERVATION_TOLERANCE * max(1.0, result.sent_bytes)
            if (abs(result.conservation_error) > slack
                    or result.final_layers < 1):
                broken += 1
        report = PassReport(
            stream_seconds=len(live.results) * SCALAR_DURATION,
            quality=quality,
            digest=digest_of([behaviour, decisions]),
            decisions=digest_of(decisions),
            attempted=len(live.results),
            failed=broken,
            problems=([f"fluid_scalar: {broken} runs break byte "
                       f"conservation or lost their base layer"]
                      if broken else []),
        )
        if live.log is not None:
            report.counters = {"sim.fluid.epochs": sum(
                r.epochs for r in live.results)}
        return report

    def layer_metrics(self, live: LiveScalar, report: PassReport,
                      traced_wall: float) -> dict[str, float]:
        assert live.log is not None
        stats = live.log.aggregate()
        out = dict(report.counters)
        out["sim.fluid.us_per_epoch"] = (
            1e6 * stats["sim.fluid:run"].total_s
            / max(1.0, out["sim.fluid.epochs"]))
        out["trace.spans"] = len(live.log)
        out["trace.attributed_share"] = (
            sum(layer_self_seconds(stats).values()) / traced_wall)
        return out

    def drives(self, base_wall: float, live: object
               ) -> tuple[dict[str, float], list[str]]:
        """The packet-equivalent unit cost: the same mechanism advanced
        per quantum by ``FluidRun`` over the first scripted flow."""
        script = self._scripts[0][0]
        replay = FluidRun(
            batch_config(),
            ScriptedAimd(FAIR_SHARE, SLOPE, backoff_times=script,
                         max_rate=2.5 * FAIR_SHARE),
            duration=SCALAR_DURATION)
        t0 = time.perf_counter()
        replay.run()
        seconds = time.perf_counter() - t0
        return {"core.fluid.replay_flow_sim_s_per_s":
                SCALAR_DURATION / seconds}, []
