"""Population scale (extension): homogeneous QA flocks of 100 to 10 000
flows on the fluid batch backend, :class:`~repro.sim.fluid_batch.
FlowClassBatch`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import format_table
from repro.core.config import QAConfig
from repro.experiments import Results, artifact
from repro.sim.fluid_batch import BatchResult, FlowClassBatch

#: Fair share each flow oscillates around (bytes/s) — 8x the layer
#: rate, so the population hunts in the upper half of the layer range.
FAIR_SHARE = 20_000.0


def batch_config() -> QAConfig:
    """The shared mechanism config for the flock (one codec class)."""
    return QAConfig(layer_rate=2500.0, max_layers=8, k_max=2)


@dataclass(frozen=True)
class FlockRun:
    """One sweep point as a run key: a population of ``n_flows``
    identical-class flows with independent sawtooth phases, fully
    determined by ``seed``."""

    n_flows: int
    duration: float = 40.0
    seed: int = 1

    def execute(self) -> BatchResult:
        return FlowClassBatch.jittered(
            batch_config(), self.n_flows, slope=1000.0,
            duration=self.duration, seed=self.seed,
            fair_share=FAIR_SHARE).run()


def flock_runs(seed: int = 1, counts=(100, 1000, 10000),
               duration: float = 40.0) -> tuple:
    return tuple(FlockRun(n, duration, seed) for n in counts)


@artifact("flock-scale", runs=flock_runs)
def flock_scale(results: Results) -> str:
    """Population-scale behavior of the mechanism (extension).

    The paper argues quality adaptation is viable *per flow*; a deployment
    question it leaves open is what a whole population looks like: when
    hundreds to tens of thousands of QA flows each run the §2.2 machinery
    around a fair share, how even is delivered quality, and do add/drop
    rates stay modest? Packet simulation cannot answer at this scale — 10k
    flows at packet granularity is billions of events. The fluid fast path
    can: :class:`~repro.sim.fluid_batch.FlowClassBatch` advances a
    homogeneous flow class as one numpy program, so the sweep below runs
    four orders of magnitude of population in seconds.

    Each flow follows its own jittered AIMD sawtooth around the same fair
    share (independent backoff phases drawn from index-keyed seeds), so the
    sweep isolates the *mechanism's* dispersion: any unfairness in mean
    rate or layers comes from how quality adaptation quantizes an identical
    bandwidth process, not from network interaction.
    """
    rows = []
    for run, result in results.items():
        s = result.summary()
        rows.append((run.n_flows, round(s["mean_layers"], 3),
                     round(s["mean_rate"]), round(s["fairness"], 4),
                     round(s["adds_per_flow"], 2),
                     round(s["drops_per_flow"], 2),
                     round(s["stall_fraction"], 4), round(s["mean_buffer"])))
    return format_table(
        ("flows", "mean layers", "mean B/s", "Jain", "adds/flow",
         "drops/flow", "stalled", "mean buffer B"),
        rows,
        title="Flock scale: homogeneous QA populations "
              "(fluid batch backend)")
