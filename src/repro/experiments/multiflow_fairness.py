"""Multi-flow fairness (extension): N quality-adaptive sessions on one
bottleneck, built directly on :class:`repro.scenario.Scenario` -- the
reference example of composing multi-flow experiments from flow specs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import format_table
from repro.core.config import QAConfig
from repro.experiments import Results, artifact
from repro.scenario import (
    QAFlowSpec,
    Scenario,
    ScenarioConfig,
    ScenarioResult,
    TcpFlowSpec,
)
from repro.sim.topology import DumbbellConfig

#: Bottleneck capacity provisioned per flow (bytes/s). 20 KB/s against
#: 6.5 KB/s layers puts each QA flow's fair share around three layers,
#: the same relative operating point as the T1 calibration.
PER_FLOW_BANDWIDTH = 20_000.0


def build_scenario(n_qa: int, n_tcp: int = 4, *,
                   duration: float = 30.0, seed: int = 1,
                   layer_rate: float = 6500.0, packet_size: int = 500,
                   telemetry: bool = True,
                   record_decisions: bool = False,
                   collect_metrics: bool = False,
                   trace_spans: bool = False) -> Scenario:
    """The shared scenario: ``n_qa`` QA flows + ``n_tcp`` TCP flows on a
    dumbbell provisioned at :data:`PER_FLOW_BANDWIDTH` per flow.

    QA flows all start at t=0 with identical configs; TCP start times
    are drawn from each flow's own spawned RNG stream.
    ``record_decisions``/``collect_metrics``/``trace_spans`` attach the
    scenario's flight recorder, metrics registry and span recorder
    (``repro-report`` turns them on; the golden sweep leaves them off).
    """
    qa_config = QAConfig(layer_rate=layer_rate, packet_size=packet_size)
    flows = tuple(
        [QAFlowSpec(config=qa_config, label=f"qa{i}")
         for i in range(n_qa)]
        + [TcpFlowSpec(label=f"tcp{i}") for i in range(n_tcp)]
    )
    n_flows = n_qa + n_tcp
    return Scenario(ScenarioConfig(
        flows=flows,
        topology=DumbbellConfig(
            bottleneck_bandwidth=n_flows * PER_FLOW_BANDWIDTH,
            queue_capacity_packets=5 * n_flows,
        ),
        duration=duration,
        seed=seed,
        telemetry=telemetry,
        record_decisions=record_decisions,
        collect_metrics=collect_metrics,
        trace_spans=trace_spans,
    ))


@dataclass(frozen=True)
class MultiflowRun:
    """One sweep point as a run key: ``n_qa`` QA flows vs ``n_tcp`` TCP."""

    n_qa: int
    n_tcp: int = 4
    duration: float = 30.0
    seed: int = 1

    def execute(self) -> ScenarioResult:
        return build_scenario(self.n_qa, self.n_tcp, duration=self.duration,
                              seed=self.seed).run()


def multiflow_runs(seed: int = 1, counts=(2, 4, 8, 16), n_tcp: int = 4,
                   duration: float = 30.0) -> tuple:
    return tuple(MultiflowRun(n_qa, n_tcp, duration, seed)
                 for n_qa in counts)


@artifact("multiflow-fairness", runs=multiflow_runs)
def multiflow_fairness(results: Results) -> str:
    """Fairness among concurrent quality-adaptive flows (extension).

    The paper's T1/T2 tests watch *one* QA flow against background traffic.
    This experiment puts N quality-adaptive sessions head to head with TCP
    cross-traffic on a shared bottleneck sized at a fixed per-flow share, and
    sweeps N, asking the questions the single-flow tests cannot:

    - do competing QA flows converge to equal throughput shares (Jain index
      over the QA flows), and how does that fairness scale with N?
    - do they stay TCP-friendly in aggregate (QA share of delivered bytes
      vs the flow-count fair share)?
    - does delivered *quality* (mean active layers) stay even across flows?
    """
    rows = []
    for run, result in results.items():
        qa = result.qa_flows()
        qa_rates = [f.mean_rate for f in qa]
        total = sum(f.bytes_delivered for f in result.flows)
        qa_bytes = sum(f.bytes_delivered for f in qa)
        layer_means = [m for m in (f.mean_layers() for f in qa)
                       if m is not None]
        rows.append((
            run.n_qa, run.n_tcp,
            round(result.fairness_of("qa"), 3), round(result.fairness, 3),
            round(result.utilization, 3),
            round(qa_bytes / total if total > 0 else 0.0, 3),
            round(min(qa_rates)), round(max(qa_rates)),
            round(sum(layer_means) / len(layer_means)
                  if layer_means else 0.0, 2)))
    return format_table(
        ("QA flows", "TCP flows", "Jain(QA)", "Jain(all)",
         "utilization", "QA byte share", "min QA B/s", "max QA B/s",
         "mean layers"),
        rows,
        title="Multi-flow fairness: N QA sessions vs TCP cross-traffic")
