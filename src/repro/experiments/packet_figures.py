"""The packet-level figures: Figure 1's lone RAP sawtooth and Figures
11-13, single T1/T2 runs that Tables 1 and 2 also pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.analysis import ascii_chart, format_kv, format_table
from repro.experiments import Results, artifact
from repro.experiments.common import PaperOutcome, PaperRun, WorkloadConfig
from repro.scenario import RapFlowSpec, Scenario, ScenarioConfig
from repro.sim.topology import DumbbellConfig
from repro.sim.trace import TimeSeries
from repro.telemetry import TelemetryBus, TransportRateProbe


@dataclass(frozen=True)
class RapSawtooth:
    """Figure 1's run: one RAP source through a fixed-bandwidth
    bottleneck. The defaults put the link at 12.5 KB/s (the paper's axis
    tops at about 14 KB/s) with a small drop-tail queue so losses come
    regularly."""

    link_bandwidth: float = 12_500.0
    duration: float = 40.0
    packet_size: int = 500
    queue_packets: int = 12
    seed: ClassVar[None] = None

    def execute(self) -> dict:
        scenario = Scenario(ScenarioConfig(
            flows=(RapFlowSpec(packet_size=self.packet_size, srtt_init=0.2,
                               start=0.0),),
            topology=DumbbellConfig(
                bottleneck_bandwidth=self.link_bandwidth,
                queue_capacity_packets=self.queue_packets,
            ),
            duration=self.duration,
        ))
        flow = scenario.flows[0]
        bus = TelemetryBus(scenario.sim)
        bus.subscribe(TransportRateProbe(flow.source, "rap_rate",
                                         period=0.05))
        scenario.run()
        rate = bus.tracer.get("rap_rate")
        return {
            "rate": rate,
            "mean_rate": rate.time_average(),
            "utilization": (flow.sink.stats.bytes_received
                            / (self.link_bandwidth * self.duration)),
            "backoffs": flow.source.stats.backoffs,
        }


@artifact("fig01",
          runs=lambda seed=None, **params: (RapSawtooth(**params),))
def fig01(results: Results) -> str:
    """Figure 1: transmission rate of a single RAP flow.

    One RAP source through a fixed-bandwidth bottleneck. The paper's figure
    shows the characteristic AIMD sawtooth hunting around the link rate:
    linear climbs, multiplicative halvings at each loss.
    """
    (run, out), = results.items()
    rate = out["rate"]
    link = TimeSeries("link")
    for t in (rate.times[0], rate.times[-1]):
        link.record(t, run.link_bandwidth)
    text = ascii_chart(
        rate, title="Figure 1: RAP transmission rate (*) vs "
        "link bandwidth (o), bytes/s", overlay=link)
    text += format_kv({
        "link_bandwidth_Bps": run.link_bandwidth,
        "mean_rate_Bps": out["mean_rate"],
        "utilization": out["utilization"],
        "backoffs": out["backoffs"],
    })
    return text


def fig11_runs(seed: int = 1, k_max: int = 2, **fields) -> tuple:
    return (PaperRun(WorkloadConfig(k_max=k_max, seed=seed, **fields)),)


@artifact("fig11", runs=fig11_runs)
def fig11(results: Results) -> str:
    """Figure 11: the first 40 seconds of the K_max = 2 trace (test T1).

    One quality-adaptive RAP flow against 9 RAP and 10 TCP flows. The
    paper's five panels, reproduced as ASCII charts over the same trace:

    1. total transmit rate with the consumption rate (layer count) overlaid;
    2. transmit rate broken down by layer (per-layer bandwidth share);
    3. per-layer bandwidth share (same data, separate panels);
    4. per-layer buffer drain rate;
    5. per-layer accumulated receiver buffering.

    Shape checks (asserted by the test suite, reported here): most bandwidth
    variation is absorbed by the lowest layers; buffering is ordered
    base-heaviest; the base layer never underflows.
    """
    (run, outcome), = results.items()
    t = outcome.session.tracer
    layers = range(run.config.max_layers)
    out = ascii_chart(
        t.get("rate"), overlay=t.get("consumption"),
        title="Figure 11: transmit rate (*) vs consumption rate (o), "
        "bytes/s")
    for series, what in (("send_rate", "bandwidth share"),
                         ("drain_rate", "buffer drain rate")):
        for i in layers:
            out += ascii_chart(
                t.get(f"{series}_L{i}"),
                title=f"Figure 11: {what}, layer {i} (bytes/s)")
    for i in layers:
        out += ascii_chart(
            t.get(f"buffer_L{i}"),
            title=f"Figure 11: buffered data, layer {i} (bytes)")
    summary = outcome.session.summary()
    summary.update(outcome.network)
    out += format_kv(summary, title="Figure 11 summary")
    return out


def fig12_runs(seed: int = 1, k_values=(2, 3, 4), **fields) -> tuple:
    """Repeats the T1 run with K_max = 2, 3, 4 (and optionally more)."""
    return tuple(PaperRun(WorkloadConfig(k_max=k, seed=seed, **fields))
                 for k in k_values)


@artifact("fig12", runs=fig12_runs)
def fig12(results: Results) -> str:
    """Figure 12: the effect of the smoothing factor K_max.

    The paper's claims, which the table quantifies:

    - higher K_max means *fewer changes in quality* (adds + drops);
    - at the expense of a longer time until the best short-term quality is
      first reached;
    - the total amount of buffering increases with K_max;
    - and a larger share of the buffering sits in higher layers.
    """
    rows = []
    for run, outcome in results.items():
        tracer = outcome.session.tracer
        max_layers = run.config.max_layers
        time_to_max = next((t for t, v in tracer.get("layers")
                            if v >= max_layers), None)
        means = [tracer.get(f"buffer_L{i}").mean()
                 for i in range(max_layers)]
        everything = sum(means)
        share = sum(means[1:]) / everything if everything > 0 else 0.0
        total = tracer.get("total_buffer")
        summary = outcome.session.summary()
        rows.append((run.config.k_max, summary["quality_changes"],
                     summary["adds"], summary["drops"], time_to_max,
                     round(total.mean()), round(total.max()),
                     round(100 * share, 1),
                     round(summary["mean_layers"], 2)))
    return format_table(
        ("Kmax", "quality changes", "adds", "drops",
         "t(first max quality) s", "mean buf (B)", "max buf (B)",
         "higher-layer buf share %", "mean layers"),
        rows, title="Figure 12: effect of the smoothing factor K_max (T1)")


def fig13_runs(seed: int = 1, k_max: int = 4, **fields) -> tuple:
    return (PaperRun(WorkloadConfig.t2(k_max=k_max, seed=seed, **fields)),)


def cbr_phase_means(run: PaperRun, outcome: PaperOutcome) -> dict:
    """Mean active layers before / during / after the CBR burst."""
    layers = outcome.session.tracer.get("layers")
    cfg = run.config
    return {
        "mean_layers_before_cbr": layers.window(5.0, cfg.cbr_start).mean(),
        "mean_layers_during_cbr": layers.window(
            cfg.cbr_start + 5.0, cfg.cbr_stop).mean(),
        "mean_layers_after_cbr": layers.window(
            cfg.cbr_stop + 5.0, cfg.duration).mean(),
    }


@artifact("fig13", runs=fig13_runs)
def fig13(results: Results) -> str:
    """Figure 13: responsiveness to long-term bandwidth changes (test T2).

    The T1 mix plus a CBR source at half the bottleneck bandwidth, on from
    t=30 s to t=60 s, K_max = 4, 90-second run. The shape to reproduce:

    - when the CBR starts, the congestion controller's rate collapses and
      the adapter sheds layers (top first), drawing on every layer's buffer
      -- but the base layer keeps playing throughout;
    - when the CBR stops, the rate recovers and the layers are re-added.
    """
    (run, outcome), = results.items()
    t = outcome.session.tracer
    out = ascii_chart(
        t.get("rate"), overlay=t.get("consumption"),
        title="Figure 13: transmit rate (*) vs consumption (o); CBR "
        "on 30-60 s")
    out += ascii_chart(t.get("layers"), title="Figure 13: active layers")
    for i in range(run.config.max_layers):
        out += ascii_chart(
            t.get(f"buffer_L{i}"),
            title=f"Figure 13: buffered data, layer {i} (bytes)")
    summary = outcome.session.summary()
    summary.update(cbr_phase_means(run, outcome))
    out += format_kv(summary, title="Figure 13 summary")
    return out
