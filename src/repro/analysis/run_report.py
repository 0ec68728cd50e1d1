"""``repro-report``: one instrumented run rendered as a console report.

Runs a workload with the full observability stack attached — flight
recorder, metrics registry, engine self-profiling — and renders what the
paper's debugging sessions need: the §2.2 decision timeline (every layer
drop with the exact inequality inputs), ASCII rate/buffer charts, and a
metrics summary. With ``--out`` the raw artifacts land next to the
report::

    repro-report multiflow --n-qa 2 --out results/report
    repro-report t1 --seed 7
    repro-report t2 --duration 90 --out /tmp/t2-report

Artifacts written under ``--out``:

- ``report.txt``    — the rendered report (also printed to stdout)
- ``flight.jsonl``  — the decision log (deterministic JSONL)
- ``metrics.prom``  — Prometheus text exposition
- ``trace.json``    — Chrome trace-event JSON (about://tracing, Perfetto)
- ``manifest.json`` — runner-style manifest with the observability block

This module lives in ``analysis`` (not an RL001 determinism zone) on
purpose: it is the place that injects ``time.perf_counter`` into the
engine instrumentation, which the zoned modules must not import.
"""

from __future__ import annotations

import argparse
import pathlib
import time
from typing import Optional, Sequence

from repro.analysis.ascii_plot import ascii_chart, sparkline
from repro.analysis.export import export_manifest
from repro.analysis.report import format_kv, format_table
from repro.experiments.common import PaperWorkload, WorkloadConfig
from repro.experiments.multiflow_fairness import build_scenario
from repro.experiments.runner import RunRecord, build_manifest
from repro.scenario import Scenario
from repro.sim.trace import Tracer
from repro.telemetry import (
    FlightRecorder,
    Histogram,
    MetricsRegistry,
    export_chrome_trace,
    export_prometheus,
    instrument_engine,
    merge_spans,
)

#: Decision kinds shown line-by-line in the timeline (the rest are
#: summarized as counts; drop_rule fires every draining tick).
_TIMELINE_KINDS = ("add", "drop", "backoff", "transport_timeout",
                   "playout_start")
_TIMELINE_LIMIT = 60
_METRIC_ROW_LIMIT = 40


# ------------------------------------------------------------------ running


def _run_multiflow(args: argparse.Namespace) -> tuple[Scenario, str, Tracer]:
    scenario = build_scenario(
        args.n_qa, args.n_tcp, duration=args.duration, seed=args.seed,
        record_decisions=True, collect_metrics=True,
        trace_spans=args.trace)
    title = (f"multiflow_fairness: {args.n_qa} QA + {args.n_tcp} TCP, "
             f"seed={args.seed}, {args.duration:.0f}s")
    return scenario, title, scenario.flows[0].session.tracer


def _run_paper(args: argparse.Namespace) -> tuple[Scenario, str, Tracer]:
    config = WorkloadConfig(seed=args.seed, duration=args.duration,
                            record_decisions=True, collect_metrics=True,
                            trace_spans=args.trace)
    if args.workload == "t2":
        config = WorkloadConfig.t2(seed=args.seed, duration=args.duration,
                                   record_decisions=True,
                                   collect_metrics=True,
                                   trace_spans=args.trace)
    workload = PaperWorkload(config)
    title = (f"{args.workload.upper()} workload, seed={args.seed}, "
             f"{config.duration:.0f}s")
    return workload.scenario, title, workload.session.tracer


def run_scenario(scenario: Scenario) -> float:
    """Run with engine self-profiling attached; returns wall seconds."""
    instrumentation = instrument_engine(
        scenario.sim, scenario.metrics, time.perf_counter)
    start = time.perf_counter()
    scenario.run()
    seconds = time.perf_counter() - start
    if instrumentation is not None:
        instrumentation.detach()
    return seconds


# ---------------------------------------------------------------- rendering


def _render_timeline(recorder: FlightRecorder) -> str:
    counts: dict[str, int] = {}
    for record in recorder:
        counts[record.kind] = counts.get(record.kind, 0) + 1
    lines = [format_kv(
        {k: counts[k] for k in sorted(counts)},
        title=(f"Decision records: {recorder.total_recorded} recorded, "
               f"{recorder.evicted} evicted (capacity "
               f"{recorder.capacity})"))]
    shown = [r for r in recorder if r.kind in _TIMELINE_KINDS]
    truncated = len(shown) - _TIMELINE_LIMIT
    if truncated > 0:
        lines.append(f"  ... {truncated} earlier timeline entries "
                     f"omitted ...")
        shown = shown[-_TIMELINE_LIMIT:]
    for r in shown:
        fields = " ".join(
            f"{k}={_fmt_field(v)}" for k, v in sorted(r.fields.items()))
        lines.append(f"  t={r.time:8.3f}  {r.source:<8} {r.kind:<18} "
                     f"{fields}")
    return "\n".join(lines) + "\n"


def _fmt_field(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    if isinstance(value, list):
        return "[" + ",".join(_fmt_field(v) for v in value) + "]"
    return str(value)


def _render_drops(recorder: FlightRecorder) -> str:
    """Every layer drop with the §2.2 inequality it was judged by."""
    drops = recorder.records_of("drop")
    if not drops:
        return "Layer drops: none\n"
    rows = []
    for r in drops:
        f = r.fields
        deficit = None
        if isinstance(f.get("consumption"), (int, float)) and isinstance(
                f.get("rate"), (int, float)):
            deficit = float(f["consumption"]) - float(f["rate"])  # na*C - R
        rows.append((
            round(r.time, 2), r.source, f.get("layer"), f.get("cause"),
            None if deficit is None else round(deficit, 1),
            _maybe_round(f.get("threshold")),
            _maybe_round(f.get("drainable")),
            _maybe_round(f.get("slope")),
        ))
    return format_table(
        ("t", "flow", "layer", "cause", "na*C - R", "sqrt(2*S*buf)",
         "drainable B", "S"),
        rows,
        title="Layer drops vs the section 2.2 rule "
              "(drop when na*C - R >= sqrt(2*S*buf))")


def _maybe_round(value: object, digits: int = 1) -> Optional[float]:
    if isinstance(value, (int, float)):
        return round(float(value), digits)
    return None


def _render_metrics(metrics: MetricsRegistry) -> str:
    metrics.collect()
    scalar_rows = []
    histo_rows = []
    for instrument in metrics.instruments():
        labels = ",".join(f"{k}={v}" for k, v in instrument.labels)
        label = f"{instrument.name}{{{labels}}}" if labels \
            else instrument.name
        if isinstance(instrument, Histogram):
            # Native units (seconds for timings, items for heap depth):
            # %.3g strings, since the table renderer's .2f would flatten
            # sub-millisecond means to zero.
            histo_rows.append((
                label, instrument.count,
                f"{instrument.mean():.3g}",
                f"{instrument.total:.3g}"))
        else:
            scalar_rows.append((label, round(instrument.value, 2)))
    out = []
    truncated = len(scalar_rows) - _METRIC_ROW_LIMIT
    if truncated > 0:
        scalar_rows = scalar_rows[:_METRIC_ROW_LIMIT]
    out.append(format_table(("metric", "value"), scalar_rows,
                            title="Metrics (counters and gauges)"))
    if truncated > 0:
        out.append(f"  ... {truncated} more metrics in metrics.prom ...\n")
    if histo_rows:
        out.append(format_table(
            ("histogram", "count", "mean", "sum"), histo_rows,
            title="Histograms (per-handler timing in s, heap depth in "
                  "events)"))
    return "\n".join(out)


def _render_charts(tracer: Tracer) -> str:
    out = []
    try:
        rate = tracer.get("rate")
        consumption = tracer.get("consumption")
        out.append(ascii_chart(
            rate, title="rate (*) vs consumption na*C (o), bytes/s",
            overlay=consumption))
        total = tracer.get("total_buffer")
        out.append(ascii_chart(total, title="total receiver buffer, bytes"))
        layers = tracer.get("layers")
        out.append("active layers: "
                   + sparkline(layers.values) + "\n")
    except KeyError:
        out.append("(no time series: telemetry bus disabled)\n")
    return "\n".join(out)


def render_report(title: str, scenario: Scenario, tracer: Tracer,
                  seconds: float) -> str:
    sim = scenario.sim
    header = format_kv(
        {
            "events processed": sim.events_processed,
            "wall seconds": round(seconds, 3),
            "events/s": (round(sim.events_processed / seconds)
                         if seconds > 0 else None),
            "flows": len(scenario.flows),
            "recorder digest": scenario.recorder.digest()[:16],
        },
        title=f"repro-report · {title}")
    sections = [
        header,
        _render_drops(scenario.recorder),
        _render_timeline(scenario.recorder),
        _render_charts(tracer),
        _render_metrics(scenario.metrics),
    ]
    return "\n".join(sections)


# --------------------------------------------------------------- artifacts


def write_artifacts(out_dir: pathlib.Path, report: str, title: str,
                    scenario: Scenario, tracer: Tracer,
                    seconds: float, seed: int) -> list[pathlib.Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [out_dir / "report.txt"]
    written[0].write_text(report)
    recorder_path = scenario.recorder.write_jsonl(out_dir / "flight.jsonl")
    if recorder_path is not None:
        written.append(recorder_path)
    written.append(export_prometheus(out_dir / "metrics.prom",
                                     scenario.metrics))
    written.append(export_chrome_trace(out_dir / "trace.json",
                                       recorder=scenario.recorder,
                                       tracer=tracer,
                                       spans=merge_spans(scenario.spans)))
    record = RunRecord(name=f"report:{title}", text=report, seeds=[seed],
                       runs=1)
    manifest = build_manifest([record], jobs=1, runs=1, seconds=seconds,
                              observability=scenario.observability())
    written.append(export_manifest(manifest, out_dir / "manifest.json"))
    return written


# --------------------------------------------------------------------- CLI


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Run one instrumented workload and render a per-run "
                    "report (decision timeline, metrics, ASCII plots).")
    parser.add_argument(
        "workload", choices=("multiflow", "t1", "t2"),
        help="which workload to run instrumented")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--duration", type=float, default=None,
                        help="simulated seconds (default: workload's own)")
    parser.add_argument("--n-qa", type=int, default=2,
                        help="QA flows (multiflow only)")
    parser.add_argument("--n-tcp", type=int, default=4,
                        help="TCP cross flows (multiflow only)")
    parser.add_argument("--trace", action="store_true",
                        help="also record per-flow span trees; they land "
                             "in trace.json as nested spans per trace id")
    parser.add_argument("--out", default=None,
                        help="directory for report.txt, flight.jsonl, "
                             "metrics.prom, trace.json, manifest.json")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress stdout (artifacts only)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.duration is None:
        args.duration = {"multiflow": 30.0, "t1": 40.0, "t2": 90.0}[
            args.workload]
    if args.workload == "multiflow":
        scenario, title, tracer = _run_multiflow(args)
    else:
        scenario, title, tracer = _run_paper(args)
    seconds = run_scenario(scenario)
    report = render_report(title, scenario, tracer, seconds)
    if not args.quiet:
        print(report, end="")
    if args.out is not None:
        written = write_artifacts(pathlib.Path(args.out), report, title,
                                  scenario, tracer, seconds, args.seed)
        if not args.quiet:
            for path in written:
                print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
