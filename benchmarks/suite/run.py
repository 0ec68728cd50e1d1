#!/usr/bin/env python3
"""One benchmark suite for the whole stack.

    python3 benchmarks/suite/run.py                      # every workload
    python3 benchmarks/suite/run.py --traced --out FILE  # + per-layer set
    python3 benchmarks/suite/run.py --workload qa_contended --seed 3

Without ``--workload`` each workload runs in a fresh subprocess, one
after another; every metric is printed by name with its unit, and the
exit status is non-zero when any correctness check fails. With
``--workload`` (the form ``BENCHMARK.json``'s ``command`` is driven in)
one workload runs in this process and the last line of standard output
is the result object: ``--trace 0`` yields the end-to-end metrics,
``--trace 1`` one traced pass and the per-layer metrics.

Metric names, units and directions are read from ``BENCHMARK.json``;
see README.md in this directory for what each one means.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import TYPE_CHECKING, Any, Optional  # noqa: E402

if TYPE_CHECKING:
    from passes import Timing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 3
DETAIL_PREFIX = "#detail "


def load_spec() -> dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def need_program() -> None:
    """Put the program under test on ``sys.path``; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))


def make_workload(name: str) -> Any:
    from fluid_workloads import FluidFlock, FluidScalar
    from service_workloads import ServiceWorkload
    from sim_workloads import PacketWorkload

    factories = {
        "paper_t1": PacketWorkload,
        "qa_contended": PacketWorkload,
        "qa_observed": PacketWorkload,
        "fluid_flock": FluidFlock,
        "fluid_scalar": FluidScalar,
        "service_virtual": ServiceWorkload,
        "service_loopback": ServiceWorkload,
    }
    return factories[name](name)


# ------------------------------------------------------------------ set-up


def setup_probe(args: argparse.Namespace) -> None:
    """Child mode: imports + input generation + first construction.

    Prints ``[corrected, as the clock read it]`` seconds since the
    interpreter's first instruction; the part before the meter starts
    (a few milliseconds of stdlib imports) is the same in both.
    """
    from passes import Meter, undisturbed

    meter = Meter()
    head = time.perf_counter() - _PROCESS_START
    meter.begin()
    workload = make_workload(args.workload)
    workload.prepare(args.seed, args.seconds)
    workload.construct(0)
    slices = meter.end()
    print(json.dumps([head + undisturbed(slices)[0],
                      head + sum(wall for wall, _, _ in slices)]))


def measure_setup(args: argparse.Namespace) -> "Timing":
    """Time set-up in fresh interpreters, where imports are really paid."""
    from passes import Timing

    command = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-probe"]
    pairs = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        pairs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return Timing([corrected for corrected, _ in pairs],
                  [raw for _, raw in pairs])


# ------------------------------------------------------------ one workload


def run_untraced(args: argparse.Namespace) -> dict[str, Any]:
    from passes import measure

    workload = make_workload(args.workload)
    workload.prepare(args.seed, args.seconds)
    result = measure(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    unsound = workload.self_check()
    timings = {
        "setup_s": measure_setup(args),
        "stream_s_per_s": result.stream_s_per_s,
        "cpu_ms_per_stream_s": result.cpu_ms_per_stream_s,
    }
    values = {name: timing.median for name, timing in timings.items()}
    values.update(result.quality.metrics())
    values["peak_rss_mb"] = peak_rss_mb
    return {
        "values": values,
        "quartiles": {name: timing.detail()
                      for name, timing in timings.items()},
        "attempted": result.attempted + 1,
        "failed": result.failed + len(unsound),
        "problems": result.problems + unsound,
        "note": f"{result.passes} timed passes after one warm-up"
                if not workload.wall_paced
                else f"one wall-paced pass of {args.seconds:g} s",
    }


def run_traced(args: argparse.Namespace) -> dict[str, Any]:
    from spanlog import SpanLog

    workload = make_workload(args.workload)
    # A wall-paced workload is paced twice here (untraced, then traced).
    workload.prepare(args.seed, args.seconds / 2)

    def one_pass(log: Optional[SpanLog]) -> tuple[Any, float, float]:
        cpu0, t0 = time.process_time(), time.perf_counter()
        live = workload.construct(0, log)
        workload.run(live)
        return (live, time.perf_counter() - t0,
                time.process_time() - cpu0)

    base_live, base_wall, base_cpu = one_pass(None)
    base = workload.collect(base_live)
    log = SpanLog()
    live, traced_wall, traced_cpu = one_pass(log)
    report = workload.collect(live)
    # Checks beyond the two passes' own: each failure is one failed
    # operation on top of theirs.
    extra: list[str] = []
    if not workload.wall_paced and report.digest != base.digest:
        extra.append(f"{workload.name}: tracing changed the behaviour "
                     f"digest")
    values = workload.layer_metrics(live, report, traced_wall)
    driven, drive_problems = workload.drives(base_wall, live)
    values.update(driven)
    extra += drive_problems
    # Wall-paced passes last as long untraced as traced; compare CPU.
    values["trace.overhead_ratio"] = (
        traced_cpu / base_cpu if workload.wall_paced
        else traced_wall / base_wall)
    if args.spans:
        log.dump(args.spans)
    return {
        "values": values,
        "quartiles": {},
        "attempted": base.attempted + report.attempted,
        "failed": base.failed + report.failed + len(extra),
        "problems": base.problems + report.problems + extra,
        "note": f"one untraced and one traced pass, {len(log)} spans",
    }


def run_one(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    outcome = run_traced(args) if args.trace else run_untraced(args)
    values = outcome["values"]
    undeclared = sorted(set(values) - {m["name"] for m in declared})
    if undeclared:
        outcome["problems"].append(
            f"metrics not declared in BENCHMARK.json: {undeclared}")
    correct = not outcome["problems"] and outcome["failed"] == 0
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{outcome['note']}")
    for metric in declared:
        if metric["name"] in values:
            print(f"  {metric['name']:42s} "
                  f"{values[metric['name']]:16.6g} {metric['unit']}")
    for problem in outcome["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(DETAIL_PREFIX + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "quartiles": outcome["quartiles"],
        "problems": outcome["problems"],
        "reported": sorted(values),
    }))
    # A per-layer metric a workload does not exercise reads 0: no work
    # was done in that layer (the suite report leaves such rows out).
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0),
                        "unit": m["unit"]}
            for m in declared},
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------- the suite


def fingerprint(seed: int) -> dict[str, Any]:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
    }


def run_suite(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    names = [w["name"] for w in spec["workloads"]]
    kinds = {0: spec["end_to_end"]}
    if args.traced:
        kinds[1] = spec["per_layer"]
    record: dict[str, Any] = {
        "fingerprint": fingerprint(args.seed),
        "run_seconds": args.seconds,
        "metrics": {m["name"]: {k: m[k] for k in m if k != "name"}
                    for kind in kinds.values() for m in kind},
        "workloads": {},
    }
    status = 0
    for name in names:
        entry: dict[str, Any] = {"metrics": {}, "problems": []}
        record["workloads"][name] = entry
        for trace in kinds:
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=600)
            lines = done.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-2]) + "\n")
            sys.stdout.flush()
            if done.returncode != 0:
                status = 1
                sys.stderr.write(done.stderr)
            if len(lines) < 2 or not lines[-2].startswith(DETAIL_PREFIX):
                entry["problems"].append(
                    f"trace={trace}: no result (exit {done.returncode})")
                continue
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2][len(DETAIL_PREFIX):])
            entry["problems"] += detail["problems"]
            entry[f"attempted_trace{trace}"] = result["attempted"]
            entry[f"failed_trace{trace}"] = result["failed"]
            for metric in detail["reported"]:
                cell = dict(result["metrics"][metric])
                cell.update(detail["quartiles"].get(metric, {}))
                entry["metrics"][metric] = cell
    failed = {n: e["problems"] for n, e in record["workloads"].items()
              if e["problems"]}
    print("suite: " + ("every check passed" if not failed and not status
                       else f"CHECKS FAILED in {sorted(failed)}"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if failed or status else 0


def main(argv: Optional[list[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = traced per-layer run")
    parser.add_argument("--traced", action="store_true",
                        help="suite mode: also run the traced set")
    parser.add_argument("--out", help="suite mode: write a result file")
    parser.add_argument("--spans", help="with --trace 1: dump the span "
                                        "log as JSON lines")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    need_program()
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload:
        return run_one(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
