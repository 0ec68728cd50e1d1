#!/usr/bin/env python3
"""repro-lint throughput benchmark: emits ``BENCH_lint.json``.

The lint gate runs on every CI push, so its wall-clock cost is a budget,
not a curiosity: the whole-program flow rules (RL005-RL012) parse every
file, build the project symbol tables and the call graph, and run the
dataflow engine over every function — an accidental
quadratic there would tax every commit. This script times two
configurations over ``src/``:

- ``per_file``: RL001 and RL003 only (the pre-dataflow cost floor);
- ``full``: all rules including the whole-program flow analysis.

A third section, ``profile``, breaks the full run down per rule and
shared phase (``project:build``) so a budget
regression names its culprit instead of just tripping the bound.

The script exits non-zero when the report drifts from ``SCHEMA`` or
the full-tree run exceeds ``FULL_BUDGET_S``, keeping "lint the tree" an
interactive-speed operation; the ``benchmark-smoke`` CI job runs it
with ``--quick`` and keys on that exit code.

Usage::

    PYTHONPATH=src python benchmarks/bench_lint.py            # full
    PYTHONPATH=src python benchmarks/bench_lint.py --quick    # CI smoke

Bump ``SCHEMA`` when the layout changes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from repro.lint.cli import lint_paths
from repro.lint.profile import Profiler
from repro.lint.rules import default_rules
from repro.lint.rules.base import FlowRule

SCHEMA = 4

#: Wall-clock bound on the full-tree run, in seconds.
FULL_BUDGET_S = 10.0

#: Keys every report must carry, nested section by section. ``main``
#: fails when a produced report stops matching this shape.
REQUIRED_KEYS = {
    "schema": None,
    "quick": None,
    "per_file": ("files", "violations", "seconds", "files_per_sec"),
    "full": ("files", "violations", "seconds", "files_per_sec"),
    "profile": None,
}

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def bench_lint(paths: list[str], flow: bool) -> dict:
    """Lint ``paths`` once, with or without the whole-program rules."""
    rules = default_rules()
    if not flow:
        rules = tuple(r for r in rules if not isinstance(r, FlowRule))
    start = time.perf_counter()
    violations, files = lint_paths(paths, rules=rules)
    seconds = time.perf_counter() - start
    return {
        "files": files,
        "violations": len(violations),
        "seconds": seconds,
        "files_per_sec": files / seconds,
    }


def best_of(repeats: int, fn, *args) -> dict:
    """Run ``fn`` ``repeats`` times, keep the fastest (least noisy) run."""
    best = None
    for _ in range(repeats):
        sample = fn(*args)
        if best is None or sample["seconds"] < best["seconds"]:
            best = sample
    return best


def run_report(quick: bool, paths: list[str]) -> dict:
    repeats = 1 if quick else 3
    profiler = Profiler()
    lint_paths(paths, rules=default_rules(), profiler=profiler)
    return {
        "schema": SCHEMA,
        "quick": quick,
        "per_file": best_of(repeats, bench_lint, paths, False),
        "full": best_of(repeats, bench_lint, paths, True),
        "profile": profiler.report_json(),
    }


def check_schema(report: dict) -> list[str]:
    """Names of missing sections/fields (empty when the shape is right)."""
    missing = []
    for section, fields in REQUIRED_KEYS.items():
        if section not in report:
            missing.append(section)
            continue
        for field in fields or ():
            if field not in report[section]:
                missing.append(f"{section}.{field}")
    return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="repro-lint throughput benchmark (BENCH_lint.json).")
    parser.add_argument("--quick", action="store_true",
                        help="single repeat (CI smoke)")
    parser.add_argument("--paths", nargs="*", default=[_SRC],
                        help="trees to lint (default: the repo's src/)")
    parser.add_argument("--out", default="BENCH_lint.json",
                        help="output path (default: %(default)s)")
    args = parser.parse_args(argv)

    report = run_report(quick=args.quick, paths=args.paths)
    missing = check_schema(report)
    if missing:
        print(f"schema drift, missing: {', '.join(missing)}")
        return 1

    target = pathlib.Path(args.out)
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    per_file = report["per_file"]
    full = report["full"]
    print(f"per-file rules : {per_file['files_per_sec']:>8,.0f} files/s "
          f"({per_file['files']} files, {per_file['seconds']:.3f}s)")
    print(f"all rules      : {full['files_per_sec']:>8,.0f} files/s "
          f"({full['files']} files, {full['seconds']:.3f}s, "
          f"flow overhead {full['seconds'] - per_file['seconds']:.3f}s)")
    slowest = sorted(report["profile"].items(),
                     key=lambda item: -item[1])[:3]
    if slowest:
        print("slowest rules  : " + "  ".join(
            f"{label} {seconds:.3f}s" for label, seconds in slowest))
    print(f"wrote {target}")
    if full["seconds"] > FULL_BUDGET_S:
        print(f"full-tree lint took {full['seconds']:.1f}s (budget: "
              f"{FULL_BUDGET_S:.0f}s); the flow analysis has regressed")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
