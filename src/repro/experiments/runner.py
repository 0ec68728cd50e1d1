"""``repro-experiments``: the paper's artifacts from deduplicated runs.

    repro-experiments list
    repro-experiments fig11 --out /tmp/fig11.txt
    repro-experiments table1 table2 --out /tmp/tables   # 50 runs, not 100
    repro-experiments all --out results/ -j 4

The runner executes each distinct run key of the requested artifacts
once (in worker processes when ``-j`` > 1) and hands each renderer its
own keys' results. Runs are pure functions of their keys, so pooled and
serial execution render byte-identical text (docs/MECHANISM.md §9).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import itertools
import multiprocessing
import operator
import os
import pathlib
import sys
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

from repro.analysis.export import export_manifest
from repro.experiments import EXPERIMENTS, Results
# The artifact modules register their table entries on import.
from repro.experiments import (  # noqa: F401
    ablations,
    analytic,
    flock_scale,
    fluid_figures,
    multiflow_fairness,
    packet_figures,
    tables,
)

MANIFEST_SCHEMA = 2


def execute(runs: Iterable, jobs: int = 1) -> Results:
    """Execute each distinct run once, in ``jobs`` worker processes when
    that is more than one; results keyed by run, in first-seen order."""
    distinct = list(dict.fromkeys(runs))
    if jobs > 1 and len(distinct) > 1:
        # Spawned workers start from a fresh import (and hash seed), so
        # a run can depend on nothing but its key.
        with concurrent.futures.ProcessPoolExecutor(
                min(jobs, len(distinct)),
                mp_context=multiprocessing.get_context("spawn")) as pool:
            return MappingProxyType(dict(zip(distinct, pool.map(
                operator.methodcaller("execute"), distinct))))
    return MappingProxyType({run: run.execute() for run in distinct})


def render_experiment(name: str, **params) -> str:
    """Render artifact ``name`` from fresh serial runs; ``params``
    (``seed``, or a shortened or widened run set) go to its ``runs()``."""
    artifact = EXPERIMENTS[name]
    return artifact.render(execute(artifact.runs(**params)))


def plan(names: Sequence[str], seed: Optional[int] = None) -> dict:
    """Artifact name -> the run keys it reads, with ``seed`` passed on
    only when given (each artifact's own default otherwise)."""
    given = {} if seed is None else {"seed": seed}
    return {name: tuple(EXPERIMENTS[name].runs(**given)) for name in names}


@dataclass
class RunRecord:
    """One rendered artifact within a runner invocation."""

    name: str
    text: str
    seeds: list
    runs: int

    @property
    def output_sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def run_experiments(names: Sequence[str], *, seed: Optional[int] = None,
                    jobs: int = 1) -> tuple[list[RunRecord], int]:
    """Render ``names`` from the union of their runs; returns the records
    in ``names`` order and the number of distinct runs executed."""
    planned = plan(names, seed)
    results = execute(itertools.chain.from_iterable(planned.values()), jobs)
    records = [
        RunRecord(name, EXPERIMENTS[name].render(MappingProxyType(
                      {run: results[run] for run in runs})),
                  seeds=sorted({run.seed for run in runs} - {None}),
                  runs=len(set(runs)))
        for name, runs in planned.items()
    ]
    return records, len(results)


def build_manifest(records: Sequence[RunRecord], *, jobs: int, runs: int,
                   seconds: float,
                   observability: Optional[dict] = None) -> dict:
    """The run manifest (schema in docs/MECHANISM.md §9): ``runs``
    distinct runs in ``seconds`` of wall time, plus an optional
    :meth:`repro.scenario.Scenario.observability` block."""
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
        "jobs": jobs,
        "runs": runs,
        "total_seconds": round(seconds, 6),
        "experiments": [
            {"name": r.name, "runs": r.runs, "seeds": r.seeds,
             "output_sha256": r.output_sha256}
            for r in records
        ],
    }
    if observability:
        manifest["observability"] = observability
    return manifest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="+", metavar="experiment",
        help="experiment names (see 'list'), 'list' or 'all'")
    parser.add_argument(
        "--out", default=None,
        help="write output to this file (or directory for several)")
    parser.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker processes for the runs (default: CPU count)")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the seed of every experiment built on one seeded "
             "run (seed-pooling tables and ablations keep theirs)")
    parser.add_argument(
        "--manifest", default=None,
        help="write the run manifest JSON here (default: manifest.json "
             "in the --out directory of a multi-experiment run)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    names = list(dict.fromkeys(args.experiments))

    if names == ["list"]:
        for name in sorted(EXPERIMENTS):
            title = EXPERIMENTS[name].render.__doc__.strip().splitlines()[0]
            print(f"{name:22s} {title}")
        return 0

    if "all" in names:
        names = sorted(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print("use 'repro-experiments list'", file=sys.stderr)
        return 2

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    start = time.perf_counter()
    records, runs = run_experiments(names, seed=args.seed, jobs=jobs)
    seconds = time.perf_counter() - start
    print(f"{len(records)} experiment(s) from {runs} distinct run(s) in "
          f"{seconds:.1f}s", file=sys.stderr)
    manifest = build_manifest(records, jobs=jobs, runs=runs, seconds=seconds)

    manifest_path = args.manifest
    if args.out and len(names) > 1:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for record in records:
            target = out_dir / f"{record.name}.txt"
            target.write_text(record.text)
            print(f"wrote {target}")
        manifest_path = manifest_path or out_dir / "manifest.json"
    elif args.out:
        pathlib.Path(args.out).write_text(records[0].text)
        print(f"wrote {args.out}")
    else:
        for record in records:
            print(record.text)

    if manifest_path:
        export_manifest(manifest, pathlib.Path(manifest_path))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
