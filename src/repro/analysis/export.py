"""Exporting traces and experiment artifacts to files.

The ASCII charts are for terminals; real plotting wants data files. This
module writes a :class:`~repro.sim.trace.Tracer` out as CSV (one merged
file or one file per series), an event log as CSV, and a gnuplot-flavored
``.dat`` (space-separated, ``#`` header) for the nostalgic -- the paper's
figures were gnuplot.
"""

from __future__ import annotations

import csv
import json
import pathlib
from typing import Optional, Sequence

from repro.sim.trace import Tracer


def export_csv(tracer: Tracer, path, *,
               names: Optional[Sequence[str]] = None) -> pathlib.Path:
    """Write the merged (step-interpolated) series CSV to ``path``."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(tracer.to_csv(names))
    return target


def export_series_files(tracer: Tracer, directory, *,
                        names: Optional[Sequence[str]] = None,
                        suffix: str = ".csv") -> list[pathlib.Path]:
    """One raw (non-interpolated) file per series in ``directory``."""
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in (names if names is not None else sorted(tracer.series)):
        series = tracer.series[name]
        target = out_dir / f"{name}{suffix}"
        with target.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time", name])
            for t, v in series:
                writer.writerow([f"{t:.6f}", f"{v:.6f}"])
        written.append(target)
    return written


def export_events_csv(tracer: Tracer, path) -> pathlib.Path:
    """Write the event log (time, kind, key=value fields) as CSV."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "kind", "fields"])
        for time, kind, fields in tracer.events:
            flat = ";".join(f"{k}={v}" for k, v in sorted(fields.items()))
            writer.writerow([f"{time:.6f}", kind, flat])
    return target


def export_manifest(manifest: dict, path) -> pathlib.Path:
    """Write a run manifest (see the experiment runner) as stable JSON.

    Keys are sorted and the encoding is deterministic, so two manifests
    describing identical runs are byte-identical files — diffable in the
    same spirit as the rendered artifacts themselves.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                      + "\n")
    return target


def export_gnuplot(tracer: Tracer, path, *,
                   names: Optional[Sequence[str]] = None) -> pathlib.Path:
    """Write a gnuplot ``.dat``: '# time col1 col2 ...' then rows."""
    if names is None:
        names = sorted(tracer.series)
    all_times = sorted({t for n in names
                        for t in tracer.series[n].times})
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as handle:
        handle.write("# time " + " ".join(names) + "\n")
        for t in all_times:
            row = [f"{t:.6f}"] + [
                f"{tracer.series[n].value_at(t):.6f}" for n in names]
            handle.write(" ".join(row) + "\n")
    return target
