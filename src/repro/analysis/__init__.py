"""Trace analysis and terminal rendering.

The paper's figures are gnuplot time series; our experiment harnesses
print the same data as ASCII charts (:mod:`repro.analysis.ascii_plot`)
and aligned tables (:mod:`repro.analysis.report`), and can dump any
tracer as CSV for external plotting.
"""

from repro.analysis.ascii_plot import ascii_chart, sparkline
from repro.analysis.report import format_table, format_kv
from repro.analysis.export import (
    export_csv,
    export_events_csv,
    export_gnuplot,
    export_manifest,
    export_series_files,
)

__all__ = [
    "ascii_chart",
    "sparkline",
    "format_table",
    "format_kv",
    "export_csv",
    "export_events_csv",
    "export_gnuplot",
    "export_manifest",
    "export_series_files",
]
