"""Tables 1 and 2: two views of one set of T1/T2 drop events, pooled
over seeds (a single 40-second run only contains a handful of drops,
far too few for a stable mean).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.analysis import format_table
from repro.core.metrics import QualityMetrics
from repro.experiments import Results, artifact
from repro.experiments.common import PaperRun, Pooled, WorkloadConfig, pool_by

K_VALUES = (2, 3, 4, 5, 8)
SEEDS = (1, 2, 3, 4, 5)


def table_runs(seed=None, k_values: Sequence[int] = K_VALUES,
               seeds: Sequence[int] = SEEDS, **fields) -> tuple:
    """T1 then T2 per K_max, each over ``seeds`` (``--seed`` does not
    apply: the tables pool fixed seeds)."""
    return tuple(PaperRun(make(k_max=k, seed=s, **fields))
                 for k in k_values
                 for make in (WorkloadConfig, WorkloadConfig.t2)
                 for s in seeds)


def table_cells(results: Results) -> dict[tuple[str, int], Pooled]:
    """(test, K_max) -> the cell's pooled runs."""
    return pool_by(results, lambda run: (
        "T2" if run.config.cbr_fraction > 0 else "T1", run.config.k_max))


def efficiency(metrics: QualityMetrics) -> Optional[float]:
    eff = metrics.buffering_efficiency()
    return None if eff is None else round(100 * eff, 2)


def poor_distribution(metrics: QualityMetrics) -> Optional[float]:
    poor = metrics.poor_distribution_percent()
    return None if poor is None else round(poor, 1)


def _render(results: Results, title: str,
            cell: Callable[[QualityMetrics], object]) -> str:
    cells = table_cells(results)
    k_values = list(dict.fromkeys(k for _, k in cells))
    headers = ("test", *(f"Kmax={k}" for k in k_values))

    def rows(value):
        return [[test] + [value(cells[(test, k)].metrics) for k in k_values]
                for test in ("T1", "T2")]

    return (format_table(headers, rows(cell), title=title)
            + format_table(headers, rows(lambda m: len(m.drops)),
                           title="(pooled drop events per cell)"))


@artifact("table1", runs=table_runs)
def table1(results: Results) -> str:
    """Table 1: buffering efficiency.

    ``e = (buf_total - buf_drop) / buf_total`` per drop event, averaged over
    all drop events, for K_max in {2, 3, 4, 5, 8} under tests T1 (the plain
    mix) and T2 (the CBR burst). The paper reports 96-99.99%; the shape to
    match is "very little buffered data is still available in a layer that
    is dropped", with mild degradation for T2 at large K_max.
    """
    return _render(results, "Table 1: buffering efficiency e (%)",
                   efficiency)


@artifact("table2", runs=table_runs)
def table2(results: Results) -> str:
    """Table 2: percentage of drops due to poor buffer distribution.

    Drops that would not have happened had the same total buffering been
    distributed differently -- i.e. drop events where the *usable*
    buffering exceeded the recovery requirement but a layer had to go
    anyway. The paper reports 0% throughout T1 and a few percent for T2
    (growing, noisily, with K_max); '-' marks cells with no drop events at
    all (as in the paper's T2 / K_max=8 cell).
    """
    return _render(results,
                   "Table 2: drops due to poor buffer distribution (%)",
                   poor_distribution)
