"""The T1 ablations. Each swaps one piece of the mechanism and pools
``summary()`` fields over seeds; runs that keep the paper's
configuration are Table 1's own.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis import format_table
from repro.baselines.static_stream import FixedQualityAdapter
from repro.experiments import Results, artifact
from repro.experiments.common import PaperRun, WorkloadConfig, pool_by
from repro.experiments.tables import efficiency, poor_distribution
from repro.sim.trace import TimeSeries
from repro.transport import WindowAimdSource

ALLOCATORS = ("optimal", "equal_share", "base_first")
ADD_RULES = ("buffer_only", "buffer_and_rate", "average_bandwidth")
FEEDBACK_MODES = ("send", "ack", "oracle")
#: ``None`` is the session's default transport, RAP, so the "rap" rows
#: are the same runs as Table 1's T1 / K_max = 2 column.
TRANSPORTS = {"rap": None, "window-aimd": WindowAimdSource}
RETRANSMIT_SCHEMES = {0: "no retransmission", 1: "retransmit base"}


def sweep(field: str, values: Sequence, seeds: Sequence[int],
          fields: dict, **defaults) -> tuple:
    """T1 runs with ``field`` set to each of ``values``, over ``seeds``."""
    fields = {**defaults, **fields}
    return tuple(PaperRun(WorkloadConfig(seed=s, **{field: value}, **fields))
                 for value in values for s in seeds)


@artifact("ablation-allocators",
          runs=lambda seed=None, seeds=(1, 2, 3), **fields: sweep(
              "allocator", ALLOCATORS, seeds, fields, k_max=2))
def ablation_allocators(results: Results) -> str:
    """Ablation: the optimal allocator vs section 2.3's strawmen.

    Runs T1 with the three inter-layer buffer distributions -- optimal
    (the paper's mechanism), equal share, base first -- and compares the
    quantities the strawmen are predicted to hurt:

    - equal share wastes buffered data in dropped layers (lower efficiency);
    - base first concentrates buffering in too few layers, so upper layers
      are dropped despite plentiful total buffering (higher
      poor-distribution percentage, more drops).
    """
    rows = []
    for name, pooled in pool_by(results,
                                lambda run: run.config.allocator).items():
        m = pooled.metrics
        rows.append((name, len(m.drops), len(m.adds), efficiency(m),
                     poor_distribution(m),
                     round(pooled.mean("mean_layers"), 2),
                     round(pooled.mean("gap_bytes")), m.stall_count,
                     round(m.stall_time, 2)))
    return format_table(
        ("allocator", "drops", "adds", "efficiency %",
         "poor-distribution %", "mean layers", "gap bytes",
         "stalls", "stall time s"),
        rows,
        title="Ablation: inter-layer buffer allocator (T1, pooled seeds)")


def add_rule_runs(seed: int = 1, duration: float = 60.0,
                  rules: Sequence[str] = ADD_RULES) -> tuple:
    # A lone adaptive flow on a bottleneck calibrated so that its
    # *achieved* average bandwidth is ~2.9 layers' worth (19,000 B/s
    # link -> ~18.95 KB/s delivered at C = 6.5 KB/s). The
    # average-bandwidth rule can then never clear the 3-layer
    # threshold while the buffer rule rides receiver buffering.
    return sweep("add_rule", rules, (seed,), {}, k_max=2, layer_rate=6500.0,
                 bottleneck_bandwidth=19_000.0, queue_capacity=30,
                 n_rap_background=0, n_tcp=0, duration=duration)


def fraction_at_or_above(series: TimeSeries, threshold: float) -> float:
    if len(series) < 2:
        return 0.0
    covered = 0.0
    span = series.times[-1] - series.times[0]
    for i in range(len(series) - 1):
        if series.values[i] >= threshold:
            covered += series.times[i + 1] - series.times[i]
    return covered / span if span > 0 else 0.0


@artifact("ablation-add-rules", runs=add_rule_runs)
def ablation_add_rules(results: Results) -> str:
    """Ablation: section 3.1's add rules on a "2.9-layer" link.

    The paper's argument for the buffer-based rule: on a link that fits 2.9
    layers, an average-bandwidth rule never adds the third layer (the
    average never exceeds 3C), while the buffer rule streams three layers
    "90% of the time". We build exactly that situation -- a dedicated
    bottleneck sized at ~2.9 layers' worth of the adaptive flow's throughput
    -- and measure the fraction of time at three or more layers under each
    rule.
    """
    rows = []
    for run, outcome in results.items():
        session = outcome.session
        window = session.tracer.get("layers").window(
            10.0, run.config.duration)  # skip startup
        rows.append((run.config.add_rule,
                     round(window.time_average(), 2),
                     round(100 * fraction_at_or_above(window, 3.0), 1),
                     session.summary()["quality_changes"],
                     session.playout.stall_count))
    return format_table(
        ("add rule", "mean layers", "% time at >=3 layers",
         "quality changes", "stalls"),
        rows, title='Ablation: add rules on a "2.9-layer" link')


def static_runs(seed=None, seeds: Sequence[int] = (1, 2),
                fixed_levels: Sequence[int] = (2, 4), **fields) -> tuple:
    return (tuple(PaperRun(WorkloadConfig(seed=s, **fields))
                  for s in seeds)
            + tuple(PaperRun(WorkloadConfig(seed=s, max_layers=level,
                                            **fields),
                             adapter_cls=FixedQualityAdapter)
                    for level in fixed_levels for s in seeds))


def static_scheme(run: PaperRun) -> str:
    if run.adapter_cls is None:
        return "adaptive"
    return f"fixed {run.config.max_layers} layers"


@artifact("ablation-static", runs=static_runs)
def ablation_static(results: Results) -> str:
    """Ablation: quality adaptation vs a fixed-quality stream.

    The paper's motivation (section 1.2): a non-adaptive server must pick
    one encoding rate. Too high and low-bandwidth periods stall playback;
    too low and capacity is wasted. We stream the same clip through the same
    T1 network three ways -- adaptive, fixed at 2 layers, fixed at 4 layers
    -- and compare stalls against delivered quality.
    """
    return format_table(
        ("scheme", "mean layers", "stalls", "stall time s",
         "gap bytes", "quality changes"),
        [(scheme, round(p.mean("mean_layers"), 2), p.total("stalls_receiver"),
          round(p.total("stall_time_receiver"), 2),
          round(p.mean("gap_bytes")), p.total("quality_changes"))
         for scheme, p in pool_by(results, static_scheme).items()],
        title="Ablation: adaptive vs fixed-quality streaming (T1)")


@artifact("ablation-feedback",
          runs=lambda seed=None, seeds=(1, 2, 3), **fields: sweep(
              "feedback", FEEDBACK_MODES, seeds, fields, k_max=2))
def ablation_feedback(results: Results) -> str:
    """Ablation: receiver-buffer feedback models.

    How much does the server's knowledge of the receiver's buffers matter?

    - ``send``: the paper's model -- the server knows its transmission
      history and debits detected losses (default);
    - ``ack``: only acknowledged data counts (one RTT stale, conservative);
    - ``oracle``: losses are ignored entirely (optimistic upper bound).
    """
    return format_table(
        ("feedback", "drops", "adds", "stalls", "stall time s",
         "gap bytes", "mean layers"),
        [(mode, p.total("drops"), p.total("adds"),
          p.total("stalls_receiver"),
          round(p.total("stall_time_receiver"), 2),
          round(p.mean("gap_bytes")), round(p.mean("mean_layers"), 2))
         for mode, p in pool_by(results,
                                lambda run: run.config.feedback).items()],
        title="Ablation: receiver-buffer feedback model (T1, pooled "
        "seeds)")


def transport_runs(seed=None, seeds: Sequence[int] = (1, 2, 3),
                   **fields) -> tuple:
    fields.setdefault("k_max", 2)
    return tuple(PaperRun(WorkloadConfig(seed=s, **fields),
                          transport_cls=transport)
                 for transport in TRANSPORTS.values() for s in seeds)


def transport_name(run: PaperRun) -> str:
    return next(name for name, cls in TRANSPORTS.items()
                if cls is run.transport_cls)


@artifact("ablation-transport", runs=transport_runs)
def ablation_transport(results: Results) -> str:
    """Ablation: quality adaptation over different AIMD transports.

    The paper (section 7) plans to "extend the idea of quality adaptation to
    other congestion control schemes that employ AIMD algorithms". The
    adapter is transport-agnostic by construction; this experiment runs the
    identical mechanism over:

    - **RAP** (rate-based, IPG-paced -- the paper's transport), and
    - a **window-based AIMD** transport (TCP-like ACK clocking,
      :mod:`repro.transport.aimd`).

    Both halve on congestion and climb at S = P/srtt^2, so the buffer
    formulas apply unchanged; the window transport's burstiness is the
    stress test.
    """
    return format_table(
        ("transport", "mean rate B/s", "mean layers", "drops",
         "adds", "stalls", "stall time s", "gap bytes"),
        [(name, round(p.mean("mean_rate")), round(p.mean("mean_layers"), 2),
          p.total("drops"), p.total("adds"), p.total("stalls_receiver"),
          round(p.total("stall_time_receiver"), 2),
          round(p.mean("gap_bytes")))
         for name, p in pool_by(results, transport_name).items()],
        title="Ablation: the same quality adapter over different "
        "AIMD transports (T1)")


@artifact("ablation-retransmit",
          runs=lambda seed=None, seeds=(1, 2, 3), **fields: sweep(
              "retransmit_layers", tuple(RETRANSMIT_SCHEMES), seeds, fields,
              queue_capacity=40,  # lossier than default
              k_max=2))
def ablation_retransmit(results: Results) -> str:
    """Ablation: selective retransmission of the base layer (section 1.3).

    The paper lists, among the advantages of layered streaming, "an
    opportunity for selective retransmission of the more important
    information" -- but never evaluates it. This experiment does: the same
    T1 workload, with and without priority retransmission of lost
    base-layer data.

    The result is an honest null (and an instructive one): under the
    paper's *fluid* buffer model -- where any base-layer byte is as good as
    any other -- retransmission is behaviourally equivalent to the
    maintenance machinery that already re-feeds a loss-depleted base with
    fresh data. Stall and buffer-health numbers match within noise while
    bandwidth is re-spent on old bytes. Selective retransmission only pays
    off with non-fungible frame semantics (a *specific* missing frame),
    which is exactly the caveat a deployment of the paper's scheme over a
    real codec would need to know.
    """
    rows = []
    for protect, p in pool_by(
            results, lambda run: run.config.retransmit_layers).items():
        n = len(p.items)
        steady = [outcome.session.tracer.get("buffer_L0").window(
            5.0, run.config.duration) for run, outcome in p.items]
        rows.append((
            RETRANSMIT_SCHEMES[protect], p.total("stalls_receiver"),
            round(p.total("stall_time_receiver"), 2),
            round(p.mean("gap_bytes")),
            round(sum(base.min() for base in steady) / n),
            round(sum(base.mean() for base in steady) / n),
            round(sum(o.retransmitted for _, o in p.items) / n),
            round(p.mean("mean_layers"), 2)))
    return format_table(
        ("scheme", "stalls", "stall time s", "gap bytes (all)",
         "base buf min (B)", "base buf mean (B)",
         "retransmitted (B)", "mean layers"),
        rows,
        title="Ablation: selective base-layer retransmission "
        "(lossy T1)")
