"""The run protocol: sub-seeds, timed passes, behaviour checks.

A run of one workload is one discarded warm-up pass followed by timed
passes until ``--seconds`` have been measured (never fewer than
:data:`MIN_TIMED`). Pass ``p`` uses sub-seed ``p mod SUB_SEEDS`` of the
run's ``--seed``, so

- the quality metrics pool :data:`SUB_SEEDS` independent inputs (one
  T1 run has a single adaptive flow; its quality-change count alone
  spreads 10 % between seeds), and are the same however many passes a
  fast or slow machine fits into ``--seconds``;
- every sub-seed that comes round again must reproduce its behaviour
  digest bit for bit — the determinism check.

Timings are reported as the median over the timed passes with their
quartiles and ``n``.

Interference correction. The sandboxes this runs in share their cores:
a fixed pure-Python loop measured here runs 20-40 % slower in bursts of
a few hundred milliseconds to ten seconds, about a third of the time,
and sometimes a few percent faster; none of it shows as steal time.
Median-of-five pass times spread 6-25 % between identical runs under
that. So while a pass is timed an interval timer interrupts it every
:data:`MARK_PERIOD` seconds and the :class:`Meter` times a 4 ms
reference loop there (signal handlers run between two bytecodes of the
main thread, so this reaches inside one long ``sim.run()`` or numpy
program and changes nothing the program can see). Each slice's wall and
CPU time is then scaled by ``nominal reference / reference around the
slice``. Time is, in effect, counted in iterations of the reference
loop and converted to seconds at :data:`NOMINAL_SPIN_SECONDS`, this
host class's undisturbed speed, so on a quiet host the figures are
plain seconds. Measured on 30 consecutive passes each of ``paper_t1``,
``fluid_flock`` and ``service_virtual``: median-of-five spreads
0.8-1.5 % corrected against 1.2-4.8 % (up to 25 % on a bad quarter of
an hour) as the clock reads. The clocks' own readings are kept beside
the corrected ones in the result.
"""

from __future__ import annotations

import gc
import hashlib
import json
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from percentiles import quartiles
from quality import Quality
from spanlog import SpanLog

#: Distinct inputs per run; the first pass of each feeds the quality pool.
SUB_SEEDS = 4
#: Timed passes a run never goes below: every sub-seed once more after
#: the warm-up, plus one so two sub-seeds repeat.
MIN_TIMED = SUB_SEEDS + 1


def sub_seeds(seed: int) -> list[int]:
    """The run's :data:`SUB_SEEDS` inputs, derived from ``--seed``."""
    # Imported here: the set-up probe times the program's imports and
    # starts its meter from this module first.
    from repro.sim.rng import derive_seed

    return [derive_seed(seed, "bench-pass", k) for k in range(SUB_SEEDS)]


def digest_of(payload: Any) -> str:
    """sha256 over a canonical JSON rendering (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassReport:
    """What one pass did, extracted outside the timed region."""

    #: Flow- (or session-) seconds of streaming the pass simulated/served.
    stream_seconds: float
    quality: Quality
    #: Everything behaviour-defining: events, packets, per-layer bytes,
    #: add/drop instants, back-offs.
    digest: str
    #: The add/drop log alone (what signals-on must not change).
    decisions: str
    attempted: int
    failed: int
    #: Human-readable check failures; empty when the pass is correct.
    problems: list[str] = field(default_factory=list)
    #: True for a warm-up that ran a signals-off twin: later passes are
    #: compared on ``decisions`` only and replace it as the reference.
    twin: bool = False
    #: Counters for the per-layer report (traced pass only).
    counters: dict[str, float] = field(default_factory=dict)


class Workload:
    """One named set of inputs plus the calls that run the program on it.

    ``construct`` + ``run`` are the timed region; ``collect`` is not.
    ``prepare`` generates every input from the seed and is, with the
    imports and the first ``construct``, what ``setup_s`` measures.
    """

    name = ""
    #: True when load is offered at a fixed pace for ``--seconds`` of
    #: wall time (one pass, no warm-up) instead of as fast as it runs.
    wall_paced = False

    def prepare(self, seed: int, seconds: Optional[float] = None) -> None:
        raise NotImplementedError

    def construct(self, k: int, log: Optional[SpanLog] = None) -> Any:
        raise NotImplementedError

    def run(self, live: Any) -> None:
        raise NotImplementedError

    def collect(self, live: Any) -> PassReport:
        raise NotImplementedError

    def layer_metrics(self, live: Any, report: PassReport,
                      traced_wall: float) -> dict[str, float]:
        """Per-layer numbers of the traced pass ``live``."""
        raise NotImplementedError

    def drives(self, base_wall: float, live: Any
               ) -> tuple[dict[str, float], list[str]]:
        """Scripted single-layer drives: ``(metrics, problems)``."""
        return {}, []

    def self_check(self) -> list[str]:
        """Checks of the layers under this workload that need no timed
        pass (problems found; empty when all hold)."""
        return []

    def warm_up(self) -> PassReport:
        """The discarded first pass; sub-seed 0 unless overridden."""
        live = self.construct(0)
        self.run(live)
        return self.collect(live)


#: Iterations of the reference loop.
SPIN_ITERATIONS = 60_000
#: Seconds the reference loop takes on an undisturbed host of the class
#: this suite was written on (15.8 M iterations/s). A constant and not
#: the fastest loop of the run: that minimum itself moves 2-4 % between
#: runs, which is most of the noise left after the correction.
NOMINAL_SPIN_SECONDS = 0.0038
#: Seconds between two interruptions of a timed pass.
MARK_PERIOD = 0.05

#: One slice of a pass: wall seconds, CPU seconds, reference-loop
#: seconds averaged over the two timings that bracket the slice.
Slice = tuple[float, float, float]


def _spin() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(SPIN_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - t0


def undisturbed(slices: list[Slice]) -> tuple[float, float]:
    """``(wall, cpu)`` seconds of a pass at the nominal host speed."""
    return (sum(w * NOMINAL_SPIN_SECONDS / spin for w, _, spin in slices),
            sum(c * NOMINAL_SPIN_SECONDS / spin for _, c, spin in slices))


class Meter:
    """Times a region in slices, each bracketed by the reference loop."""

    def __init__(self) -> None:
        self._slices: list[Slice] = []
        self._spin_before = 0.0
        self._wall = self._cpu = 0.0

    def _mark(self, signum: int = 0, frame: object = None) -> None:
        wall = time.perf_counter() - self._wall
        cpu = time.process_time() - self._cpu
        spin_after = _spin()
        self._slices.append(
            (wall, cpu, (self._spin_before + spin_after) / 2))
        self._spin_before = spin_after
        self._cpu = time.process_time()
        self._wall = time.perf_counter()

    def begin(self) -> None:
        self._slices = []
        self._spin_before = _spin()
        self._previous = signal.signal(signal.SIGALRM, self._mark)
        signal.setitimer(signal.ITIMER_REAL, MARK_PERIOD, MARK_PERIOD)
        self._cpu = time.process_time()
        self._wall = time.perf_counter()

    def end(self) -> list[Slice]:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._mark()
        signal.signal(signal.SIGALRM, self._previous)
        return self._slices


@dataclass
class Timing:
    """One timed quantity over the passes (or probes) of a run."""

    values: list[float]
    #: The same samples as the clocks read them, before the correction.
    uncorrected: list[float]

    @property
    def median(self) -> float:
        return quartiles(self.values)[1]

    def detail(self) -> dict[str, float]:
        q1, q2, q3 = quartiles(self.values)
        return {"q1": q1, "median": q2, "q3": q3, "n": len(self.values),
                "uncorrected_median": quartiles(self.uncorrected)[1]}


@dataclass
class RunResult:
    stream_s_per_s: Timing
    cpu_ms_per_stream_s: Timing
    quality: Quality
    attempted: int
    failed: int
    problems: list[str]
    passes: int


class BehaviourLedger:
    """First report per sub-seed is the reference; repeats must match."""

    def __init__(self) -> None:
        self.reference: dict[int, PassReport] = {}
        self.quality = Quality()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, k: int, report: PassReport) -> None:
        self.attempted += report.attempted
        self.failed += report.failed
        self.problems.extend(report.problems)
        ref = self.reference.get(k)
        if ref is not None and not ref.twin:
            if report.digest != ref.digest:
                self.failed += 1
                self.problems.append(
                    f"sub-seed {k}: behaviour digest changed between "
                    f"two passes of the same input")
            return
        if ref is not None and report.decisions != ref.decisions:
            self.failed += 1
            self.problems.append(
                f"sub-seed {k}: add/drop log differs from the "
                f"signals-off twin")
        self.reference[k] = report
        if not report.twin:
            self.quality.merge(report.quality)


def measure(workload: Workload, seconds: float) -> RunResult:
    """Warm up, then time passes for ``seconds`` (>= MIN_TIMED passes).

    A wall-paced workload paces itself for ``seconds``: one pass, and no
    warm-up, because its cost is CPU per unit of fixed offered load.
    """
    ledger = BehaviourLedger()
    meter = Meter()
    timed: list[tuple[float, float, list[Slice]]] = []
    measured = 0.0
    p = 0
    if workload.wall_paced:
        wanted = 1
        seconds = 0.0
    else:
        wanted = MIN_TIMED
        ledger.record(0, workload.warm_up())
    while p < wanted or measured < seconds:
        p += 1
        k = p % SUB_SEEDS
        # Every pass starts from a collected heap: the previous pass's
        # cyclic garbage is not this one's to pay for.
        live = None
        gc.collect()
        t0 = time.perf_counter()
        meter.begin()
        live = workload.construct(k)
        workload.run(live)
        slices = meter.end()
        elapsed = time.perf_counter() - t0
        report = workload.collect(live)
        ledger.record(k, report)
        timed.append((report.stream_seconds, elapsed, slices))
        measured += sum(wall for wall, _, _ in slices)
    rates, costs, raw_rates, raw_costs = [], [], [], []
    for stream_seconds, elapsed, slices in timed:
        raw_wall = sum(w for w, _, _ in slices)
        raw_cpu = sum(c for _, c, _ in slices)
        wall, cpu = undisturbed(slices)
        if workload.wall_paced:
            # Paced by the real clock, reference loops and all; only
            # the CPU it used scales with the host.
            wall = raw_wall = elapsed
        rates.append(stream_seconds / wall)
        costs.append(1000.0 * cpu / stream_seconds)
        raw_rates.append(stream_seconds / raw_wall)
        raw_costs.append(1000.0 * raw_cpu / stream_seconds)
    return RunResult(
        stream_s_per_s=Timing(rates, raw_rates),
        cpu_ms_per_stream_s=Timing(costs, raw_costs),
        quality=ledger.quality,
        attempted=ledger.attempted,
        failed=ledger.failed,
        problems=ledger.problems,
        passes=p,
    )
