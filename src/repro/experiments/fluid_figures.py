"""The fluid figures (2, 5, 6): the paper's sketches, each one scripted
AIMD sawtooth driving the real :class:`~repro.core.adapter.
QualityAdapter` through :class:`~repro.core.fluid.FluidRun`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.analysis import ascii_chart, format_kv
from repro.core import formulas
from repro.core.config import QAConfig
from repro.core.fluid import FluidRun, ScriptedAimd
from repro.experiments import Results, artifact
from repro.sim.trace import Tracer


@dataclass(frozen=True)
class ScriptedFluid:
    """One fluid run as a run key: the adapter's knobs plus the scripted
    sawtooth (climb at ``slope`` from ``initial_rate``, capped at
    ``max_rate``, halved at each of ``backoff_times``). Executing it
    returns the run's traces."""

    layer_rate: float
    layers: int
    k_max: int
    packet_size: int
    initial_rate: float
    slope: float
    backoff_times: tuple[float, ...]
    max_rate: float
    duration: float
    seed: ClassVar[None] = None

    def execute(self) -> Tracer:
        config = QAConfig(layer_rate=self.layer_rate,
                          max_layers=self.layers, k_max=self.k_max,
                          packet_size=self.packet_size, startup_delay=0.5)
        bandwidth = ScriptedAimd(
            initial_rate=self.initial_rate, slope=self.slope,
            backoff_times=self.backoff_times, max_rate=self.max_rate)
        return FluidRun(config, bandwidth, self.duration).run().tracer


def fig02_runs(seed=None, layer_rate: float = 5000.0,
               slope: float = 2000.0, duration: float = 30.0,
               backoff_times: tuple[float, ...] = (12.0, 22.0)) -> tuple:
    """Two layers, two backoffs, no losses -- the paper's sketch."""
    return (ScriptedFluid(layer_rate, 2, 2, 250, layer_rate * 0.9, slope,
                          backoff_times, layer_rate * 2.4, duration),)


@artifact("fig02", runs=fig02_runs)
def fig02(results: Results) -> str:
    """Figure 2: layered encoding with receiver buffering (mechanism demo).

    A clean fluid run: the available bandwidth climbs, two scripted backoffs
    interrupt it, and the receiver's per-layer buffers absorb the deficits so
    the number of layers played stays constant. The paper's figure shows the
    transmission vs consumption rate (top) and per-layer buffering (bottom);
    we render the same two panels plus the filling/draining phase timeline.
    """
    (run, t), = results.items()
    out = ascii_chart(
        t.get("rate"), overlay=t.get("consumption"),
        title="Figure 2 (top): transmission rate (*) vs consumption "
        "rate (o), bytes/s")
    for layer in (0, 1):
        out += ascii_chart(
            t.get(f"buffer_L{layer}"),
            title=f"Figure 2 (bottom): receiver buffer, layer {layer} "
            "(bytes)")
    out += format_kv({
        "backoffs_scripted": ", ".join(f"{b:.1f}s"
                                       for b in run.backoff_times),
        "layers_final": t.get("layers").final(),
        "layer_drops": len(t.events_of("drop")),
        "max_buffer_L0": t.get("buffer_L0").max(),
        "max_buffer_L1": t.get("buffer_L1").max(),
    })
    return out


def fig05_runs(seed=None, layer_rate: float = 2500.0, layers: int = 5,
               slope: float = 900.0, backoff_at: float = 28.0,
               duration: float = 40.0) -> tuple:
    """Layers join as their buffers fill; one backoff, then draining."""
    return (ScriptedFluid(layer_rate, layers, 1, 200, layer_rate * 1.5,
                          slope, (backoff_at,),
                          layers * layer_rate * 1.25, duration),)


@artifact("fig05", runs=fig05_runs)
def fig05(results: Results) -> str:
    """Figure 5: optimal buffer sharing -- sequential filling, reverse draining.

    A fluid run around a single backoff with several active layers. The
    figure's signature behaviours, which this experiment demonstrates and the
    test suite asserts:

    - during the filling phase the buffers fill *sequentially* (base first);
    - during the draining phase the highest buffering layer drains first
      while lower layers keep their protection longer;
    - the base layer ends the cycle holding the most data.
    """
    (run, t), = results.items()
    out = ascii_chart(
        t.get("rate"), overlay=t.get("consumption"),
        title="Figure 5: available bandwidth (*) vs consumption (o)")
    for layer in range(run.layers):
        out += ascii_chart(
            t.get(f"buffer_L{layer}"),
            title=f"Figure 5: buffered bytes, layer {layer}")
    out += format_kv({
        f"final_buffer_L{i}": t.get(f"buffer_L{i}").final()
        for i in range(run.layers)
    })
    return out


def fig06_runs(seed=None, layer_rate: float = 4000.0, layers: int = 3,
               k_max: int = 3, slope: float = 1500.0,
               backoff_times: tuple[float, ...] = (18.0, 34.0),
               duration: float = 44.0) -> tuple:
    return (ScriptedFluid(layer_rate, layers, k_max, 200,
                          layers * layer_rate * 1.01, slope, backoff_times,
                          layers * layer_rate * 1.7, duration),)


@artifact("fig06", runs=fig06_runs)
def fig06(results: Results) -> str:
    """Figure 6: revised filling/draining with smoothing (K_max > 1).

    Two consecutive filling phases: after the first backoff's draining phase
    ends, buffering continues *past* the single-backoff requirement because
    the smoothing factor defers the layer add until K_max backoffs are
    covered. The run shows the total buffering exceeding the one-backoff
    requirement before the second backoff arrives.
    """
    (run, t), = results.items()
    out = ascii_chart(
        t.get("rate"), overlay=t.get("consumption"),
        title="Figure 6: bandwidth (*) vs consumption (o), two "
        "filling phases")
    out += ascii_chart(
        t.get("total_buffer"),
        title="Figure 6: total receiver buffering (bytes)")
    # How much buffering was held just before the second backoff vs
    # the single-backoff requirement at that moment? (The adapter's
    # slope estimate of a scripted sawtooth is the script's slope.)
    before = run.backoff_times[-1] - 0.1
    one_backoff = formulas.one_backoff_requirement(
        t.get("rate").value_at(before),
        t.get("consumption").value_at(before), run.slope)
    out += format_kv({
        "buffer_before_2nd_backoff": t.get("total_buffer").value_at(before),
        "one_backoff_requirement_then": one_backoff,
        "smoothing_factor_k_max": run.k_max,
    })
    return out
