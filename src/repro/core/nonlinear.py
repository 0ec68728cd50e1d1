"""Non-linear layer spacing (the paper's section 7 future work).

The paper's analysis assumes linearly spaced layers: every layer consumes
the same C. Real hierarchical codecs often use geometric spacing (each
enhancement roughly doubles fidelity for less rate, or the base is fat
and enhancements thin). This module generalizes the Appendix-A geometry
to an arbitrary per-layer rate vector:

- the deficit triangle is sliced into horizontal bands whose heights are
  the layer rates **in layer order from the bottom** (the base layer's
  band sits at the bottom of the deficit because a layer can supply at
  most its own consumption rate from its buffer, and the base must be
  the last one still draining);
- the minimum number of buffering layers is the shortest prefix of
  layers whose cumulative rate covers the peak deficit;
- scenario-1/2 totals are rate-vector independent (they only involve the
  total consumption), so only the share slicing changes.

The same machinery reproduces the linear formulas exactly when all rates
are equal (tested), and powers the ``ablation-nonlinear`` experiment.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core import formulas
from repro.core.formulas import EPSILON, SCENARIO_ONE, SCENARIO_TWO


def validate_rates(layer_rates: Sequence[float]) -> tuple[float, ...]:
    """Check and normalize a per-layer rate vector."""
    rates = tuple(float(r) for r in layer_rates)
    if not rates:
        raise ValueError("need at least one layer rate")
    if any(r <= 0 for r in rates):
        raise ValueError("layer rates must be positive")
    return rates


def total_rate(layer_rates: Sequence[float]) -> float:
    """Total consumption rate of the layer set."""
    return math.fsum(validate_rates(layer_rates))


def min_buffering_layers(deficit: float,
                         layer_rates: Sequence[float]) -> int:
    """Shortest prefix of layers whose rates cover ``deficit``.

    Raises if even all layers together cannot cover it (the deficit can
    never exceed the total consumption rate in a valid scenario).
    """
    rates = validate_rates(layer_rates)
    if deficit <= EPSILON:
        return 0
    cumulative = 0.0
    for i, rate in enumerate(rates):
        cumulative += rate
        if cumulative >= deficit - EPSILON:
            return i + 1
    raise ValueError(
        f"deficit {deficit} exceeds total consumption {cumulative}")


def band_shares(deficit: float, layer_rates: Sequence[float],
                slope: float) -> tuple[float, ...]:
    """Optimal per-layer shares for one deficit triangle, non-linear.

    Layer i's band spans deficit levels
    ``[sum(rates[:i]), sum(rates[:i]) + rates[i])`` -- the base at the
    bottom (longest-lived). Returns a vector as long as ``layer_rates``
    (zero beyond the buffering layers); sums to the triangle area.
    """
    rates = validate_rates(layer_rates)
    if slope <= 0:
        raise ValueError("slope must be positive")
    shares: list[float] = []
    level = 0.0
    for rate in rates:
        if level >= deficit - EPSILON:
            shares.append(0.0)
            continue
        top = min(level + rate, deficit)
        area = (
            (deficit - level) ** 2 - (deficit - top) ** 2
        ) / (2.0 * slope)
        shares.append(area)
        level = top
    return tuple(shares)


def scenario_shares(rate: float, layer_rates: Sequence[float],
                    slope: float, k: int,
                    scenario: int) -> tuple[float, ...]:
    """Per-layer optimal shares for k backoffs, non-linear spacing.

    The scenario *totals* match the linear ladder's
    (:func:`repro.core.states.ladder`) with ``na*C = sum(layer_rates)``;
    only the distribution over layers differs.
    """
    rates = validate_rates(layer_rates)
    consumption = math.fsum(rates)
    if scenario == SCENARIO_ONE:
        return band_shares(
            formulas.deficit_after_backoffs(rate, consumption, k),
            rates, slope)
    if scenario == SCENARIO_TWO:
        k1 = formulas.k1_backoffs(rate, consumption)
        if k <= k1:
            return band_shares(
                formulas.deficit_after_backoffs(rate, consumption, k),
                rates, slope)
        first = band_shares(
            formulas.deficit_after_backoffs(rate, consumption, k1),
            rates, slope)
        seq = band_shares(consumption / 2.0, rates, slope)
        return tuple(f + (k - k1) * s for f, s in zip(first, seq))
    raise ValueError(f"scenario must be 1 or 2, got {scenario}")


def layers_to_keep(rate: float, total_buffer: float,
                   layer_rates: Sequence[float], slope: float) -> int:
    """The section 2.2 drop rule for a non-linear layer set.

    Iteratively drop the top layer while the remaining deficit triangle
    exceeds the buffering. The base layer always survives.
    """
    rates = list(validate_rates(layer_rates))
    threshold = math.sqrt(max(0.0, 2.0 * slope * total_buffer))
    while len(rates) > 1 and math.fsum(rates) - rate >= threshold - EPSILON:
        rates.pop()
    return len(rates)


def equivalent_linear_rate(layer_rates: Sequence[float]) -> float:
    """Mean per-layer rate: the linear approximation the paper uses."""
    rates = validate_rates(layer_rates)
    return math.fsum(rates) / len(rates)


def geometric_rates(base_rate: float, n_layers: int,
                    ratio: float = 0.5) -> tuple[float, ...]:
    """A geometric layer-rate ladder (fat base, thinner enhancements).

    ``ratio < 1`` makes each enhancement cheaper than the layer below --
    typical of real scalable codecs where most bits live in the base.
    """
    if base_rate <= 0:
        raise ValueError("base_rate must be positive")
    if n_layers < 1:
        raise ValueError("need at least one layer")
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    return tuple(base_rate * ratio ** i for i in range(n_layers))
