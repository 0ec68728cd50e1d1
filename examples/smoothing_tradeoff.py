#!/usr/bin/env python3
"""The smoothing knob: K_max trades quality stability for reactivity.

Sweeps K_max over a wider range than the paper's Figure 12 and prints
the two sides of the trade:

- changes in quality (layer adds + drops) -- smaller is calmer;
- time until the stream first reaches its best quality -- smaller is
  snappier.

Run:  python examples/smoothing_tradeoff.py
"""

from repro.experiments.runner import render_experiment


def main() -> None:
    print(render_experiment("fig12", k_values=(1, 2, 3, 4, 5, 8),
                            duration=60.0))
    print("K_max=1 is 'no smoothing': buffering only ever targets one")
    print("backoff, so every loss event risks a quality flap. Large")
    print("K_max barely changes quality but holds more buffering and")
    print("takes longer to reach (and re-reach) the best quality.")


if __name__ == "__main__":
    main()
