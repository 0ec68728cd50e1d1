#!/usr/bin/env python3
"""Responsiveness to a bandwidth collapse (the paper's Figure 13 story).

At t=30 s a CBR source claims half the bottleneck; at t=60 s it leaves.
A well-behaved quality-adaptive stream should shed enhancement layers
quickly (drawing on every layer's buffer), keep the base layer playing
throughout, and rebuild quality once the bandwidth returns.

Run:  python examples/cbr_burst.py
"""

from repro.analysis import ascii_chart, format_kv, sparkline
from repro.experiments.packet_figures import cbr_phase_means, fig13_runs
from repro.experiments.runner import execute


def main() -> None:
    (run, outcome), = execute(fig13_runs(k_max=4, seed=1)).items()
    t = outcome.session.tracer

    print(ascii_chart(
        t.get("rate"), overlay=t.get("consumption"),
        title="Transmission (*) vs consumption (o); CBR burst 30-60 s"))
    print("Active layers (| marks ~30 s and ~60 s):")
    line = sparkline(t.get("layers").values, width=90)
    third = len(line) // 3
    print("  " + line[:third] + "|" + line[third:2 * third] + "|"
          + line[2 * third:])
    print()
    print(format_kv(cbr_phase_means(run, outcome),
                    title="Mean quality by phase"))
    stalls = outcome.session.playout.stall_count
    print(f"\nBase-layer stalls during the collapse: {stalls} "
          "(the reception of the base layer is never jeopardized).")


if __name__ == "__main__":
    main()
