#!/usr/bin/env python3
"""The paper's modem argument: a link that fits 2.9 layers.

Section 3.1 rejects adding layers based on average bandwidth with this
scenario: if a link sustains 2.9 layers' worth of throughput, an
average-bandwidth rule never delivers the third layer (2.9 < 3), while
the buffer-based rule streams three layers "90% of the time", riding
receiver buffering through the shortfall.

This example runs a lone adaptive flow on exactly such a link under all
three add rules and reports the time spent at three or more layers.

Run:  python examples/modem_link.py
"""

from repro.experiments.runner import render_experiment


def main() -> None:
    print(render_experiment("ablation-add-rules", duration=90.0))
    print("Interpretation: the buffer-based rule (the paper's choice)")
    print("delivers the third layer a large fraction of the time; the")
    print("average-bandwidth rule (the rejected alternative) rarely or")
    print("never does, because the average never clears 3 layers.")


if __name__ == "__main__":
    main()
