"""What ``import repro.<anything>`` drags in.

numpy is needed by :mod:`repro.sim.fluid_batch` alone, and only once a
batch is built: the entry points, the packet simulator, the scenarios
and the service must start without it (it was half of their import
time and a third of their memory).

A module must also import on its own, without the eager
``repro/__init__`` having loaded its dependencies first.
"""

import json
import pickle
import subprocess
import sys
from pathlib import Path

# Loaded before any batch here: the eager reference for the summaries.
import numpy  # noqa: F401

import repro
from repro.experiments.flock_scale import batch_config
from repro.sim.fluid_batch import FlowClassBatch

ENTRY_POINTS = (
    "repro.experiments.runner",
    "repro.analysis.run_report",
    "repro.service.cli",
    "repro.sim",
    "repro.sim.fluid_batch",
    "repro.experiments.flock_scale",
)


def small_flock():
    return FlowClassBatch.jittered(batch_config(), 50, slope=1000,
                                   duration=20).run()


def python(snippet: str, stdin: bytes = b"") -> list:
    """Run ``snippet`` in a fresh interpreter; one JSON value per line."""
    done = subprocess.run([sys.executable, "-c", snippet], input=stdin,
                          capture_output=True, check=True)
    return [json.loads(line) for line in done.stdout.decode().splitlines()]


def test_numpy_loads_only_for_the_batch():
    # One interpreter covers every entry point: each module body runs
    # once, so any that loaded numpy on its own would load it here.
    snippet = (
        "import json, sys\n"
        f"import {', '.join(ENTRY_POINTS)}\n"
        "print(json.dumps('numpy' in sys.modules))\n"
        "from repro.sim import BatchResult, FlowClassBatch\n"
        "print(json.dumps([FlowClassBatch.__module__,\n"
        "    {'BatchResult', 'FlowClassBatch'} <= set(repro.sim.__all__)]))\n"
        "from repro.experiments.flock_scale import batch_config\n"
        "result = FlowClassBatch.jittered(batch_config(), 50, slope=1000,\n"
        "                                 duration=20).run()\n"
        "print(json.dumps('numpy' in sys.modules))\n"
        "print(json.dumps(result.summary()))\n"
    )
    before, names, after, summary = python(snippet)
    assert before is False
    assert names == ["repro.sim.fluid_batch", True]
    assert after is True
    # This process imported numpy before any batch: same numbers.
    assert summary == small_flock().summary()


def test_a_pooled_result_summarises_where_no_batch_was_built():
    # ``repro-experiments -j N`` unpickles worker results in a parent
    # that never built a batch (flock-scale then calls ``summary()``).
    result = small_flock()
    snippet = (
        "import json, pickle, sys\n"
        "import repro.experiments.flock_scale\n"
        "result = pickle.load(sys.stdin.buffer)\n"
        "print(json.dumps(result.summary()))\n"
    )
    assert python(snippet, pickle.dumps(result)) == [result.summary()]


def test_core_fluid_imports_first_without_the_package_init():
    # A bare ``repro`` package skips ``repro/__init__``, which would
    # otherwise import repro.sim (and so repro.sim.fluid) before the
    # scripted sawtooth's own module and hide a cycle between the two.
    package = str(Path(repro.__file__).parent)
    snippet = (
        "import json, sys, types\n"
        "bare = types.ModuleType('repro')\n"
        f"bare.__path__ = [{package!r}]\n"
        "sys.modules['repro'] = bare\n"
        "from repro.core.fluid import ScriptedAimd\n"
        "from repro.sim.fluid import FluidEngine\n"
        "print(json.dumps([ScriptedAimd.__module__,\n"
        "                  FluidEngine.__module__]))\n"
    )
    assert python(snippet) == [["repro.core.fluid", "repro.sim.fluid"]]
