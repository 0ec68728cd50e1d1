"""What ``import repro.<anything>`` drags in.

numpy is needed by :mod:`repro.sim.fluid_batch` alone; the packet
simulator, the scenarios and the service must start without it (it was
half of their import time).
"""

import subprocess
import sys


def test_numpy_loads_only_for_the_batch():
    snippet = (
        "import sys\n"
        "import repro.scenario, repro.service\n"
        "print('numpy' in sys.modules)\n"
        "import repro.sim\n"
        "from repro.sim import BatchResult, FlowClassBatch\n"
        "print('numpy' in sys.modules, FlowClassBatch.__module__,\n"
        "      {'BatchResult', 'FlowClassBatch'} <= set(repro.sim.__all__))\n"
    )
    result = subprocess.run([sys.executable, "-c", snippet],
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == [
        "False", "True", "repro.sim.fluid_batch", "True"]
