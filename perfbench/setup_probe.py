"""Time one fresh-process set-up: library import plus protocol construction.

Usage: python3 perfbench/setup_probe.py <workload>   (run.py calls it with
PYTHONPATH pointing at src/).  Prints the seconds elapsed since this
interpreter started executing the script.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](0).setup()
print(repr(time.perf_counter() - _T0))
