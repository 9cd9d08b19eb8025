"""Time one set-up in a fresh interpreter: import ``conebarriers`` and make
one warm-up call per family and method of a workload.

Usage: python3 perfbench/probe_setup.py WORKLOAD  (prints seconds)
"""

import sys
import time

t0 = time.perf_counter()

import env  # noqa: E402

env.pin_blas()
sys.path.insert(0, str(env.SRC))

import conebarriers  # noqa: E402,F401
import workloads  # noqa: E402

workloads.warm_up(sys.argv[1])
print(repr(time.perf_counter() - t0))
