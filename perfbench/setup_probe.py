"""Times one set-up in a fresh process: import, scenario parse and World
construction. Prints the seconds. Usage: setup_probe.py WORKLOAD SEED"""

import os
import sys
import time

t0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import WORKLOADS, build_world  # noqa: E402

build_world(WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print(time.perf_counter() - t0)
