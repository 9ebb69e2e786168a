"""Time one fresh-process set-up of a workload and print it in seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Set-up is importing zmx (zmx.cli for the cli workload), building the
workload and generating its first cycle of inputs. run.py starts this with
PYTHONPATH pointing at src/ and reports the median over several processes.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402

name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
importlib.import_module("zmx.cli" if name == "cli" else "zmx")

import workloads  # noqa: E402

workloads.build(name, seed, workdir).cycle(0)
print(f"{time.perf_counter() - T0:.9f}")
