"""Set-up probe: import hopfcyc from this checkout, build one workload's
inputs, and print the monotonic clock at the moment the first op could run.

    python3 perfbench/probe.py WORKLOAD SEED

``run.py`` starts it several times per run and reads ``setup_s`` as that
clock minus the clock just before the process was started.
"""

import sys
import time

import workloads

if __name__ == "__main__":
    workloads.import_program()
    workloads.build(sys.argv[1], int(sys.argv[2]))
    print(time.perf_counter())
