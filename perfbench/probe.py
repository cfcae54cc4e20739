"""Set-up probe: one fresh interpreter, timed from ``import staexpand`` to
the end of the workload's first op.  Inputs are made before the clock
starts.  Prints the seconds.

    python3 perfbench/probe.py WORKLOAD SEED OUT_DIR
"""
import os
import sys
import time
import warnings

import inputs

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    warnings.simplefilter("ignore", RuntimeWarning)   # the known NaN-power fault warns
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    op = inputs.WORKLOADS[workload](seed).next_round()[0]
    t0 = time.perf_counter()
    import ops   # noqa: E402  (imports staexpand, numpy and scipy)

    ops.run(op, out_dir)
    print(time.perf_counter() - t0)
