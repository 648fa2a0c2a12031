"""Time one benchmark set-up in a fresh interpreter.

Set-up is ``import opcalc`` (with numpy and scipy) plus generating the first
round of a workload's jobs.  Prints its seconds and the median time of the
host-speed reference kernel measured right after it.  Usage, from the
repository root:

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import os
import statistics
import sys
import time


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = time.perf_counter()
    import opcalc.cli  # noqa: F401
    from jobs import round_jobs

    round_jobs(workload, seed, 0)
    elapsed = time.perf_counter() - t0
    import speed

    speed.kernel()   # first call pays one-off library initialisation
    reference = statistics.median(speed.kernel() for _ in range(5))
    print(repr(elapsed), repr(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
