"""Fresh-interpreter probe of one workload.

    python child.py WORKLOAD SEED WORKDIR {setup,memory}

Prints one JSON line.  ``setup_s`` is the time from the first line of
this file through ``import cptsim`` and the workload's own set-up.
With ``memory`` the process then runs the first slice of a round, which
holds every kind of call the workload makes, without checks, and reports
its peak resident memory.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH.parent / "tests"), str(BENCH)]

import cptsim  # noqa: E402,F401
import workloads  # noqa: E402


def main():
    name, seed, workdir, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    wl = workloads.WORKLOADS[name](seed, workdir)
    out = {"setup_s": time.perf_counter() - _T0}
    if mode == "memory":
        for i in wl.slices[0]:
            wl.run(wl.ops[i])
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
