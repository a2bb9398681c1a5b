"""Set up a workload in a fresh process, then issue one full-size request.

Prints two numbers: the set-up seconds, and the process's peak resident
memory in MB after that request.  Set-up is what a new process pays before
its first real request: importing ``uvol``, building the workload's models
and configs, and one 1 000-path warm-up estimate.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import resource
import sys
from pathlib import Path
from time import perf_counter


def probe(workload: str, seed: int):
    t0 = perf_counter()
    import workloads as wl  # imports uvol, which is part of set-up

    requests = wl.build_requests(wl.WORKLOADS[workload], seed)
    wl.warm_up(requests)
    setup_s = perf_counter() - t0
    requests[0].run()
    return setup_s, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    print(*probe(sys.argv[1], int(sys.argv[2])))
