"""uvol benchmark: cost of precision and throughput, with a layer trace.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads are closed loops: one process issues the workload's
requests (see ``workloads.py``) one after another, on one thread of its
own, and repeats the list until ``--seconds`` have passed (at least twice).
Every request is checked against its target, and every repetition must
reproduce the first one's means and standard errors bit for bit.  Once per
run, each quantity's mean over the workload's groups is checked against
the targets too, which is tighter than one request's check.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the list
once untraced and twice traced (``tracer.py``), checks that traced
estimates equal untraced ones bit for bit and that the exact counts repeat,
prints the per-layer metrics of the first traced pass and writes its spans
to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed /
attempted`` is the workload's failed fraction: requests that raised,
missed their target or did not repeat bit for bit.  A failed workload-level
check (pooled means, exact counts) makes ``correct`` false without counting
as a failed request.  When a request raised, the metrics cannot be
computed: the line still reports the tally, with ``correct`` false and no
metrics, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("affine-greeks", "cosine-digital", "bs-sweep-2t")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "uvol" / "__init__.py").is_file():
        print(f"no uvol source tree under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    workload = harness.wl.WORKLOADS[args.workload]
    if args.trace:
        tally, metrics, units = harness.traced_run(workload, args.seed)
    else:
        tally, metrics, units = harness.timed_run(workload, args.seed, args.seconds)

    results = {}
    if metrics is not None:
        results = {n: {"value": metrics[n], "unit": u} for n, u in units.items()}
    for name, res in results.items():
        value = res["value"]
        print(f"{name:28s} {value if isinstance(value, int) else f'{value:.6g}'} {res['unit']}")
    print(f"{'failed_frac':28s} {tally.failed / tally.attempted:.6g} "
          f"({tally.failed}/{tally.attempted})")
    print(f"{'workload_checks_failed':28s} {tally.checks_failed}/{tally.checks}")
    print(json.dumps({
        "correct": tally.correct and metrics is not None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": results,
    }))
    return 0 if metrics is not None else 1


if __name__ == "__main__":
    sys.exit(main())
