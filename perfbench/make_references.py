"""Regenerate ``references.json``: the stored targets of the two workloads
without a closed form.

Each reference is one long run of the same public estimator at a seed the
benchmark never uses (``workloads.REFERENCE_SEED`` and up; benchmark runs
stay below 2**40), so it is independent of every run it checks.

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from uvol import RunConfig  # noqa: E402

import workloads as wl  # noqa: E402


N_PATHS = 16_000_000


def main() -> int:
    out = {}
    for i, name in enumerate(("affine-greeks", "cosine-digital")):
        model, payoff, sampler = wl.reference_contract(name)
        seed = wl.REFERENCE_SEED + i
        cfg = RunConfig(model=model, payoff=payoff, sampler=sampler, s0=wl.S0,
                        y0=wl.Y0, T=wl.T, n_paths=N_PATHS, seed=seed, threads=2)
        out[name] = {}
        for q in wl.QUANTITIES:
            res = wl.ESTIMATORS[q](cfg)
            out[name][q] = {"mean": res.mean, "std_error": res.std_error,
                            "n_paths": res.n_paths, "seed": seed,
                            "seconds": round(res.elapsed, 1)}
            print(name, q, res.mean, res.std_error, f"{res.elapsed:.1f}s", flush=True)
    doc = {
        "how": ("one run of estimate_<quantity> per entry, n_paths paths at the "
                "listed seed (>= 2**41, never used by a benchmark run), threads=2; "
                "regenerate with: python3 perfbench/make_references.py"),
        "machine": platform.machine(),
        "made": time.strftime("%Y-%m-%d"),
        "workloads": out,
    }
    wl.REFERENCES.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
