"""Timed and traced runs of one workload, and the metrics they report.

See ``run.py`` for the command line and ``README.md`` for the definitions.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "paths_per_s": "1/s",
    "price_cost": "s.unit2",
    "delta_cost": "s.unit2",
    "vega_cost": "s.unit2",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rng.gap_s": "s", "rng.normal_s": "s", "rng.pairs": "count",
    "rng.ns_per_pair": "ns",
    "renewal.quantile_s": "s", "renewal.rounds": "count",
    "renewal.useful_draw_frac": "ratio",
    "flow.frozen_coeffs_s": "s", "flow.calls": "count",
    "flow.path_steps": "count", "flow.ns_per_path_step": "ns",
    "model.coeff_s": "s", "model.coeff_calls": "count",
    "model.coeff_evals": "count", "model.evals_per_path_step": "ratio",
    "chain.step_s": "s",
    "weights.step_s": "s", "weights.terminal_s": "s",
    "weights.ns_per_path_step": "ns",
    "estimators.self_s": "s", "estimators.aggregate_s": "s",
    "estimators.n_jumps_mean": "count", "estimators.thread_busy_frac": "ratio",
    "trace.request_wall_s": "s", "trace.self_sum_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

# Exact counts of a traced pass; they depend only on the inputs.
EXACT_COUNTS = ("rng.pairs", "renewal.rounds", "flow.path_steps",
                "model.coeff_calls", "model.coeff_evals")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Tally:
    """Request outcomes and workload-level checks.

    ``attempted`` and ``failed`` count requests only, so their ratio is the
    failed-request fraction: a request fails if it raises, misses its
    target, or does not reproduce the first repetition's mean and SE bit
    for bit.  ``checks`` and ``checks_failed`` count the checks of a whole
    workload (pooled means, exact counts); any failed one makes the run
    incorrect too."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.checks_failed = 0
        self.first = {}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.checks_failed == 0

    def check(self, name, misses):
        """Record one workload-level check; ``misses`` says what failed."""
        self.checks += 1
        if misses:
            self.checks_failed += 1
            for miss in misses:
                log(f"FAILED check {name}: {miss}")

    def record(self, req, res, error=None):
        self.attempted += 1
        if error is not None:
            reason = f"raised {error!r}"
        elif not req.check(res):
            reason = (f"mean {res.mean!r} se {res.std_error!r} misses target "
                      f"{req.target!r} (se {req.target_se!r})")
        elif self.first.setdefault(req.name, (res.mean, res.std_error)) != \
                (res.mean, res.std_error):
            reason = f"not reproducible: {(res.mean, res.std_error)} vs {self.first[req.name]}"
        else:
            return
        self.failed += 1
        log(f"FAILED {req.name}: {reason}")


def run_pass(requests, tally, call=lambda req: req.run()):
    """Issue every request once; returns ``[(request, result, wall_s)]``."""
    out = []
    for req in requests:
        t0 = perf_counter()
        try:
            res = call(req)
        except Exception as exc:  # a request that raises is a failed request
            tally.record(req, None, exc)
            continue
        wall = perf_counter() - t0
        tally.record(req, res)
        out.append((req, res, wall))
    return out


def probe_processes(workload, seed):
    """Medians over fresh processes (``setup_probe.py``) of the set-up time
    and of the peak RSS after one full-size request."""
    setup, rss = [], []
    for _ in range(PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        s, r = proc.stdout.split()[-2:]
        setup.append(float(s))
        rss.append(float(r))
    return statistics.median(setup), statistics.median(rss)


def timed_run(workload, seed, seconds):
    setup_s, peak_rss_mb = probe_processes(workload.name, seed)
    requests = wl.build_requests(workload, seed)
    wl.warm_up(requests)
    wl.prime(requests)
    tally = Tally()
    walls = defaultdict(list)
    results = {}
    start = perf_counter()
    passes = 0
    while True:
        t_pass = perf_counter()
        for req, res, wall in run_pass(requests, tally):
            walls[req.name].append(wall)
            results[req.name] = (req, res)
        passes += 1
        now = perf_counter()
        if passes >= 2 and now - start + (now - t_pass) > seconds:
            break
    if len(results) < len(requests):
        log(f"{len(requests) - len(results)} request(s) never completed; no metrics")
        return tally, None, END_TO_END
    tally.check("pooled means", wl.pooled_misses(results.values()))
    wall = {name: statistics.median(w) for name, w in walls.items()}
    metrics = {
        "setup_s": setup_s,
        "paths_per_s": sum(req.cfg.n_paths for req, _ in results.values())
        / sum(wall.values()),
    }
    for q in wl.QUANTITIES:
        logs = [math.log(wall[name] * res.std_error ** 2)
                for name, (req, res) in results.items() if req.quantity == q]
        metrics[f"{q}_cost"] = math.exp(statistics.fmean(logs))
    metrics["peak_rss_mb"] = peak_rss_mb
    log(f"{workload.name}: {passes} passes of {len(requests)} requests in "
        f"{perf_counter() - start:.1f} s")
    return tally, metrics, END_TO_END


def traced_pass(requests, tally):
    """One pass with every layer traced; returns ``(tracer, pass results)``."""
    tr = tracer.Tracer()
    models = {}

    def call(req):
        key = id(req.cfg)
        if key not in models:
            models[key] = replace(req.cfg, model=tr.wrap_model(req.cfg.model))
        return tr.call_request(wl.ESTIMATORS[req.quantity], models[key])

    with tr.installed():
        return tr, run_pass(requests, tally, call)


def traced_run(workload, seed):
    requests = wl.build_requests(workload, seed)
    wl.warm_up(requests)
    wl.prime(requests)
    tally = Tally()
    base = run_pass(requests, tally)
    tr, done = traced_pass(requests, tally)
    tr2, _ = traced_pass(requests, tally)
    if min(len(base), len(done)) < len(requests):
        log("a request raised; no layer metrics")
        return tally, None, PER_LAYER
    tally.check("pooled means", wl.pooled_misses((req, res) for req, res, _ in base))
    metrics = tracer.layer_metrics(tr.spans, [res for _, res, _ in done])
    metrics["trace.overhead_ratio"] = sum(w for *_, w in done) / sum(w for *_, w in base)
    counts, counts2 = tracer.exact_counts(tr.spans), tracer.exact_counts(tr2.spans)
    tally.check("exact counts", [
        f"{name} does not repeat: {counts[name]} vs {counts2[name]}"
        for name in EXACT_COUNTS if counts[name] != counts2[name]])
    shares = tracer.layer_shares(metrics)
    log("layer shares of traced self time: " +
        ", ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items()))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.dump(tr.spans, out / f"spans-{workload.name}-seed{seed}.jsonl")
    return tally, metrics, PER_LAYER
