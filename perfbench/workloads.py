"""Workload definitions and correctness checks for the uvol benchmark.

A workload is a fixed list of requests, each one call of the public
``estimate_price`` / ``estimate_delta`` / ``estimate_vega`` API.  The
contract (model, payoff, sampler, s0, y0, T, strike) is fixed per workload;
the benchmark seed only chooses the Monte Carlo seeds of the requests, so
the same seed always gives the same inputs and, the engine being
deterministic, the same estimates.

Every request carries a target and a check: Black-Scholes closed forms for
``bs-sweep-2t``, stored long-run references for the other two (see
``references.json`` and ``make_references.py``).
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

from uvol import (BuiltinModelKind, JumpSampler, Payoff, RunConfig,
                  estimate_delta, estimate_price, estimate_vega, make_builtin)

S0 = math.exp(0.4)
Y0 = 0.2
T = 0.5
STRIKE = 1.5
CHUNK = 1 << 17  # RunConfig's default chunk size

ESTIMATORS = {"price": estimate_price, "delta": estimate_delta, "vega": estimate_vega}
QUANTITIES = tuple(ESTIMATORS)

# A request passes when |mean - target| <= Z_TOL * sqrt(se^2 + se_target^2).
# Five standard errors keeps the false-alarm rate negligible over thousands
# of requests (80 seeds of 32 768 cosine-digital paths gave |z| <= 3.4).
Z_TOL = 5.0

# Acceptance targets of the constant-volatility sweep (tests/test_acceptance.py):
# Black-Scholes call price and Delta at s0=e^0.4, K=1.5, T=0.5, r=0.03.
# The Vega target (d/dy0) is 0 because sigma_S does not depend on y.
BS_SIGMAS = (0.25, 0.3, 0.4, 0.6)
BS_TARGETS = {
    "price": (0.111804, 0.132621, 0.174152, 0.256572),
    "delta": (0.556589, 0.560018, 0.569512, 0.592743),
    "vega": (0.0, 0.0, 0.0, 0.0),
}

REFERENCES = Path(__file__).with_name("references.json")

# Monte Carlo seeds of a run are (seed mod 2**32) * 256 + request group, so
# they stay below 2**40; references use seeds at or above REFERENCE_SEED.
SEED_GROUPS = 256
REFERENCE_SEED = 1 << 41


@dataclass(frozen=True)
class Request:
    """One estimator call and the value its mean must reproduce."""

    name: str
    quantity: str
    cfg: RunConfig
    target: float
    target_se: float

    def run(self):
        return ESTIMATORS[self.quantity](self.cfg)

    def check(self, res) -> bool:
        tol = Z_TOL * math.hypot(res.std_error, self.target_se)
        return (math.isfinite(res.mean) and math.isfinite(res.std_error)
                and res.n_paths == self.cfg.n_paths
                and abs(res.mean - self.target) <= tol)


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    n_paths: int
    groups: int

    def contracts(self):
        """``(label, model, payoff, sampler, targets)`` per request group."""
        if self.name == "bs-sweep-2t":
            return [(f"sigma_s={s}",
                     make_builtin(BuiltinModelKind(tag="BlackScholes", sigma_s=s)),
                     Payoff.call(STRIKE), JumpSampler.beta_one_minus_alpha(0.1, 2.0),
                     {q: (BS_TARGETS[q][i], 0.0) for q in QUANTITIES})
                    for i, s in enumerate(BS_SIGMAS)]
        ref = load_references()[self.name]
        targets = {q: (ref[q]["mean"], ref[q]["std_error"]) for q in QUANTITIES}
        model, payoff, sampler = reference_contract(self.name)
        return [(f"rep{g}", model, payoff, sampler, targets)
                for g in range(self.groups)]


def reference_contract(name: str):
    """Model, payoff and sampler of the two stored-reference workloads."""
    if name == "affine-greeks":
        return (make_builtin(BuiltinModelKind(tag="SteinSteinAffine")),
                Payoff.call(STRIKE), JumpSampler.beta_one_minus_alpha(0.5, 1.0))
    if name == "cosine-digital":
        return (make_builtin(BuiltinModelKind(tag="PeriodicCosine")),
                Payoff.digital_call(STRIKE), JumpSampler.exponential(0.5))
    raise KeyError(name)


WORKLOADS = {
    w.name: w for w in (
        # Closed-form frozen coefficients leave weights, rng and the prefix fold
        # hot: the workload for fold, Philox and one-pass-Greeks changes.
        Workload("affine-greeks", threads=1, n_paths=2 * CHUNK, groups=5),
        # Non-affine sigma_S forces the Simpson quadrature, so model + flow
        # dominate: the workload for the coefficient jet; the digital payoff
        # gives variance reduction a discontinuous case.  Its Vega weights are
        # so heavy tailed that log(se^2) scatters by ~0.2 between seeds at any
        # path count, so only the number of requests in the cost's geometric
        # mean steadies it: many small requests.
        Workload("cosine-digital", threads=1, n_paths=CHUNK // 4, groups=32),
        # Closed-form answers at 2 threads, 3 chunks per request: thread
        # scaling and chunk scheduling.
        Workload("bs-sweep-2t", threads=2, n_paths=3 * CHUNK, groups=len(BS_SIGMAS)),
    )
}


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)["workloads"]


def mc_seed(seed: int, group: int) -> int:
    return (seed % (1 << 32)) * SEED_GROUPS + group


def build_requests(workload: Workload, seed: int):
    """The workload's request list; price, Delta and Vega of one group share
    a config, as a caller pricing one contract would."""
    requests = []
    for g, (label, model, payoff, sampler, targets) in enumerate(workload.contracts()):
        cfg = RunConfig(model=model, payoff=payoff, sampler=sampler, s0=S0, y0=Y0,
                        T=T, n_paths=workload.n_paths, seed=mc_seed(seed, g),
                        threads=workload.threads)
        for q in QUANTITIES:
            requests.append(Request(f"{label}/{q}", q, cfg, *targets[q]))
    return requests


def pooled_misses(pairs) -> list[str]:
    """The workload-level check of ``[(request, result)]``: per quantity, the
    mean over the workload's groups of ``mean - target`` must lie within
    Z_TOL standard errors of 0.  The groups are independent, so this is
    about sqrt(groups) tighter than one request's check.  Groups count
    equally: weights of 1/se^2 would come from the same heavy-tailed samples
    as the means and bias the pooled value.  Returns one line per miss."""
    pairs = list(pairs)
    misses = []
    for q in QUANTITIES:
        rows = [(req, res) for req, res in pairs if req.quantity == q]
        resid = statistics.fmean(res.mean - req.target for req, res in rows)
        se = math.sqrt(sum(res.std_error ** 2 for _, res in rows)) / len(rows)
        # One stored reference serves every group, so its error does not
        # average out over them.
        tol = Z_TOL * math.hypot(se, max(req.target_se for req, _ in rows))
        if not abs(resid) <= tol:
            misses.append(f"{q}: pooled mean - target {resid!r} exceeds {tol!r} "
                          f"over {len(rows)} groups")
    return misses


def warm_up(requests) -> None:
    """One 1 000-path price estimate on the first request's config."""
    estimate_price(replace(requests[0].cfg, n_paths=1000))


def prime(requests) -> None:
    """One untimed full-size request, so that the first timed one does not
    pay the process's one-off page faults for its arrays on each thread."""
    requests[0].run()
