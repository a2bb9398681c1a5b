"""How often the engine evaluates model coefficients, and on which paths.

The model's callables are wrapped so that every call records its field
name, its argument and the argument's size.  The counts pin down the work
the coefficient jet saves: one evaluation per Gauss node in the
quadrature, one per endpoint array in the step weights, and weights only
for the paths a step needs them for.
"""

import dataclasses
import math
import sys
from collections import Counter

import numpy as np
import pytest

import uvol.estimators as est
from helpers import (builtin, engine_weights, make_step, philox_grid,
                     quadrature_only, synthetic_model)
from uvol.estimators import Payoff, RunConfig
from uvol.flow import frozen_coeffs
from uvol.renewal import JumpSampler
from uvol.rng import normal_pair
from uvol.weights import step_weights

FLOW = sys.modules[frozen_coeffs.__module__]  # `uvol.flow` is the re-exported function
FIELDS = ("b_Y", "b1_Y", "b2_Y", "sigma_S", "sigma1_S", "sigma2_S",
          "sigma_Y", "sigma1_Y", "sigma2_Y", "sigma3_Y")


def counting(model):
    """A copy of ``model`` whose callables log ``(field, argument, size)``."""
    log = []

    def wrap(name, fn):
        def counted(y):
            log.append((name, y, np.size(y)))
            return fn(y)
        return counted

    return dataclasses.replace(
        model, **{f: wrap(f, getattr(model, f)) for f in FIELDS}), log


@pytest.mark.parametrize("model, route", [
    (builtin("PeriodicCosine"), "auto"),
    (quadrature_only(builtin("SteinSteinAffine")), "quadrature"),
    (synthetic_model(), "auto"),
])
@pytest.mark.parametrize("nodes", [1, 8])
def test_quadrature_evaluates_sigma_S_once_per_node(monkeypatch, model, route, nodes):
    monkeypatch.setattr(FLOW, "NODES", nodes)
    mdl, log = counting(model)
    y = np.array([0.1, 0.25, 0.4, -0.3, 0.9])
    frozen_coeffs(mdl, y, np.full(5, 0.3))
    calls = Counter(name for name, _, _ in log)
    assert calls["sigma_S"] == calls["sigma1_S"] == nodes
    assert all(size == y.size for name, _, size in log if name.startswith("sigma"))


def test_step_weights_evaluate_each_callable_once_per_endpoint():
    mdl, log = counting(synthetic_model())
    n = 7
    rng = np.random.default_rng(3)
    step = make_step(mdl, np.full(n, 0.4), rng.uniform(0.0, 0.5, n),
                     rng.uniform(0.05, 0.5, n), rng.standard_normal(n),
                     rng.standard_normal(n))
    log.clear()
    step_weights(step, JumpSampler.exponential(2.0))
    per_point_set = Counter((name, id(y)) for name, y, _ in log)
    assert max(per_point_set.values()) == 1
    # two endpoint arrays: y_next and the flow endpoint m_i
    assert {id(y) for _, y, _ in log} == {id(step.y_next), id(step.fc.m_i)}
    assert all(size == n for _, _, size in log)


def test_each_active_path_is_weighted_exactly_once_per_step(monkeypatch):
    """On the sampled route, interval k of a path is weighted once: by
    ``step_weights`` when k < n_jumps, by ``terminal_weights`` when
    k == n_jumps.  Paths are told apart by their Gaussian draw ``z1``."""
    cfg = RunConfig(model=builtin("PeriodicCosine"), payoff=Payoff.call(1.5),
                    sampler=JumpSampler.exponential(4.0), s0=math.exp(0.4),
                    y0=0.2, T=0.5, n_paths=400, seed=2)
    ids = np.arange(cfg.n_paths, dtype=np.uint64)
    grid = philox_grid(cfg.sampler, cfg.T, cfg.seed, ids)
    owner, weighted = {}, []

    def normals(k, p):
        z1, z2 = normal_pair(cfg.seed, p, k)
        owner.update((z, (int(q), k)) for z, q in zip(z1.tolist(), p))
        return z1, z2

    def spy(kind, fn):
        def wrapped(rec, smp):
            for z in rec.z1.tolist():
                path, k = owner[z]
                assert k == rec.index
                weighted.append((path, k, kind))
            return fn(rec, smp)
        return wrapped

    monkeypatch.setattr(est, "step_weights", spy("interior", est.step_weights))
    monkeypatch.setattr(est, "terminal_weights", spy("final", est.terminal_weights))
    engine_weights(cfg, grid, normals, ids=ids)

    n_jumps = grid[1]
    assert n_jumps.max() >= 2
    assert len(owner) == int((n_jumps + 1).sum())  # every draw tells its path
    expected = [(p, k, "interior") for p in range(cfg.n_paths) for k in range(n_jumps[p])]
    expected += [(p, int(n_jumps[p]), "final") for p in range(cfg.n_paths)]
    assert sorted(weighted) == sorted(expected)
