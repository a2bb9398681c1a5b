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
from helpers import (builtin, make_step, path_weights, philox_gaps, philox_grid,
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


def test_flow_walk_supplies_nodes_and_endpoint():
    """On the RK4 route one walk gives the Gauss nodes and, one leg on, the
    flow endpoint: 50 substeps of at most delta/48 to the last node and one
    more to delta, 4 stages each; the sigma callables run once per node."""
    mdl, log = counting(synthetic_model())
    frozen_coeffs(mdl, np.array([0.25, -0.4, 1.1]), np.array([0.3, 0.05, 0.8]))
    assert Counter(name for name, _, _ in log) == {
        "b_Y": 51 * 4, "b1_Y": 51 * 4,
        "sigma_S": 8, "sigma1_S": 8, "sigma_Y": 8, "sigma1_Y": 8}


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


# The callables step_weights runs on one batch, per builtin: none whose
# terms the declarations zero (uvol.model.Model.vanishing).  A constant
# sigma_Y and an OU drift leave no sigma1_Y, sigma2_Y, sigma3_Y or b2_Y; an
# affine sigma_S no sigma2_S; Black-Scholes, with a constant sigma_S too,
# only the drift, whose b1_Y is needed at y_next alone.  Stripped of the
# sigma declarations, every model runs all of them but b2_Y.
EVERY = {"b_Y": 2, "b1_Y": 2, "sigma_S": 2, "sigma1_S": 2, "sigma2_S": 1,
         "sigma_Y": 2, "sigma1_Y": 2, "sigma2_Y": 1, "sigma3_Y": 1}
STEP_CALLS = {
    "BlackScholes": {"b_Y": 2, "b1_Y": 1},
    "SteinSteinAffine": {"b_Y": 2, "b1_Y": 2, "sigma_S": 2, "sigma1_S": 2, "sigma_Y": 2},
    "PeriodicCosine": {"b_Y": 2, "b1_Y": 2, "sigma_S": 2, "sigma1_S": 2, "sigma2_S": 1,
                       "sigma_Y": 2},
}


@pytest.mark.parametrize("tag", sorted(STEP_CALLS))
@pytest.mark.parametrize("declared", [True, False], ids=["declared", "stripped"])
def test_step_weights_run_only_the_callables_left_nonzero(tag, declared):
    model = builtin(tag)
    mdl, log = counting(model if declared else quadrature_only(model))
    n = 6
    rng = np.random.default_rng(5)
    step = make_step(mdl, np.zeros(n), rng.uniform(0.0, 0.5, n),
                     rng.uniform(0.05, 0.5, n), rng.standard_normal(n),
                     rng.standard_normal(n))
    log.clear()
    step_weights(step, JumpSampler.exponential(2.0))
    assert Counter(name for name, _, _ in log) == (STEP_CALLS[tag] if declared else EVERY)


def test_each_active_path_is_weighted_exactly_once_per_step(monkeypatch):
    """On the sampled route, interval k of a path is weighted once: by
    ``step_weights`` when k < n_jumps, by ``terminal_weights`` when
    k == n_jumps.  Paths are told apart by their Gaussian draw ``z1``."""
    cfg = RunConfig(model=builtin("PeriodicCosine"), payoff=Payoff.call(1.5),
                    sampler=JumpSampler.exponential(4.0), s0=math.exp(0.4),
                    y0=0.2, T=0.5, n_paths=400, seed=2)
    ids = np.arange(cfg.n_paths, dtype=np.uint64)
    grid = philox_grid(cfg.sampler, cfg.T, cfg.seed, ids)
    owner, drawn, weighted = {}, [], []

    def normals(k, p):
        z1, z2 = normal_pair(cfg.seed, p, k)
        assert k.shape == p.shape
        pairs = list(zip(p.tolist(), k.tolist()))
        drawn.extend(pairs)
        owner.update(zip(z1.tolist(), pairs))
        return z1, z2

    def spy(kind, fn):
        def wrapped(rec, smp):
            assert rec.index.shape == rec.z1.shape
            for z, k in zip(rec.z1.tolist(), rec.index.tolist()):
                path, drawn_k = owner[z]
                assert drawn_k == k
                weighted.append((path, k, kind))
            return fn(rec, smp)
        return wrapped

    monkeypatch.setattr(est, "step_weights", spy("interior", est.step_weights))
    monkeypatch.setattr(est, "terminal_weights", spy("final", est.terminal_weights))
    path_weights(cfg, philox_gaps(cfg.sampler, cfg.seed, ids), normals)

    n_jumps = grid[1]
    assert n_jumps.max() >= 2
    assert len(owner) == int((n_jumps + 1).sum())  # every draw tells its path
    expected = [(p, k, "interior") for p in range(cfg.n_paths) for k in range(n_jumps[p])]
    expected += [(p, int(n_jumps[p]), "final") for p in range(cfg.n_paths)]
    assert sorted(drawn) == sorted((p, k) for p, k, _ in expected)
    assert sorted(weighted) == sorted(expected)
