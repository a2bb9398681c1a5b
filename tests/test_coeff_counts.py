"""How often the engine evaluates model coefficients, and on which paths.

The model's callables are wrapped so that every call records its field
name, its argument and the argument's size.  The counts pin down the work
the coefficient jet saves: one evaluation per Simpson node in the
quadrature, one per endpoint array in the step weights, and weights only
for the paths a step needs them for.
"""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import uvol.estimators as est
from helpers import builtin, make_step, synthetic_model
from uvol.estimators import Payoff, RunConfig, estimate_vega
from uvol.flow import frozen_coeffs
from uvol.renewal import JumpSampler
from uvol.weights import step_weights

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


@pytest.mark.parametrize("model, method", [
    (builtin("PeriodicCosine"), "auto"),
    (builtin("SteinSteinAffine"), "quadrature"),
    (synthetic_model(), "auto"),
])
@pytest.mark.parametrize("panels", [1, 8])
def test_quadrature_evaluates_sigma_S_once_per_node(model, method, panels):
    mdl, log = counting(model)
    y = np.array([0.1, 0.25, 0.4, -0.3, 0.9])
    frozen_coeffs(mdl, y, np.full(5, 0.3), panels=panels, method=method)
    calls = Counter(name for name, _, _ in log)
    assert calls["sigma_S"] == calls["sigma1_S"] == 3 * panels + 1
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
    """Interior steps get ``step_weights``, final ones ``terminal_weights``;
    together they cover the paths ``chain_step`` advanced, each once.  Paths
    are told apart by their Gaussian draw ``z1``."""
    advanced, weighted = [], {}
    real_chain_step = est.chain_step

    def chain_step(mdl, x, y, fc, z1, z2):
        advanced.append(np.array(z1))
        return real_chain_step(mdl, x, y, fc, z1, z2)

    def spy(kind, fn):
        def wrapped(rec, smp):
            weighted.setdefault(rec.index, []).append((kind, np.array(rec.z1)))
            return fn(rec, smp)
        return wrapped

    monkeypatch.setattr(est, "chain_step", chain_step)
    monkeypatch.setattr(est, "step_weights", spy("interior", est.step_weights))
    monkeypatch.setattr(est, "terminal_weights", spy("final", est.terminal_weights))
    cfg = RunConfig(model=builtin("PeriodicCosine"), payoff=Payoff.call(1.5),
                    sampler=JumpSampler.exponential(4.0), s0=math.exp(0.4),
                    y0=0.2, T=0.5, n_paths=400, seed=2)
    estimate_vega(cfg)

    assert len(advanced) >= 3
    assert sorted(weighted) == list(range(len(advanced)))
    for k, z1 in enumerate(advanced):
        seen = np.concatenate([z for _, z in weighted[k]])
        assert np.array_equal(np.sort(seen), np.sort(z1))
    # step 0 has both kinds, the last step only final intervals
    assert {kind for kind, _ in weighted[0]} == {"interior", "final"}
    assert {kind for kind, _ in weighted[len(advanced) - 1]} == {"final"}
