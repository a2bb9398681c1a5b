"""The terms a model's declarations make identically zero.

``Model.vanishing`` derives, from ``ou_params``, ``sigma_S_affine`` and
``sigma_Y_const``, the coefficient fields that are identically zero, and
``step_weights``, ``terminal_weights`` and ``frozen_coeffs`` skip every
term with such a factor.  Adding an exact zero is exact, so the skipping
formulas must agree with the full ones, which a model stripped of its
declarations runs, on every field and every point.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import builtin, make_step, synthetic_model
from uvol.model import ZERO
from uvol.renewal import JumpSampler
from uvol.weights import FoldWeights, StepWeights, step_weights, terminal_weights

EXPO = JumpSampler.exponential(0.5)
TAGS = ("BlackScholes", "SteinSteinAffine", "PeriodicCosine")
DECLARATIONS = ("ou_params", "sigma_S_affine", "sigma_Y_const")
# every nonempty subset of the declarations, to strip from a builtin
SUBSETS = [c for k in (1, 2, 3) for c in itertools.combinations(DECLARATIONS, k)]


def test_vanishing_follows_the_declarations():
    y_flat = {"sigma1_Y", "sigma2_Y", "sigma3_Y", "a1_Y", "a2_Y", "a3_Y"}
    assert builtin("BlackScholes").vanishing == y_flat | {
        "b2_Y", "sigma2_S", "sigma1_S", "a1_S", "sigma1_SY", "sigma2_SY"}
    assert builtin("SteinSteinAffine").vanishing == y_flat | {"b2_Y", "sigma2_S",
                                                              "sigma2_SY"}
    assert builtin("PeriodicCosine").vanishing == y_flat | {"b2_Y"}
    assert synthetic_model().vanishing == frozenset()
    bare = dataclasses.replace(builtin("BlackScholes"), **dict.fromkeys(DECLARATIONS))
    assert bare.vanishing == frozenset()


def test_zero_is_skipped_by_arithmetic():
    a = np.array([1.5, -2.0])
    assert a * ZERO is ZERO and ZERO * a is ZERO and 2.0 * ZERO is ZERO
    assert ZERO / a is ZERO and -ZERO is ZERO and ZERO ** 2 is ZERO
    assert a + ZERO is a and ZERO + a is a and a - ZERO is a
    assert np.array_equal(ZERO - a, -a)
    with pytest.raises(TypeError):
        a / ZERO


def test_vanishing_jet_fields_run_no_callable():
    called = []

    def spy(name, fn):
        def wrapped(y):
            called.append(name)
            return fn(y)
        return wrapped

    bs = builtin("BlackScholes")
    fields = ("b2_Y", "sigma1_S", "sigma2_S", "sigma1_Y", "sigma2_Y", "sigma3_Y")
    spied = dataclasses.replace(bs, **{f: spy(f, getattr(bs, f)) for f in fields})
    jet = spied.jet(np.linspace(-1.0, 1.0, 5), vanish=True)
    for name in sorted(spied.vanishing):
        assert getattr(jet, name) is ZERO, name
    assert called == []
    # a plain jet still computes every field
    assert spied.jet(0.3).a1_S == 0.0 and "sigma1_S" in called


def _same(a, b, shape):
    return np.array_equal(np.broadcast_to(a, shape), np.broadcast_to(b, shape))


def _full(step, stripped):
    """``step`` with its model stripped of the declarations ``stripped``;
    its frozen coefficients stay those of the declared model."""
    return dataclasses.replace(
        step, model=dataclasses.replace(step.model, **dict.fromkeys(stripped)))


points = st.tuples(
    st.floats(-30.0, 30.0),                          # y_prev, also far from mu
    st.floats(1e-12, 2.0).filter(lambda d: d > 0),   # delta, down to tiny
    st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))      # z1, z2


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tag=st.sampled_from(TAGS), stripped=st.sampled_from(SUBSETS),
       block=st.lists(points, min_size=1, max_size=8))
def test_skipping_agrees_with_the_full_formulas(tag, stripped, block):
    y, delta, z1, z2 = (np.array(c) for c in zip(*block))
    step = make_step(builtin(tag), np.zeros(y.size), y, delta, z1, z2)
    full = _full(step, stripped)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        fast, slow = step_weights(step, EXPO), step_weights(full, EXPO)
        fast_t, slow_t = terminal_weights(step, EXPO), terminal_weights(full, EXPO)
    for f in dataclasses.fields(StepWeights):
        assert _same(getattr(fast, f.name), getattr(slow, f.name), y.shape), f.name
    for f in dataclasses.fields(FoldWeights):
        assert _same(getattr(fast_t, f.name), getattr(slow_t, f.name), y.shape), f.name


def test_constant_sigma_S_leaves_only_the_drift_terms():
    """Black-Scholes: theta_c, theta_eX and I1_theta_eX are exactly 0.0,
    and theta_eY is m1 theta, bit for bit."""
    rng = np.random.default_rng(11)
    n = 50
    step = make_step(builtin("BlackScholes"), np.zeros(n), rng.uniform(-1, 1, n),
                     rng.uniform(0.01, 0.5, n), rng.standard_normal(n),
                     rng.standard_normal(n))
    sw = step_weights(step, EXPO)
    for name in ("theta_c", "theta_eX", "I1_theta_eX", "c_S", "c_Y", "c_YS",
                 "D2prev_theta"):
        value = getattr(sw, name)
        assert isinstance(value, float) and value == 0.0, name
    assert np.array_equal(sw.theta_eY, step.fc.m1_i * sw.theta)


@pytest.mark.parametrize("tag", TAGS)
def test_closed_route_zeros_hold_one_value_per_point(tag):
    model = builtin(tag)
    y = np.linspace(-1.0, 1.0, 7)
    fc = make_step(model, np.zeros(7), y, np.full(7, 0.3), np.zeros(7), np.zeros(7)).fc
    for name in ("a1_S_i", "sigma1_S_i", "a1_Y_i", "sigma1_Y_i", "sigma1_SY_i", "rho1_i"):
        value = getattr(fc, name)
        assert np.shape(value) == y.shape, name
    assert not np.any(fc.a1_Y_i) and not fc.a1_Y_i.flags.writeable
    if tag == "BlackScholes":
        assert not np.any(fc.rho1_i) and not np.any(fc.sigma1_S_i)
    scalar = make_step(model, 0.0, 0.2, 0.3, 0.0, 0.0).fc
    assert math.copysign(1.0, scalar.a1_Y_i) == 1.0 and np.shape(scalar.a1_Y_i) == ()
