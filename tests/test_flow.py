"""Drift flow, the quadrature rule, and interval-frozen coefficients."""

import dataclasses
import importlib
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from uvol.flow import (FrozenCoeffs, NonFiniteError, QuadratureError, flow,
                       flow_tangent, frozen_coeffs)
from uvol.model import Model

from helpers import (builtin, cubic_drift_model, quadrature_only, rel_err,
                     synthetic_model, unit_drift_model)

BS = builtin("BlackScholes")
STEIN = builtin("SteinSteinAffine")
COSINE = builtin("PeriodicCosine")
FLOW = importlib.import_module("uvol.flow")  # `uvol.flow` is the re-exported function


# ---------------------------------------------------------------- flow ---

def test_ou_flow_closed_form():
    # y0 = 0.2, delta = 0.5: mu + (y0 - mu) e^{-lambda delta}
    assert flow(BS, 0.2, 0.5) == pytest.approx(0.22211992169285952, rel=1e-15)
    m, j = flow_tangent(BS, 0.2, 0.5)
    assert m == pytest.approx(0.22211992169285952, rel=1e-15)
    assert j == pytest.approx(0.7788007830714049, rel=1e-15)
    assert j == pytest.approx(math.exp(-0.25), rel=1e-14)


def test_flow_at_zero_delta():
    assert flow(BS, 0.2, 0.0) == 0.2
    m, j = flow_tangent(synthetic_model(), 0.37, 0.0)
    assert (m, j) == (0.37, 1.0)


def test_flow_refuses_a_negative_time():
    with pytest.raises(ValueError, match="nonnegative"):
        flow_tangent(BS, 0.2, np.array([0.5, -1e-3]))


def test_flow_zero_mean_reversion():
    m = builtin("BlackScholes", lambda_y=0.0)
    assert flow(m, 0.2, 0.7) == 0.2
    assert flow_tangent(m, 0.2, 0.7)[1] == 1.0


def test_rk4_matches_closed_ou():
    """Strip the closed-form marker; the integrator must agree."""
    import dataclasses
    rk4 = dataclasses.replace(BS, ou_params=None)
    for delta in (0.05, 0.3, 0.5):
        assert flow(rk4, 0.2, delta) == pytest.approx(flow(BS, 0.2, delta),
                                                      abs=1e-10)
        assert flow_tangent(rk4, 0.2, delta)[1] == pytest.approx(
            flow_tangent(BS, 0.2, delta)[1], abs=1e-10)


def test_flow_semigroup_property():
    m = synthetic_model()
    via = flow(m, float(flow(m, 0.15, 0.3)), 0.2)
    direct = flow(m, 0.15, 0.5)
    assert via == pytest.approx(direct, abs=1e-9)


def test_flow_tangent_matches_finite_difference():
    m = synthetic_model()
    h = 1e-6
    for y, delta in [(0.1, 0.4), (0.35, 0.15), (-0.2, 0.6)]:
        num = (flow(m, y + h, delta) - flow(m, y - h, delta)) / (2 * h)
        assert flow_tangent(m, y, delta)[1] == pytest.approx(num, abs=1e-7)


def _fine_flow(model, y, delta, steps=4096):
    """Flow endpoint and tangent of one point by RK4 in ``steps`` equal steps."""
    def f(state):
        m, j = state
        return np.array([model.b_Y(m), model.b1_Y(m) * j])

    h = delta / steps
    state = np.array([y, 1.0])
    for _ in range(steps):
        k1 = f(state)
        k2 = f(state + 0.5 * h * k1)
        k3 = f(state + 0.5 * h * k2)
        k4 = f(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


@pytest.mark.parametrize("y, delta", [(3.0, 1.0), (1.5, 0.5)])
def test_flow_endpoint_matches_fine_reference_under_cubic_drift(y, delta):
    """Far from the mean the cubic drift is stiff; the endpoint and its
    tangent, from ``flow_tangent`` and from the walk of ``frozen_coeffs``,
    must still match a fine RK4 solution."""
    model = cubic_drift_model()
    ref_m, ref_j = _fine_flow(model, y, delta)
    fc = frozen_coeffs(model, y, delta)
    for m, j in (flow_tangent(model, y, delta), (fc.m_i, fc.m1_i)):
        assert abs(float(m) - ref_m) <= 1e-4
        assert abs(float(j) - ref_j) <= 1e-4


def test_flow_broadcasts():
    y = np.array([0.1, 0.2, 0.3])
    out = flow(BS, y, 0.5)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(0.22211992169285952, rel=1e-15)


# ---------------------------------------------- frozen-coefficient rule ---

def test_engine_rule_is_exact_to_degree_15():
    """Under a unit drift the flow from 0 is ``m_s = s``, so the engine's rule
    integrates ``s**k`` over ``[0, delta]``; 8 Gauss nodes are exact to 15."""
    degrees = range(2 * FLOW.NODES)
    assert max(degrees) == 15
    delta = np.array([0.05, 0.7, 2.0, 5.0])
    _, _, got = FLOW._flow_integrals(
        unit_drift_model(), np.zeros(delta.size), delta,
        [lambda c, j, k=k: c.y ** k for k in degrees])
    for k, value in zip(degrees, got):
        exact = delta ** (k + 1) / (k + 1)
        assert np.max(np.abs(value - exact) / exact) <= 1e-14, k


@pytest.mark.parametrize("delta, bound", [(0.25, 1e-9), (2.0, 1e-9), (5.0, 1e-6)])
@pytest.mark.parametrize("y", [-1.5, 0.2, 2.0])
def test_frozen_cosine_rule_accuracy(y, delta, bound):
    """The cosine integrals against adaptive quadrature, relative to
    ``delta`` times each integrand's largest size."""
    s1, s2, lam, mu, sy = 0.1, 0.15, 0.5, 0.3, 0.2
    fc = frozen_coeffs(COSINE, y, delta)
    m_s = lambda s: mu + (y - mu) * math.exp(-lam * s)
    sig = lambda s: s1 * math.cos(m_s(s)) + s2
    sig1 = lambda s: -s1 * math.sin(m_s(s)) * math.exp(-lam * s)
    cases = {
        "a_S_i": (lambda s: sig(s) ** 2, (s1 + s2) ** 2),
        "a1_S_i": (lambda s: 2.0 * sig(s) * sig1(s), 2.0 * (s1 + s2) * s1),
        "sigma_SY_i": (lambda s: sig(s) * sy, (s1 + s2) * sy),
        "sigma1_SY_i": (lambda s: sig1(s) * sy, s1 * sy),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for name, (g, scale) in cases.items():
            ref = quad(g, 0.0, delta, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
            err = abs(float(getattr(fc, name)) - ref) / (delta * scale)
            assert err <= bound, (name, err)


# ------------------------------------------------------- frozen_coeffs ---

def test_frozen_black_scholes_values():
    fc = frozen_coeffs(BS, 0.2, 0.5)
    assert fc.delta == 0.5
    assert fc.a_S_i == pytest.approx(0.03125, rel=1e-15)
    assert fc.sigma_S_i == pytest.approx(0.1767766952966369, rel=1e-15)
    assert fc.a_Y_i == pytest.approx(0.02, rel=1e-14)
    assert fc.sigma_Y_i == pytest.approx(0.14142135623730953, rel=1e-14)
    assert fc.sigma_SY_i == pytest.approx(0.025, rel=1e-15)
    assert fc.rho_i == pytest.approx(0.6, rel=1e-14)
    assert fc.m_i == pytest.approx(0.22211992169285952, rel=1e-15)
    assert fc.m1_i == pytest.approx(0.7788007830714049, rel=1e-15)
    # constant sigma_S: every sensitivity in y vanishes
    assert fc.a1_S_i == 0.0
    assert fc.sigma1_S_i == 0.0
    assert fc.rho1_i == pytest.approx(0.0, abs=1e-16)
    assert fc.a1_Y_i == 0.0


def test_frozen_zero_mean_reversion_limit():
    m = builtin("BlackScholes", lambda_y=0.0)
    fc = frozen_coeffs(m, 0.2, 0.4)
    assert fc.m_i == 0.2
    assert fc.m1_i == 1.0
    assert fc.a_S_i == pytest.approx(0.0625 * 0.4, rel=1e-14)
    assert fc.a_Y_i == pytest.approx(0.04 * 0.4, rel=1e-14)


def test_frozen_affine_closed_vs_quadrature():
    """The affine/OU closed forms against the generic quadrature route."""
    for y, delta in [(0.2, 0.25), (0.05, 0.5), (0.4, 0.1)]:
        closed = frozen_coeffs(STEIN, y, delta)
        numeric = frozen_coeffs(quadrature_only(STEIN), y, delta)
        for name in FrozenCoeffs.__dataclass_fields__:
            a = float(getattr(closed, name))
            b = float(getattr(numeric, name))
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a)), name


@pytest.mark.parametrize("lam", [0.5, -0.3, 1e-4, 1e-9, 1e-12, 1e-15, 0.0])
def test_frozen_affine_closed_form_holds_for_any_mean_reversion(lam):
    """The affine/OU closed forms against the quadrature route, for mean
    reversion of either sign, however small, and for none.  ``make_builtin``
    refuses ``lambda_y < 0``, so the OU drift is declared on a copy of the
    builtin.  At ``lam = 0`` the exact ``rho1_i`` is 0, hence the floor."""
    mu = 0.3
    model = dataclasses.replace(STEIN, b_Y=lambda y: lam * (mu - y),
                                b1_Y=lambda y: -lam + 0.0 * y, ou_params=(lam, mu))
    closed = frozen_coeffs(model, 0.5, 1.0)
    numeric = frozen_coeffs(quadrature_only(model), 0.5, 1.0)
    for name in FrozenCoeffs.__dataclass_fields__:
        a = float(getattr(closed, name))
        b = float(getattr(numeric, name))
        assert rel_err(a, b, floor=1e-3) <= 1e-12, (name, a, b)


def test_frozen_affine_against_scipy_quad():
    """Independent adaptive quadrature of the defining integrals."""
    y, delta = 0.2, 0.25
    lam, mu = 0.5, 0.3
    m_s = lambda s: mu + (y - mu) * math.exp(-lam * s)
    fc = frozen_coeffs(STEIN, y, delta)
    i_aS = quad(lambda s: STEIN.jet(m_s(s)).a_S, 0, delta,
                epsabs=1e-14, epsrel=1e-14)[0]
    i_a1S = quad(lambda s: STEIN.jet(m_s(s)).a1_S * math.exp(-lam * s), 0, delta,
                 epsabs=1e-14, epsrel=1e-14)[0]
    i_SY = quad(lambda s: STEIN.jet(m_s(s)).sigma_SY, 0, delta,
                epsabs=1e-14, epsrel=1e-14)[0]
    assert fc.a_S_i == pytest.approx(i_aS, rel=1e-12)
    assert fc.a1_S_i == pytest.approx(i_a1S, rel=1e-12)
    assert fc.sigma_SY_i == pytest.approx(i_SY, rel=1e-12)
    assert fc.sigma_S_i == pytest.approx(math.sqrt(i_aS), rel=1e-12)
    assert fc.rho_i == pytest.approx(
        0.6 * i_SY / (math.sqrt(i_aS) * fc.sigma_Y_i), rel=1e-12)


def test_frozen_cosine_against_scipy_quad():
    y, delta = 0.2, 0.25
    lam, mu = 0.5, 0.3
    m_s = lambda s: mu + (y - mu) * math.exp(-lam * s)
    fc = frozen_coeffs(COSINE, y, delta)
    i_aS = quad(lambda s: COSINE.jet(m_s(s)).a_S, 0, delta,
                epsabs=1e-14, epsrel=1e-14)[0]
    i_a1S = quad(lambda s: COSINE.jet(m_s(s)).a1_S * math.exp(-lam * s), 0, delta,
                 epsabs=1e-14, epsrel=1e-14)[0]
    assert fc.a_S_i == pytest.approx(i_aS, rel=1e-9)
    assert fc.a1_S_i == pytest.approx(i_a1S, rel=1e-9)


def test_frozen_synthetic_against_scipy_quad():
    """Full-quadrature route (non-constant sigma_Y, generic drift)."""
    m = synthetic_model()
    y, delta = 0.25, 0.3
    fc = frozen_coeffs(m, y, delta)
    m_s = lambda s: float(flow(m, y, s))
    i_aY = quad(lambda s: m.jet(m_s(s)).a_Y, 0, delta, epsabs=1e-13, epsrel=1e-13)[0]
    i_SY = quad(lambda s: m.jet(m_s(s)).sigma_SY, 0, delta,
                epsabs=1e-13, epsrel=1e-13)[0]
    assert fc.a_Y_i == pytest.approx(i_aY, rel=1e-8)
    assert fc.sigma_SY_i == pytest.approx(i_SY, rel=1e-8)


def test_frozen_derivative_fields_match_finite_differences():
    """The *1 fields are y-derivatives of the corresponding value fields."""
    m = synthetic_model()
    h = 1e-5
    for y, delta in [(0.2, 0.3), (0.4, 0.15)]:
        fc = frozen_coeffs(m, y, delta)
        up = frozen_coeffs(m, y + h, delta)
        dn = frozen_coeffs(m, y - h, delta)
        pairs = [
            ("a_S_i", "a1_S_i"), ("sigma_S_i", "sigma1_S_i"),
            ("a_Y_i", "a1_Y_i"), ("sigma_Y_i", "sigma1_Y_i"),
            ("sigma_SY_i", "sigma1_SY_i"), ("rho_i", "rho1_i"),
            ("m_i", "m1_i"),
        ]
        for value, deriv in pairs:
            num = (float(getattr(up, value)) - float(getattr(dn, value))) / (2 * h)
            ana = float(getattr(fc, deriv))
            assert abs(num - ana) <= 1e-5 * max(1.0, abs(ana)), (value, y, delta)


def test_frozen_batched_matches_scalar():
    y = np.array([0.1, 0.2, 0.35])
    delta = np.array([0.2, 0.5, 0.4])
    fc = frozen_coeffs(STEIN, y, delta)
    for k in range(3):
        one = frozen_coeffs(STEIN, float(y[k]), float(delta[k]))
        assert float(fc.a_S_i[k]) == pytest.approx(float(one.a_S_i), rel=1e-14)
        assert float(fc.rho1_i[k]) == pytest.approx(float(one.rho1_i), rel=1e-12)
        assert float(fc.m1_i[k]) == pytest.approx(float(one.m1_i), rel=1e-14)


def test_frozen_rejects_bad_delta():
    with pytest.raises(ValueError):
        frozen_coeffs(BS, 0.2, 0.0)
    with pytest.raises(ValueError):
        frozen_coeffs(BS, 0.2, -0.1)


def test_quadrature_error_on_degenerate_volatility():
    dead = Model(
        r=0.0,
        b_Y=lambda y: 0.0 * y, b1_Y=lambda y: 0.0 * y, b2_Y=lambda y: 0.0 * y,
        sigma_S=lambda y: 0.0 * y, sigma1_S=lambda y: 0.0 * y,
        sigma2_S=lambda y: 0.0 * y,
        sigma_Y=lambda y: 0.2 + 0.0 * y, sigma1_Y=lambda y: 0.0 * y,
        rho=0.0, kappa=1.0,
    )
    with pytest.raises(QuadratureError):
        frozen_coeffs(dead, 0.2, 0.5)


def test_quadrature_error_on_non_finite_integrand():
    import dataclasses
    bad = dataclasses.replace(synthetic_model(),
                              sigma_S=lambda y: np.inf + 0.0 * y)
    with pytest.raises((QuadratureError, NonFiniteError)):
        frozen_coeffs(bad, 0.2, 0.5)


def test_quadrature_accepts_callables_returning_constants():
    """A callable may ignore its array argument and return a float; every
    node must still be summed."""
    import dataclasses
    m = synthetic_model()
    const = dataclasses.replace(
        m, sigma_Y=lambda y: 0.2, sigma1_Y=lambda y: 0.0,
        sigma2_Y=lambda y: 0.0, sigma3_Y=lambda y: 0.0)
    flat = dataclasses.replace(
        m, sigma_Y=lambda y: 0.2 + 0.0 * y, sigma1_Y=lambda y: 0.0 * y,
        sigma2_Y=lambda y: 0.0 * y, sigma3_Y=lambda y: 0.0 * y)
    y = np.array([0.1, 0.3, 0.5])
    delta = np.array([0.2, 0.3, 0.4])
    got, want = frozen_coeffs(const, y, delta), frozen_coeffs(flat, y, delta)
    for name in FrozenCoeffs.__dataclass_fields__:
        assert np.asarray(getattr(got, name)) == pytest.approx(
            np.asarray(getattr(want, name)), rel=1e-14, abs=1e-300), name
    assert got.a_Y_i == pytest.approx(0.04 * delta, rel=1e-14)
