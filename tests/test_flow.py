"""Drift flow, Simpson quadrature, and interval-frozen coefficients."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from uvol.flow import (FrozenCoeffs, NonFiniteError, QuadratureError, flow,
                       flow_tangent, frozen_coeffs, simpson38)
from uvol.model import Model

from helpers import builtin, synthetic_model

BS = builtin("BlackScholes")
STEIN = builtin("SteinSteinAffine")
COSINE = builtin("PeriodicCosine")


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


def test_flow_broadcasts():
    y = np.array([0.1, 0.2, 0.3])
    out = flow(BS, y, 0.5)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(0.22211992169285952, rel=1e-15)


# ------------------------------------------------------------ simpson38 ---

def test_simpson38_exact_on_cubics():
    g = lambda s: s ** 3 - 2 * s ** 2 + 3 * s - 1.0
    exact = 0.7 ** 4 / 4 - 2 * 0.7 ** 3 / 3 + 3 * 0.7 ** 2 / 2 - 0.7
    for panels in (1, 2, 8):
        assert abs(simpson38(g, 0.7, panels) - exact) <= 1e-12


def test_simpson38_sine():
    assert abs(simpson38(np.cos, 0.5) - math.sin(0.5)) < 5e-9


def test_simpson38_exponential():
    assert simpson38(math.exp, 1.0) == pytest.approx(math.e - 1.0, abs=1e-6)


def test_simpson38_rejects_bad_arguments():
    with pytest.raises(ValueError):
        simpson38(np.cos, -1.0)
    with pytest.raises(ValueError):
        simpson38(np.cos, 1.0, panels=0)


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
    """The affine/OU closed forms against the generic Simpson route."""
    for y, delta in [(0.2, 0.25), (0.05, 0.5), (0.4, 0.1)]:
        closed = frozen_coeffs(STEIN, y, delta)
        numeric = frozen_coeffs(STEIN, y, delta, method="quadrature")
        for name in FrozenCoeffs.__dataclass_fields__:
            a = float(getattr(closed, name))
            b = float(getattr(numeric, name))
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a)), name


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
    with pytest.raises(ValueError):
        frozen_coeffs(BS, 0.2, 0.5, method="simpson")


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
