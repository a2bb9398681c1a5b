"""Model construction, the coefficient jet, and validation reports."""

import math

import numpy as np
import pytest

from uvol.model import (BuiltinModelKind, Model, ParameterError, make_builtin,
                        validate_model)

from helpers import builtin, synthetic_model


def test_black_scholes_coefficients():
    m = builtin("BlackScholes")
    assert m.sigma_S(0.7) == 0.25
    assert m.sigma1_S(0.7) == 0.0
    assert m.sigma2_S(-3.0) == 0.0
    assert m.sigma_Y(0.1) == 0.2
    assert m.b_Y(0.2) == pytest.approx(0.05, rel=1e-15)
    assert m.b1_Y(0.2) == -0.5
    assert m.b2_Y(11.0) == 0.0
    assert m.jet(0.3).a_S == pytest.approx(0.0625, rel=1e-15)
    assert m.jet(0.3).a1_S == 0.0
    assert m.rho == 0.6
    assert m.r == 0.03


def test_affine_coefficients():
    m = builtin("SteinSteinAffine")
    # sigma1 is the slope, sigma2 the intercept
    assert m.sigma_S(0.2) == pytest.approx(0.17, rel=1e-15)
    assert m.sigma1_S(5.0) == 0.1
    assert m.sigma2_S(0.2) == 0.0
    assert m.jet(0.2).a1_S == pytest.approx(2 * 0.17 * 0.1, rel=1e-14)
    assert m.jet(0.2).a2_S == pytest.approx(2 * 0.1 ** 2, rel=1e-14)


def test_cosine_coefficients():
    m = builtin("PeriodicCosine")
    assert m.sigma_S(0.0) == pytest.approx(0.25, rel=1e-15)
    assert m.sigma1_S(0.0) == 0.0
    assert m.sigma2_S(0.0) == pytest.approx(-0.1, rel=1e-15)
    y = 0.37
    assert m.sigma_S(y) == pytest.approx(0.1 * math.cos(y) + 0.15, rel=1e-15)
    assert m.sigma1_S(y) == pytest.approx(-0.1 * math.sin(y), rel=1e-15)
    # strictly positive everywhere because sigma2 > sigma1
    grid = np.linspace(-10, 10, 401)
    assert np.all(m.sigma_S(grid) > 0)


@pytest.mark.parametrize("maker", [
    lambda: builtin("BlackScholes"),
    lambda: builtin("SteinSteinAffine"),
    lambda: builtin("PeriodicCosine"),
    synthetic_model,
])
def test_variance_shorthands_match_finite_differences(maker):
    """a1 = (a)', a2 = (a1)', etc., checked against central differences."""
    m = maker()
    grid = np.linspace(-2.0, 2.0, 41)
    h = 1e-5
    pairs = [
        ("a_S", "a1_S"), ("a1_S", "a2_S"),
        ("a_Y", "a1_Y"), ("a1_Y", "a2_Y"), ("a2_Y", "a3_Y"),
        ("sigma_SY", "sigma1_SY"), ("sigma1_SY", "sigma2_SY"),
    ]
    up, dn, at = m.jet(grid + h), m.jet(grid - h), m.jet(grid)
    for f, df in pairs:
        num = (np.asarray(getattr(up, f), dtype=float)
               - np.asarray(getattr(dn, f), dtype=float)) / (2 * h)
        ana = np.asarray(getattr(at, df), dtype=float) + 0.0 * grid
        assert np.max(np.abs(num - ana)) < 1e-6


def test_shorthand_values_affine():
    """Closed-form spot-check of the composite shorthands."""
    m = builtin("SteinSteinAffine")
    y = 0.2
    s, s1 = 0.17, 0.1
    jet = m.jet(y)
    assert jet.sigma_SY == pytest.approx(0.2 * s, rel=1e-14)
    assert jet.sigma1_SY == pytest.approx(0.2 * s1, rel=1e-14)
    assert jet.a_Y == pytest.approx(0.04, rel=1e-14)
    assert jet.a1_Y == 0.0
    sy = synthetic_model()
    yv = 0.37
    sig, sig1, sig2 = (0.2 + 0.05 * math.sin(yv), 0.05 * math.cos(yv),
                       -0.05 * math.sin(yv))
    sig3 = -0.05 * math.cos(yv)
    assert sy.jet(yv).a3_Y == pytest.approx(2 * (3 * sig1 * sig2 + sig * sig3),
                                            rel=1e-13)


def test_default_kappa_black_scholes():
    m = builtin("BlackScholes")
    # 1.05 * max(sigma_S^2, sigma_Y^2, 1/sigma_S^2, 1/sigma_Y^2, 1) = 1.05/0.04
    assert m.kappa == pytest.approx(1.05 / 0.04, rel=1e-12)


@pytest.mark.parametrize("kind, message", [
    (BuiltinModelKind(tag="Garbage"), "unknown builtin tag"),
    (BuiltinModelKind(tag="BlackScholes", rho=1.2), "rho"),
    (BuiltinModelKind(tag="BlackScholes", rho=-1.0), "rho"),
    (BuiltinModelKind(tag="BlackScholes", sigma_y=0.0), "sigma_y"),
    (BuiltinModelKind(tag="BlackScholes", sigma_s=-0.1), "sigma_s"),
    (BuiltinModelKind(tag="BlackScholes", lambda_y=-0.5), "lambda_y"),
    (BuiltinModelKind(tag="BlackScholes", mu=float("nan")), "mu"),
    (BuiltinModelKind(tag="PeriodicCosine", sigma1=0.3, sigma2=0.2), "sigma2"),
    (BuiltinModelKind(tag="PeriodicCosine", sigma1=0.1, sigma2=0.1), "sigma2"),
])
def test_make_builtin_rejects_bad_parameters(kind, message):
    with pytest.raises(ParameterError, match=message):
        make_builtin(kind)


def test_model_rejects_bad_kappa():
    base = synthetic_model()
    import dataclasses
    with pytest.raises(ParameterError):
        dataclasses.replace(base, kappa=0.0)
    with pytest.raises(ParameterError):
        dataclasses.replace(base, rho=1.0)


def test_validate_clean_model():
    m = builtin("BlackScholes")
    rep = validate_model(m, np.linspace(-5, 5, 101))
    assert rep.ok
    assert rep.sigma_S_ok and rep.sigma_Y_ok and rep.derivatives_ok
    assert rep.sigma_S_sq_min == pytest.approx(0.0625, rel=1e-14)
    assert rep.sigma_S_sq_max == pytest.approx(0.0625, rel=1e-14)
    assert rep.deriv_max_rel_err < 1e-8
    assert rep.messages == ()


def test_validate_flags_tight_kappa():
    """kappa = 16.1 covers sigma_S^2 = 0.0625 but not sigma_Y^2 = 0.04."""
    m = builtin("BlackScholes", kappa=16.1)
    rep = validate_model(m, np.linspace(-1, 1, 11))
    assert rep.sigma_S_ok
    assert not rep.sigma_Y_ok
    assert not rep.ok
    assert any("sigma_Y" in msg for msg in rep.messages)


def test_validate_flags_degenerate_affine_volatility():
    """The affine sigma_S hits zero at y = -1.5; a wide grid catches it."""
    m = builtin("SteinSteinAffine")
    wide = validate_model(m, np.linspace(-5, 5, 201))
    assert not wide.sigma_S_ok
    assert not wide.ok
    narrow = validate_model(m, np.linspace(0.5, 1.5, 21))
    assert narrow.sigma_S_ok


def test_validate_flags_wrong_derivative_handle():
    m = synthetic_model()
    import dataclasses
    broken = dataclasses.replace(m, b1_Y=lambda y: -0.5 + 0.2 * np.sin(y))
    rep = validate_model(broken, np.linspace(-1, 1, 21))
    assert not rep.derivatives_ok
    assert rep.deriv_max_rel_err > 1e-3
    assert not rep.ok


def test_validate_synthetic_model_derivatives():
    rep = validate_model(synthetic_model(), np.linspace(-2, 2, 41))
    assert rep.derivatives_ok
    assert rep.deriv_max_rel_err < 1e-5
