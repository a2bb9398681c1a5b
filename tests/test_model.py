"""Model construction, the coefficient jet, and validation reports."""

import dataclasses
import math

import numpy as np
import pytest

from uvol.flow import FrozenCoeffs, frozen_coeffs
from uvol.model import (BuiltinModelKind, CoeffJet, Model, ParameterError,
                        make_builtin, validate_model)

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
        ("a_S", "a1_S"),
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


def test_black_scholes_is_the_flat_affine_model():
    bs = make_builtin(BuiltinModelKind(tag="BlackScholes", sigma_s=0.1))
    flat = make_builtin(BuiltinModelKind(tag="SteinSteinAffine", sigma1=0.0,
                                         sigma2=0.1))
    assert bs.sigma_S_affine == flat.sigma_S_affine == (0.0, 0.1)
    y = np.linspace(-3.0, 3.0, 13)
    fields = [k for k, v in vars(CoeffJet).items() if hasattr(v, "fn")]
    assert len(fields) == 19
    jb, jf = bs.jet(y), flat.jet(y)
    for name in fields:
        assert np.array_equal(getattr(jb, name), getattr(jf, name)), name
    delta = np.linspace(0.05, 0.6, y.size)
    fb, ff = frozen_coeffs(bs, y, delta), frozen_coeffs(flat, y, delta)
    for name in FrozenCoeffs.__dataclass_fields__:
        assert np.array_equal(getattr(fb, name), getattr(ff, name)), name
    # each keeps its own default kappa: Black-Scholes also bounds sigma_S^2
    # from below, 1.05 / 0.1^2; the affine rule only sees 1.05 / sigma_Y^2
    assert bs.kappa == pytest.approx(1.05 / 0.01, rel=1e-12)
    assert flat.kappa == pytest.approx(1.05 / 0.04, rel=1e-12)


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
    with pytest.raises(ParameterError, match="r must be finite"):
        dataclasses.replace(base, r=math.nan)


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


@pytest.mark.parametrize("handle", ["sigma2_Y", "sigma3_Y"])
def test_validate_flags_wrong_higher_sigma_Y_handle(handle):
    # the step weights read both through a2_Y, a3_Y and sigma2_SY
    broken = dataclasses.replace(synthetic_model(), **{handle: lambda y: 5.0 + 0.0 * y})
    rep = validate_model(broken, np.linspace(-1, 1, 21))
    assert not rep.derivatives_ok
    assert not rep.ok


def test_validate_synthetic_model_derivatives():
    rep = validate_model(synthetic_model(), np.linspace(-2, 2, 41))
    assert rep.derivatives_ok
    assert rep.deriv_max_rel_err < 1e-5


@pytest.mark.parametrize("tag", ["BlackScholes", "SteinSteinAffine", "PeriodicCosine"])
def test_validate_builtins_keep_their_declarations(tag):
    rep = validate_model(builtin(tag), np.linspace(-3, 3, 61))
    assert rep.declarations_ok
    assert not any("declarations" in msg for msg in rep.messages)


@pytest.mark.parametrize("declared, culprit", [
    # sigma_Y_const over a sigma_Y that varies, with nonzero derivatives
    (dict(sigma_Y_const=0.2, ou_params=(0.5, 0.3)), "sigma_Y"),
    # an OU drift declared with the wrong speed
    (dict(ou_params=(0.7, 0.3)), "b_Y"),
    # a constant sigma_S declared over an affine one
    (dict(sigma_S_affine=(0.0, 0.15)), "sigma_S"),
])
def test_validate_flags_contradicted_declarations(declared, culprit):
    base = synthetic_model() if "sigma_Y_const" in declared else builtin("SteinSteinAffine")
    rep = validate_model(dataclasses.replace(base, **declared), np.linspace(-1, 1, 21))
    assert rep.derivatives_ok
    assert not rep.declarations_ok
    assert not rep.ok
    msg, = (m for m in rep.messages if "declarations" in m)
    assert culprit in msg


def test_validate_names_each_declared_zero_that_is_not():
    # sigma_Y is constant, but its declared-zero derivatives are not 0
    m = dataclasses.replace(builtin("BlackScholes"), sigma2_Y=lambda y: 1e-3 + 0.0 * y)
    rep = validate_model(m, np.linspace(-1, 1, 5))
    assert not rep.declarations_ok and not rep.ok
    assert any("sigma2_Y (declared zero)" in msg for msg in rep.messages)
