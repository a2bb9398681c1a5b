"""Model coefficients for the 2-D stochastic volatility dynamics.

The engine prices European options under

    dS_t = r S_t dt + sigma_S(Y_t) S_t dW_t,
    dY_t = b_Y(Y_t) dt + sigma_Y(Y_t) dB_t,      d<W, B>_t = rho dt,

working on the log-spot X = ln S.  A :class:`Model` bundles the coefficient
callables together with the derivative handles the weight calculus consumes.
All callables must accept floats or numpy arrays elementwise.
:meth:`Model.jet` evaluates them at one point set, each at most once, along
with the derived variance shorthands (:class:`CoeffJet`).

Three builtin families are provided through :func:`make_builtin`:

``BlackScholes``
    constant ``sigma_S``; the variance process is decorative and every
    correction weight collapses to the pure drift term.
``SteinSteinAffine``
    ``sigma_S(y) = sigma1*y + sigma2``; frozen coefficients admit closed
    forms.
``PeriodicCosine``
    ``sigma_S(y) = sigma1*cos(y) + sigma2`` with ``sigma2 - sigma1 > 0`` so
    the volatility stays positive; frozen coefficients go through the
    Simpson rule.

All builtins use the mean-reverting drift ``b_Y(y) = lambda_Y*(mu - y)`` and
a constant ``sigma_Y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "ParameterError",
    "Model",
    "CoeffJet",
    "BuiltinModelKind",
    "ValidationReport",
    "make_builtin",
    "validate_model",
]


class ParameterError(ValueError):
    """Raised when model parameters are out of their admissible range."""


def _zero(y):
    return 0.0 * np.asarray(y, dtype=float)


@dataclass(frozen=True)
class Model:
    """Coefficient functions and derivative handles of the 2-D dynamics.

    Parameters
    ----------
    r : float
        Risk-free rate.
    b_Y, b1_Y, b2_Y : callable
        Drift of Y and its first two derivatives.
    sigma_S, sigma1_S, sigma2_S : callable
        Spot volatility as a function of Y and its first two derivatives.
    sigma_Y, sigma1_Y : callable
        Volatility of Y and its first derivative.
    rho : float
        Instantaneous correlation, ``|rho| < 1``.
    kappa : float
        Declared ellipticity constant: the model is claimed to satisfy
        ``1/kappa <= sigma**2 <= kappa`` for both volatilities on the
        region of interest.  Checked by :func:`validate_model`, never
        enforced at runtime.
    sigma2_Y, sigma3_Y : callable, optional
        Second and third derivatives of ``sigma_Y``.  They only enter the
        correction weights when ``sigma_Y`` is non-constant; the default
        zero handles are exact for every builtin.
    ou_params : (float, float), optional
        ``(lambda_Y, mu)`` when ``b_Y`` is the linear mean-reverting drift;
        enables the closed-form flow.
    sigma_S_form : tuple, optional
        ``("constant", s)`` or ``("affine", s1, s2)`` when ``sigma_S`` has
        one of the closed-form frozen-coefficient shapes.
    sigma_Y_const : float, optional
        Set when ``sigma_Y`` is constant; enables closed-form Y-integrals.
    """

    r: float
    b_Y: Callable
    b1_Y: Callable
    b2_Y: Callable
    sigma_S: Callable
    sigma1_S: Callable
    sigma2_S: Callable
    sigma_Y: Callable
    sigma1_Y: Callable
    rho: float
    kappa: float
    sigma2_Y: Callable = field(default=_zero)
    sigma3_Y: Callable = field(default=_zero)
    ou_params: Optional[tuple] = None
    sigma_S_form: Optional[tuple] = None
    sigma_Y_const: Optional[float] = None

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ParameterError(f"rho must lie in (-1, 1), got {self.rho}")
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ParameterError(f"kappa must be positive and finite, got {self.kappa}")
        if not math.isfinite(self.r):
            raise ParameterError(f"r must be finite, got {self.r}")

    def jet(self, y) -> "CoeffJet":
        """The coefficients at the point set ``y``; see :class:`CoeffJet`."""
        return CoeffJet(self, y)


class _Once:
    """Attribute computed on first access, then stored on the instance.

    A non-data descriptor, so the stored value shadows it and later reads
    are plain attribute lookups.  ``functools.cached_property`` does the
    same but, before Python 3.12, takes a lock shared by all instances on
    every first access, which chunk worker threads would contend for.
    """

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def _field(name):
    return _Once(lambda jet: getattr(jet.model, name)(jet.y))


class CoeffJet:
    """Coefficients of a :class:`Model` and their derivatives at one point set.

    Every attribute is computed on first access and cached, so each of the
    model's callables runs at most once per point set however many formulas
    read it.  The callables are looked up on the model at that moment, so a
    model rebuilt with ``dataclasses.replace`` is honoured.

    Besides the model's own fields (``b_Y`` ... ``b2_Y``, ``sigma_S`` ...
    ``sigma3_Y``) the jet carries the variance shorthands of the
    frozen-coefficient and weight calculus, ``a = sigma^2``,
    ``a' = 2 sigma sigma'``, ``a'' = 2 (sigma'^2 + sigma sigma'')`` and
    ``a''' = 2 (3 sigma' sigma'' + sigma sigma''')``, and the covariance
    product ``sigma_SY = sigma_S sigma_Y`` with its first two derivatives.
    """

    def __init__(self, model: Model, y):
        self.model = model
        self.y = y

    b_Y = _field("b_Y")
    b1_Y = _field("b1_Y")
    b2_Y = _field("b2_Y")
    sigma_S = _field("sigma_S")
    sigma1_S = _field("sigma1_S")
    sigma2_S = _field("sigma2_S")
    sigma_Y = _field("sigma_Y")
    sigma1_Y = _field("sigma1_Y")
    sigma2_Y = _field("sigma2_Y")
    sigma3_Y = _field("sigma3_Y")

    @_Once
    def a_S(self):
        return self.sigma_S ** 2

    @_Once
    def a1_S(self):
        return 2.0 * self.sigma_S * self.sigma1_S

    @_Once
    def a2_S(self):
        return 2.0 * (self.sigma1_S ** 2 + self.sigma_S * self.sigma2_S)

    @_Once
    def a_Y(self):
        return self.sigma_Y ** 2

    @_Once
    def a1_Y(self):
        return 2.0 * self.sigma_Y * self.sigma1_Y

    @_Once
    def a2_Y(self):
        return 2.0 * (self.sigma1_Y ** 2 + self.sigma_Y * self.sigma2_Y)

    @_Once
    def a3_Y(self):
        return 2.0 * (3.0 * self.sigma1_Y * self.sigma2_Y + self.sigma_Y * self.sigma3_Y)

    @_Once
    def sigma_SY(self):
        return self.sigma_S * self.sigma_Y

    @_Once
    def sigma1_SY(self):
        return self.sigma1_S * self.sigma_Y + self.sigma_S * self.sigma1_Y

    @_Once
    def sigma2_SY(self):
        return (self.sigma2_S * self.sigma_Y
                + 2.0 * self.sigma1_S * self.sigma1_Y
                + self.sigma_S * self.sigma2_Y)


@dataclass(frozen=True)
class BuiltinModelKind:
    """Declarative description of a builtin model.

    Parameters
    ----------
    tag : str
        One of ``"BlackScholes"``, ``"SteinSteinAffine"``, ``"PeriodicCosine"``.
    sigma_s : float
        Constant spot volatility (BlackScholes only).
    sigma1, sigma2 : float
        Shape parameters of the affine/cosine volatility.
    lambda_y, mu : float
        Mean-reversion speed and level of the Y drift.
    sigma_y : float
        Constant volatility of Y.
    rho : float
        Correlation.
    r : float
        Risk-free rate.
    kappa : float, optional
        Ellipticity constant; derived from the coefficient ranges when
        omitted.
    """

    tag: str
    sigma_s: float = 0.25
    sigma1: float = 0.1
    sigma2: float = 0.15
    lambda_y: float = 0.5
    mu: float = 0.3
    sigma_y: float = 0.2
    rho: float = 0.6
    r: float = 0.03
    kappa: Optional[float] = None


_TAGS = ("BlackScholes", "SteinSteinAffine", "PeriodicCosine")


def _default_kappa(upper_vars: Sequence[float], lower_vars: Sequence[float]) -> float:
    """Smallest constant covering the given variance bounds, with headroom."""
    bounds = [v for v in upper_vars if v > 0]
    bounds += [1.0 / v for v in lower_vars if v > 0]
    return 1.05 * max(bounds + [1.0])


def make_builtin(kind: BuiltinModelKind) -> Model:
    """Construct a :class:`Model` from a builtin description.

    Parameters
    ----------
    kind : BuiltinModelKind

    Returns
    -------
    Model

    Raises
    ------
    ParameterError
        If the tag is unknown, ``|rho| >= 1``, a scale parameter is not
        finite, ``sigma_s <= 0`` (BlackScholes), ``lambda_y < 0``,
        ``sigma_y <= 0``, or ``sigma2 - sigma1 <= 0`` for PeriodicCosine.
    """
    if kind.tag not in _TAGS:
        raise ParameterError(f"unknown builtin tag {kind.tag!r}; expected one of {_TAGS}")
    for name in ("sigma_s", "sigma1", "sigma2", "lambda_y", "mu", "sigma_y", "rho", "r"):
        if not math.isfinite(getattr(kind, name)):
            raise ParameterError(f"{name} must be finite, got {getattr(kind, name)!r}")
    if not -1.0 < kind.rho < 1.0:
        raise ParameterError(f"rho must lie in (-1, 1), got {kind.rho}")
    if kind.sigma_y <= 0:
        raise ParameterError(f"sigma_y must be positive, got {kind.sigma_y}")
    if kind.lambda_y < 0:
        raise ParameterError(f"lambda_y must be nonnegative, got {kind.lambda_y}")

    lam, mu, sy = kind.lambda_y, kind.mu, kind.sigma_y

    def b_Y(y):
        return lam * (mu - y)

    def b1_Y(y):
        return -lam + _zero(y)

    b2_Y = _zero

    def sigma_Y(y):
        return sy + _zero(y)

    sigma1_Y = _zero

    if kind.tag == "BlackScholes":
        s = kind.sigma_s
        if s <= 0:
            raise ParameterError(f"sigma_s must be positive, got {s}")

        def sigma_S(y):
            return s + _zero(y)

        sigma1_S = _zero
        sigma2_S = _zero
        form = ("constant", s)
        kappa = kind.kappa
        if kappa is None:
            kappa = _default_kappa([s * s, sy * sy], [s * s, sy * sy])
    elif kind.tag == "SteinSteinAffine":
        s1, s2 = kind.sigma1, kind.sigma2

        def sigma_S(y):
            return s1 * y + s2

        def sigma1_S(y):
            return s1 + _zero(y)

        sigma2_S = _zero
        form = ("affine", s1, s2)
        kappa = kind.kappa
        if kappa is None:
            # affine sigma_S vanishes somewhere on the line, so only upper
            # bounds (taken on |y - mu| <= 2) can inform the constant;
            # validation on wide grids is expected to warn.
            hi = max(abs(s1 * (mu - 2) + s2), abs(s1 * (mu + 2) + s2)) ** 2
            kappa = _default_kappa([hi, sy * sy], [sy * sy])
    else:  # PeriodicCosine
        s1, s2 = kind.sigma1, kind.sigma2
        if s2 - s1 <= 0:
            raise ParameterError(
                f"PeriodicCosine needs sigma2 - sigma1 > 0, got {s2} - {s1} = {s2 - s1}")

        def sigma_S(y):
            return s1 * np.cos(y) + s2

        def sigma1_S(y):
            return -s1 * np.sin(y)

        def sigma2_S(y):
            return -s1 * np.cos(y)

        form = None
        kappa = kind.kappa
        if kappa is None:
            lo, hi = (s2 - abs(s1)) ** 2, (s2 + abs(s1)) ** 2
            kappa = _default_kappa([hi, sy * sy], [lo, sy * sy])

    return Model(
        r=kind.r,
        b_Y=b_Y, b1_Y=b1_Y, b2_Y=b2_Y,
        sigma_S=sigma_S, sigma1_S=sigma1_S, sigma2_S=sigma2_S,
        sigma_Y=sigma_Y, sigma1_Y=sigma1_Y,
        rho=kind.rho, kappa=kappa,
        ou_params=(lam, mu),
        sigma_S_form=form,
        sigma_Y_const=sy,
    )


@dataclass(frozen=True)
class ValidationReport:
    """Advisory health report for a model on a grid of Y values.

    Attributes
    ----------
    sigma_S_sq_min, sigma_S_sq_max : float
        Range of ``sigma_S**2`` over the grid.
    sigma_Y_sq_min, sigma_Y_sq_max : float
        Range of ``sigma_Y**2`` over the grid.
    sigma_S_ok, sigma_Y_ok : bool
        Whether ``1/kappa <= sigma**2 <= kappa`` holds on the grid.
    deriv_max_rel_err : float
        Worst relative mismatch between the declared derivative handles and
        central finite differences of the underlying functions.
    derivatives_ok : bool
        ``deriv_max_rel_err <= 1e-5``.
    ok : bool
        Conjunction of all flags.
    messages : tuple of str
        Human-readable notes for each failed check.
    """

    sigma_S_sq_min: float
    sigma_S_sq_max: float
    sigma_Y_sq_min: float
    sigma_Y_sq_max: float
    sigma_S_ok: bool
    sigma_Y_ok: bool
    deriv_max_rel_err: float
    derivatives_ok: bool
    ok: bool
    messages: tuple


def _fd_rel_err(f, df, y, h):
    num = (np.asarray(f(y + h), dtype=float) - np.asarray(f(y - h), dtype=float)) / (2 * h)
    ana = np.asarray(df(y), dtype=float) + _zero(y)
    scale = np.maximum(np.abs(ana), 1.0)
    return float(np.max(np.abs(num - ana) / scale))


def validate_model(m: Model, grid) -> ValidationReport:
    """Check ellipticity bounds and derivative consistency on a grid.

    Purely advisory: reports are returned, never raised, no matter how the
    checks come out.

    Parameters
    ----------
    m : Model
    grid : array_like
        Y values to scan.

    Returns
    -------
    ValidationReport
    """
    y = np.asarray(grid, dtype=float)
    jet = m.jet(y)
    aS = np.asarray(jet.a_S, dtype=float) + _zero(y)
    aY = np.asarray(jet.a_Y, dtype=float) + _zero(y)
    lo, hi = 1.0 / m.kappa, m.kappa
    msgs = []

    s_ok = bool(np.all(aS >= lo) and np.all(aS <= hi))
    if not s_ok:
        msgs.append(
            f"sigma_S**2 range [{aS.min():.6g}, {aS.max():.6g}] leaves "
            f"[1/kappa, kappa] = [{lo:.6g}, {hi:.6g}]")
    y_ok = bool(np.all(aY >= lo) and np.all(aY <= hi))
    if not y_ok:
        msgs.append(
            f"sigma_Y**2 range [{aY.min():.6g}, {aY.max():.6g}] leaves "
            f"[1/kappa, kappa] = [{lo:.6g}, {hi:.6g}]")

    h = 1e-5
    err = max(
        _fd_rel_err(m.sigma_S, m.sigma1_S, y, h),
        _fd_rel_err(m.sigma1_S, m.sigma2_S, y, h),
        _fd_rel_err(m.b_Y, m.b1_Y, y, h),
        _fd_rel_err(m.b1_Y, m.b2_Y, y, h),
        _fd_rel_err(m.sigma_Y, m.sigma1_Y, y, h),
    )
    d_ok = err <= 1e-5
    if not d_ok:
        msgs.append(f"derivative handles disagree with finite differences (rel err {err:.3g})")

    return ValidationReport(
        sigma_S_sq_min=float(aS.min()), sigma_S_sq_max=float(aS.max()),
        sigma_Y_sq_min=float(aY.min()), sigma_Y_sq_max=float(aY.max()),
        sigma_S_ok=s_ok, sigma_Y_ok=y_ok,
        deriv_max_rel_err=err, derivatives_ok=d_ok,
        ok=s_ok and y_ok and d_ok,
        messages=tuple(msgs),
    )
