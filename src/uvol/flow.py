"""Deterministic variance flow and interval-frozen coefficients.

Between two grid times the variance factor is approximated by the noiseless
flow ``dm_s/ds = b_Y(m_s)``, ``m_0 = y``.  Freezing an interval of length
``delta`` at its left endpoint produces time-averaged coefficients

    a_S_i      = int_0^delta sigma_S(m_s)^2 ds,
    a_Y_i      = int_0^delta sigma_Y(m_s)^2 ds,
    sigma_SY_i = int_0^delta (sigma_S * sigma_Y)(m_s) ds,

their square roots, the effective correlation ``rho_i`` and the
y-derivatives of all of the above, which the correction weights consume.
The flow map and every integral are differentiated through the variational
equation ``dJ_s/ds = b_Y'(m_s) J_s``.

All entry points accept scalars or numpy arrays for ``y`` and ``delta``,
convert them to arrays and broadcast elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import Model

__all__ = [
    "NonFiniteError",
    "QuadratureError",
    "FrozenCoeffs",
    "flow",
    "flow_tangent",
    "simpson38",
    "frozen_coeffs",
]

RK4_DIVISOR = 16  # flow steps per interval: step size delta/16
DEFAULT_PANELS = 8


class NonFiniteError(ArithmeticError):
    """Raised when the flow or a quadrature produces a non-finite value."""


class QuadratureError(ArithmeticError):
    """Raised when a frozen-coefficient integral cannot be trusted."""


@dataclass(frozen=True)
class FrozenCoeffs:
    """Interval-frozen coefficients for one grid interval.

    Fields hold scalars or numpy arrays (one entry per path).  The
    ``*1_*`` fields are derivatives with respect to the freezing point
    ``y``; ``m_i``/``m1_i`` are the flow endpoint and its tangent.
    """

    delta: object
    a_S_i: object
    a_Y_i: object
    sigma_S_i: object
    sigma_Y_i: object
    sigma_SY_i: object
    rho_i: object
    m_i: object
    a1_S_i: object
    sigma1_S_i: object
    a1_Y_i: object
    sigma1_Y_i: object
    sigma1_SY_i: object
    rho1_i: object
    m1_i: object


def _check_finite(err_cls, name, *values):
    for v in values:
        if not np.all(np.isfinite(v)):
            raise err_cls(f"{name} produced non-finite values")


def _rk4_pair(model: Model, y, j, h, n_steps: int):
    """Advance (m, J) through ``n_steps`` RK4 steps of size ``h``."""
    b, b1 = model.b_Y, model.b1_Y
    m, jac = y, j
    for _ in range(n_steps):
        k1 = b(m)
        l1 = b1(m) * jac
        k2 = b(m + 0.5 * h * k1)
        l2 = b1(m + 0.5 * h * k1) * (jac + 0.5 * h * l1)
        k3 = b(m + 0.5 * h * k2)
        l3 = b1(m + 0.5 * h * k2) * (jac + 0.5 * h * l2)
        k4 = b(m + h * k3)
        l4 = b1(m + h * k3) * (jac + h * l3)
        m = m + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        jac = jac + (h / 6.0) * (l1 + 2 * l2 + 2 * l3 + l4)
    return m, jac


def flow_tangent(model: Model, y, delta):
    """Flow endpoint and its derivative with respect to the start point.

    Parameters
    ----------
    model : Model
    y : float or ndarray
        Start value of the flow.
    delta : float or ndarray
        Nonnegative flow time.

    Returns
    -------
    (m, j) : pair of float or ndarray
        ``m = m_delta(y)`` and ``j = d m_delta / d y``.

    Raises
    ------
    ValueError
        If ``delta`` is negative.
    NonFiniteError
        If the flow leaves the finite range.
    """
    y = np.asarray(y, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if np.any(delta < 0):
        raise ValueError("delta must be nonnegative")
    if model.ou_params is not None:
        lam, mu = model.ou_params
        e = np.exp(-lam * delta)
        m = mu + (y - mu) * e
        j = e + 0.0 * y
    else:
        m, j = _rk4_pair(model, y, 1.0 + 0.0 * y, delta / RK4_DIVISOR, RK4_DIVISOR)
    _check_finite(NonFiniteError, "flow", m, j)
    return m, j


def flow(model: Model, y, delta):
    """Noiseless variance flow ``m_delta(y)``; see :func:`flow_tangent`."""
    return flow_tangent(model, y, delta)[0]


def _simpson38_scheme(panels: int):
    """Node fractions in [0, 1] and weights (for unit length) of the rule."""
    if panels < 1:
        raise ValueError("panels must be >= 1")
    n = 3 * panels
    frac = np.arange(n + 1) / n
    w = np.full(n + 1, 3.0)
    w[0] = w[-1] = 1.0
    w[3:n:3] = 2.0
    w *= 3.0 / (8.0 * n)
    return frac, w


def simpson38(g: Callable, t: float, panels: int = DEFAULT_PANELS) -> float:
    """Composite Simpson 3/8 approximation of ``int_0^t g(s) ds``.

    Exact for cubics on each panel.

    Parameters
    ----------
    g : callable
        Scalar integrand.
    t : float
        Upper limit, ``t >= 0``.
    panels : int
        Number of 3-node panels, ``>= 1``.

    Returns
    -------
    float

    Raises
    ------
    NonFiniteError
        If an integrand evaluation is non-finite.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    frac, w = _simpson38_scheme(panels)
    vals = np.array([g(t * f) for f in frac], dtype=float)
    _check_finite(NonFiniteError, "simpson38 integrand", vals)
    return float(t * np.dot(w, vals))


def _flow_nodes(model: Model, y, delta, frac):
    """Flow value and tangent at each fraction ``frac`` of ``delta``, in order."""
    if model.ou_params is not None:
        lam, mu = model.ou_params
        dev, zero = y - mu, 0.0 * y
        for f in frac:
            e = np.exp(-lam * (f * delta))
            yield mu + dev * e, e + zero
        return
    m = y + 0.0 * delta
    jac = 1.0 + 0.0 * m
    yield m, jac
    for k in range(1, len(frac)):
        # two RK4 substeps per node gap keeps the step well under delta/16
        h = (frac[k] - frac[k - 1]) * delta / 2.0
        m, jac = _rk4_pair(model, m, jac, h, 2)
        yield m, jac


def _flow_integrals(model: Model, y, delta, panels: int, integrands):
    """Simpson 3/8 integrals over ``[0, delta]`` of functions of the flow.

    Each integrand maps ``(jet, tangent)`` at a node, the model's
    :class:`~uvol.model.CoeffJet` at the flow value and the flow's
    y-derivative there, to its value.  The nodes are walked one at a time
    and every integrand is added into an n-length running sum, so each
    coefficient is evaluated once per node and no (nodes x points) array is
    formed.  Adding node after node rounds exactly as
    ``np.sum(w[:, None] * values, axis=0)`` over stacked values does for
    two or more points; for a single point numpy sums the node vector
    pairwise, so there the weighted terms are kept and summed that way.
    Either way the result is bit-identical to the stacked evaluation.

    Raises
    ------
    QuadratureError
        If an integrand is non-finite at some node.  The weights are
        positive and sum to one, so a running sum is finite exactly when
        every value added into it is.
    """
    frac, w = _simpson38_scheme(panels)
    single = np.broadcast(y, delta).size == 1
    sums, kept = None, []
    for wk, (m, jac) in zip(w, _flow_nodes(model, y, delta, frac)):
        jet = model.jet(m)
        terms = [wk * g(jet, jac) for g in integrands]
        if single:
            kept.append(terms)
        elif sums is None:
            # arrays of our own, even where a callable returned a scalar
            sums = [np.asarray(t) for t in terms]
        else:
            for s, t in zip(sums, terms):
                np.add(s, t, out=s)
    if single:
        sums = [np.sum(col, axis=0) for col in zip(*kept)]
    _check_finite(QuadratureError, "frozen-coefficient integrand", *sums)
    return [delta * s for s in sums]


def frozen_coeffs(model: Model, y, delta, *, panels: int = DEFAULT_PANELS,
                  method: str = "auto") -> FrozenCoeffs:
    """Frozen coefficients of one interval, with their y-derivatives.

    Parameters
    ----------
    model : Model
    y : float or ndarray
        Freezing point (left-endpoint variance value).
    delta : float or ndarray
        Interval length, strictly positive.
    panels : int
        Simpson 3/8 panel count for the quadrature route.
    method : {"auto", "quadrature"}
        "auto" uses the model's closed forms when declared and falls back
        to quadrature; "quadrature" forces the Simpson route (used to
        cross-check the closed forms).

    Returns
    -------
    FrozenCoeffs

    Raises
    ------
    ValueError
        If ``delta <= 0`` anywhere or ``method`` is unknown.
    QuadratureError
        If an integrand is non-finite or a frozen variance is degenerate.
    """
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    y = np.asarray(y, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if np.any(delta <= 0):
        raise ValueError("delta must be strictly positive")

    m_i, m1_i = flow_tangent(model, y, delta)

    use_closed_S = method == "auto" and model.sigma_S_form is not None \
        and model.ou_params is not None
    use_closed_Y = method == "auto" and model.sigma_Y_const is not None

    if use_closed_S and use_closed_Y:
        lam, mu = model.ou_params
        if lam > 0:
            efold = np.exp(-lam * delta)
            e1 = (1.0 - efold) / lam
            e2 = (1.0 - efold * efold) / (2.0 * lam)
        else:
            e1 = delta
            e2 = delta
        if model.sigma_S_form[0] == "constant":
            s = model.sigma_S_form[1]
            I_aS = s * s * delta
            I1_aS = 0.0 * I_aS
            I_sS = s * delta
            I1_sS = 0.0 * I_aS
        else:
            _, s1, s2 = model.sigma_S_form
            sbar = s1 * mu + s2
            dy = y - mu
            I_aS = sbar * sbar * delta + s1 * s1 * dy * dy * e2 + 2 * s1 * sbar * dy * e1
            I1_aS = 2 * s1 * s1 * dy * e2 + 2 * s1 * sbar * e1
            I_sS = sbar * delta + s1 * dy * e1
            I1_sS = s1 * e1 + 0.0 * I_aS
    elif use_closed_Y:
        I_aS, I1_aS, I_sS, I1_sS = _flow_integrals(model, y, delta, panels, (
            lambda c, j: c.a_S, lambda c, j: c.a1_S * j,
            lambda c, j: c.sigma_S, lambda c, j: c.sigma1_S * j))
    else:
        I_aS, I1_aS, I_aY, I1_aY, I_SY, I1_SY = _flow_integrals(
            model, y, delta, panels, (
                lambda c, j: c.a_S, lambda c, j: c.a1_S * j,
                lambda c, j: c.a_Y, lambda c, j: c.a1_Y * j,
                lambda c, j: c.sigma_SY, lambda c, j: c.sigma1_SY * j))
    if use_closed_Y:
        sy = model.sigma_Y_const
        I_aY = sy * sy * delta
        I1_aY = 0.0 * I_aY
        I_SY = sy * I_sS
        I1_SY = sy * I1_sS

    if np.any(I_aS <= 0) or np.any(I_aY <= 0):
        raise QuadratureError("degenerate frozen variance (a_S_i or a_Y_i <= 0)")

    sig_S = np.sqrt(I_aS)
    sig_Y = np.sqrt(I_aY)
    sig1_S = I1_aS / (2.0 * sig_S)
    sig1_Y = I1_aY / (2.0 * sig_Y)
    denom = sig_S * sig_Y
    rho_i = model.rho * I_SY / denom
    rho1_i = model.rho * (I1_SY * denom - I_SY * (sig1_S * sig_Y + sig_S * sig1_Y)) \
        / (denom * denom)
    return FrozenCoeffs(
        delta=delta,
        a_S_i=I_aS, a_Y_i=I_aY,
        sigma_S_i=sig_S, sigma_Y_i=sig_Y, sigma_SY_i=I_SY,
        rho_i=rho_i, m_i=m_i,
        a1_S_i=I1_aS, sigma1_S_i=sig1_S,
        a1_Y_i=I1_aY, sigma1_Y_i=sig1_Y,
        sigma1_SY_i=I1_SY, rho1_i=rho1_i, m1_i=m1_i,
    )
