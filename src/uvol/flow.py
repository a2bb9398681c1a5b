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
equation ``dJ_s/ds = b_Y'(m_s) J_s``.  A drift declared Ornstein-Uhlenbeck
(``ou_params``) has the flow in closed form; any other drift is walked by
RK4 in substeps of at most ``delta/48``.  Integrals without a closed form
are taken by a :data:`NODES`-node Gauss-Legendre rule along that one walk,
exact for polynomials of degree ``2 * NODES - 1`` in ``s``, and the same
walk runs on from the last node to ``delta`` for the flow endpoint.

All entry points accept scalars or numpy arrays for ``y`` and ``delta``
and broadcast them together on entry: every value they return has that shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import ZERO, Model

__all__ = [
    "NonFiniteError",
    "QuadratureError",
    "FrozenCoeffs",
    "flow",
    "flow_tangent",
    "frozen_coeffs",
]

NODES = 8  # Gauss-Legendre nodes of the frozen-coefficient quadrature


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
        k1, l1 = b(m), b1(m) * jac
        u = m + 0.5 * h * k1
        k2, l2 = b(u), b1(u) * (jac + 0.5 * h * l1)
        u = m + 0.5 * h * k2
        k3, l3 = b(u), b1(u) * (jac + 0.5 * h * l2)
        u = m + h * k3
        k4, l4 = b(u), b1(u) * (jac + h * l3)
        m = m + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        jac = jac + (h / 6.0) * (l1 + 2 * l2 + 2 * l3 + l4)
    return m, jac


def flow_tangent(model: Model, y, delta):
    """Flow endpoint and its derivative with respect to the start point.

    The closed form under ``ou_params``, otherwise 48 RK4 substeps of
    ``delta/48``.  :func:`frozen_coeffs` takes the same walk but stops at
    its nodes on the way, so on the RK4 route its ``m_i`` differs from
    this value by the RK4 error.

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
    y, delta = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(delta, dtype=float))
    if np.any(delta < 0):
        raise ValueError("delta must be nonnegative")
    m, j = next(_flow_nodes(model, y, delta, (1.0,)))
    _check_finite(NonFiniteError, "flow", m, j)
    return m, j


def flow(model: Model, y, delta):
    """Noiseless variance flow ``m_delta(y)``; see :func:`flow_tangent`."""
    return flow_tangent(model, y, delta)[0]


@lru_cache(maxsize=None)
def _gauss_legendre_scheme(nodes: int):
    """Node fractions in (0, 1) and weights (for unit length) of the rule."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    frac, w = (x + 1.0) / 2.0, w / 2.0
    frac.flags.writeable = w.flags.writeable = False
    return frac, w


def _flow_nodes(model: Model, y, delta, frac):
    """Flow value and tangent at each fraction ``frac`` of ``delta``, in order."""
    if model.ou_params is not None:
        lam, mu = model.ou_params
        dev = y - mu
        for f in frac:
            e = np.exp(-lam * (f * delta))
            yield mu + dev * e, e
        return
    m, jac = y, np.ones(y.shape)
    prev = 0.0
    for f in frac:
        # RK4 substeps of at most delta/48 from one node to the next
        n_sub = math.ceil(48 * (f - prev))
        m, jac = _rk4_pair(model, m, jac, (f - prev) * delta / n_sub, n_sub)
        prev = f
        yield m, jac


def _flow_integrals(model: Model, y, delta, integrands):
    """Flow endpoint, its tangent, and Gauss-Legendre integrals over
    ``[0, delta]`` of functions of the flow.

    Each integrand maps ``(jet, tangent)`` at a node, the model's
    :class:`~uvol.model.CoeffJet` at the flow value and the flow's
    y-derivative there, to its value.  The :data:`NODES` nodes are walked
    one at a time and every integrand is added into an n-length running
    sum, so each coefficient is evaluated once per node and no
    (nodes x points) array is formed.  Every operation is elementwise, so a
    point's integrals do not depend on how many points share the call.
    The walk then takes one more leg, from the last node to ``delta``, for
    the endpoint.

    Returns
    -------
    (m, j, integrals)
        The flow endpoint ``m_delta(y)``, its y-derivative, and the list of
        integrals in the order of ``integrands``.

    Raises
    ------
    NonFiniteError
        If the flow endpoint or its tangent is non-finite.
    QuadratureError
        If an integrand is non-finite at some node.  The weights are
        positive and sum to one, so a running sum is finite exactly when
        every value added into it is.
    """
    frac, w = _gauss_legendre_scheme(NODES)
    walk = _flow_nodes(model, y, delta, (*frac, 1.0))
    sums = [np.zeros(y.shape) for _ in integrands]
    for wk in w:
        m, jac = next(walk)
        jet = model.jet(m)
        for s, g in zip(sums, integrands):
            np.add(s, wk * g(jet, jac), out=s)
    m, jac = next(walk)
    _check_finite(NonFiniteError, "flow", m, jac)
    _check_finite(QuadratureError, "frozen-coefficient integrand", *sums)
    return m, jac, [delta * s for s in sums]


def frozen_coeffs(model: Model, y, delta) -> FrozenCoeffs:
    """Frozen coefficients of one interval, with their y-derivatives.

    The integrals take the model's closed forms where it declares them:
    ``sigma_Y_const`` for the ``sigma_Y`` integrals, and ``sigma_S_affine``
    with both ``sigma_Y_const`` and ``ou_params`` for the ``sigma_S`` ones.
    Everything else goes through a Gauss-Legendre rule of :data:`NODES`
    nodes along the flow, so a model rebuilt without these declarations
    takes the quadrature route; there the flow endpoint ``m_i`` and its
    tangent ``m1_i`` come from the same walk that gives the nodes.  On the
    closed route, the derivative fields that a constant ``sigma_S``
    (``s1 == 0``) or a constant ``sigma_Y`` zeroes are not computed: they
    share one read-only array of zeros.

    Parameters
    ----------
    model : Model
    y : float or ndarray
        Freezing point (left-endpoint variance value).
    delta : float or ndarray
        Interval length, strictly positive.

    Returns
    -------
    FrozenCoeffs

    Raises
    ------
    ValueError
        If ``delta <= 0`` anywhere.
    NonFiniteError
        If the flow leaves the finite range.
    QuadratureError
        If an integrand is non-finite or a frozen variance is degenerate.
    """
    y, delta = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(delta, dtype=float))
    if np.any(delta <= 0):
        raise ValueError("delta must be strictly positive")

    zero = model.vanishing
    closed_Y = model.sigma_Y_const is not None
    if closed_Y and model.sigma_S_affine is not None and model.ou_params is not None:
        m_i, m1_i = flow_tangent(model, y, delta)
        lam, mu = model.ou_params
        s1, s2 = model.sigma_S_affine
        sbar = s1 * mu + s2
        I_aS = sbar * sbar * delta
        I_sS = sbar * delta
        if "sigma1_S" in zero:  # s1 = 0: every term in s1 vanishes
            I1_aS = I1_sS = ZERO
        else:
            if lam != 0:  # by expm1, which does not cancel where lam * delta is small
                em1 = np.expm1(-lam * delta)
                e1 = -em1 / lam
                e2 = -em1 * (2.0 + em1) / (2.0 * lam)
            else:  # the lam -> 0 limit of both
                e1 = delta
                e2 = delta
            dy = y - mu
            I_aS = I_aS + s1 * s1 * dy * dy * e2 + 2 * s1 * sbar * dy * e1
            I1_aS = 2 * s1 * s1 * dy * e2 + 2 * s1 * sbar * e1
            I_sS = I_sS + s1 * dy * e1
            I1_sS = s1 * e1
    elif closed_Y:
        m_i, m1_i, integrals = _flow_integrals(model, y, delta, (
            lambda c, j: c.a_S, lambda c, j: c.a1_S * j,
            lambda c, j: c.sigma_S, lambda c, j: c.sigma1_S * j))
        I_aS, I1_aS, I_sS, I1_sS = integrals
    else:
        m_i, m1_i, integrals = _flow_integrals(model, y, delta, (
            lambda c, j: c.a_S, lambda c, j: c.a1_S * j,
            lambda c, j: c.a_Y, lambda c, j: c.a1_Y * j,
            lambda c, j: c.sigma_SY, lambda c, j: c.sigma1_SY * j))
        I_aS, I1_aS, I_aY, I1_aY, I_SY, I1_SY = integrals
    if closed_Y:
        sy = model.sigma_Y_const
        I_aY = sy * sy * delta
        I1_aY = ZERO
        I_SY = sy * I_sS
        I1_SY = sy * I1_sS

    if np.any(I_aS <= 0) or np.any(I_aY <= 0):
        raise QuadratureError("degenerate frozen variance (a_S_i or a_Y_i <= 0)")

    sig_S = np.sqrt(I_aS)
    sig_Y = np.sqrt(I_aY)
    sig1_S = ZERO if I1_aS is ZERO else I1_aS / (2.0 * sig_S)
    sig1_Y = ZERO if I1_aY is ZERO else I1_aY / (2.0 * sig_Y)
    denom = sig_S * sig_Y
    rho_i = model.rho * I_SY / denom
    rho1_i = ZERO if I1_SY is sig1_S is sig1_Y is ZERO else \
        model.rho * (I1_SY * denom - I_SY * (sig1_S * sig_Y + sig_S * sig1_Y)) / (denom * denom)
    # a field that vanishes still holds one value per point: shared zeros
    nil = np.zeros(y.shape)
    nil.flags.writeable = False
    nil = nil[()]
    I1_aS, sig1_S, I1_aY, sig1_Y, I1_SY, rho1_i = (
        nil if v is ZERO else v for v in (I1_aS, sig1_S, I1_aY, sig1_Y, I1_SY, rho1_i))
    return FrozenCoeffs(
        delta=delta,
        a_S_i=I_aS, a_Y_i=I_aY,
        sigma_S_i=sig_S, sigma_Y_i=sig_Y, sigma_SY_i=I_SY,
        rho_i=rho_i, m_i=m_i,
        a1_S_i=I1_aS, sigma1_S_i=sig1_S,
        a1_Y_i=I1_aY, sigma1_Y_i=sig1_Y,
        sigma1_SY_i=I1_SY, rho1_i=rho1_i, m1_i=m1_i,
    )
