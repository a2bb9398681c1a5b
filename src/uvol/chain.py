"""Markov chain on the renewal grid.

On each grid interval the 2-D diffusion is replaced by a Gaussian step with
the interval-frozen coefficients: writing ``delta`` for the interval length
and ``(Z1, Z2)`` for independent standard normals,

    X_next = X + r*delta - a_S_i/2 + sigma_S_i * Z1,
    Y_next = m_i + sigma_Y_i * (rho_i * Z1 + sqrt(1 - rho_i**2) * Z2).

The transition density of one step (the Gaussian proxy) is available in
closed form through :func:`proxy_density`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import FrozenCoeffs
from .model import Model

__all__ = [
    "DegenerateCovariance",
    "StepRecord",
    "proxy_density",
    "RHO_SQ_GUARD",
]

RHO_SQ_GUARD = 1e-14


class DegenerateCovariance(ArithmeticError):
    """Raised when ``1 - rho_i**2`` falls below the numerical guard."""


def one_minus_rho_sq(fc: FrozenCoeffs):
    """``1 - rho_i**2`` with the degeneracy guard applied."""
    r2 = 1.0 - fc.rho_i ** 2
    if np.any(np.asarray(r2) <= RHO_SQ_GUARD):
        raise DegenerateCovariance(
            "effective correlation too close to +-1 (1 - rho_i**2 <= 1e-14)")
    return r2


@dataclass(frozen=True)
class StepRecord:
    """One chain transition with everything needed to weight it.

    Fields hold scalars (single path) or numpy arrays (path batches).  The
    step covers the interval ``[zeta_index, zeta_{index+1}]``; in the
    engine's batches ``index`` is an array of one interval per path, since
    a batch can mix intervals.  ``fc`` holds the coefficients frozen at the
    left endpoint ``y_prev``, and ``model`` is a back-reference so weight
    routines can evaluate coefficient functions at the step's endpoints.
    """

    index: object
    x_prev: object
    y_prev: object
    x_next: object
    y_next: object
    z1: object
    z2: object
    fc: FrozenCoeffs
    model: Model


def chain_step(model: Model, x, y, fc: FrozenCoeffs, z1, z2):
    """Advance one interval, for one path or a batch of paths."""
    r2 = one_minus_rho_sq(fc)
    x_next = x + (model.r * fc.delta - 0.5 * fc.a_S_i) + fc.sigma_S_i * z1
    y_next = fc.m_i + fc.sigma_Y_i * (fc.rho_i * z1 + np.sqrt(r2) * z2)
    return x_next, y_next


def proxy_density(fc: FrozenCoeffs, x0, y0, x, y, r):
    """Gaussian one-step transition density.

    The step started at ``(x0, y0)`` has mean
    ``(x0 + r*delta - a_S_i/2, m_i)`` and covariance
    ``[[a_S_i, rho*sigma_SY_i], [rho*sigma_SY_i, a_Y_i]]`` (the off-diagonal
    equals ``rho_i * sigma_S_i * sigma_Y_i``).  ``y0`` only enters through
    the frozen coefficients, which must have been computed at ``y0``; it is
    accepted for signature symmetry.

    Parameters
    ----------
    fc : FrozenCoeffs
    x0, y0 : float
        Step start point (``y0`` is the freezing point of ``fc``).
    x, y : float or ndarray
        Evaluation point.
    r : float
        Risk-free drift rate of the log-spot.

    Returns
    -------
    float or ndarray

    Raises
    ------
    DegenerateCovariance
        If ``1 - rho_i**2 <= 1e-14``.
    """
    del y0  # encoded in fc.m_i
    r2 = one_minus_rho_sq(fc)
    dx = x - (x0 + r * fc.delta - 0.5 * fc.a_S_i)
    dy = y - fc.m_i
    quad = (dx * dx / fc.a_S_i
            - 2.0 * fc.rho_i * dx * dy / (fc.sigma_S_i * fc.sigma_Y_i)
            + dy * dy / fc.a_Y_i) / r2
    norm = 2.0 * np.pi * fc.sigma_S_i * fc.sigma_Y_i * np.sqrt(r2)
    return np.exp(-0.5 * quad) / norm
