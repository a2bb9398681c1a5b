"""Renewal time grids driving the Markov chain.

The chain lives on a random grid ``0 = zeta_0 < zeta_1 < ... < T`` whose
gaps are i.i.d. with a density ``f`` supported near zero: jump times are
the partial sums, truncated at the horizon ``T``.  Two families are
implemented:

``Exponential(lam)``
    ``f(t) = lam * exp(-lam t)`` on ``[0, inf)``.
``BetaOneMinusAlpha(alpha, tau_bar)``
    ``f(t) = ((1-alpha)/tau_bar**(1-alpha)) * t**(-alpha)`` on
    ``[0, tau_bar]``; the integrable singularity at zero concentrates gaps
    near the origin, which keeps all moments of the weight products finite.

Gaps are drawn by inverse transform (see :func:`quantile`); the engine in
:mod:`uvol.estimators` feeds it the path's counter-based stream, so a grid
is a pure function of ``(seed, path index)``.  Every function takes scalars
or arrays and computes both through the same numpy ufuncs, so a scalar
gives the same bits as the matching element of an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "DomainError",
    "JumpSampler",
    "density",
    "cdf",
    "survival",
    "quantile",
    "mean_gap",
]


class DomainError(ValueError):
    """Raised when a density or distribution is evaluated off its support."""


@dataclass(frozen=True)
class JumpSampler:
    """Distribution of the i.i.d. renewal gaps.

    Use the factories :meth:`exponential` and :meth:`beta_one_minus_alpha`.
    """

    kind: str
    lam: Optional[float] = None
    alpha: Optional[float] = None
    tau_bar: Optional[float] = None

    @classmethod
    def exponential(cls, lam: float) -> "JumpSampler":
        if not (math.isfinite(lam) and lam > 0):
            raise DomainError(f"exponential rate must be positive, got {lam}")
        return cls(kind="exponential", lam=lam)

    @classmethod
    def beta_one_minus_alpha(cls, alpha: float, tau_bar: float) -> "JumpSampler":
        if not (math.isfinite(alpha) and 0.0 < alpha < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
        if not (math.isfinite(tau_bar) and tau_bar > 0):
            raise DomainError(f"tau_bar must be positive, got {tau_bar}")
        return cls(kind="beta", alpha=alpha, tau_bar=tau_bar)


def _check_nonneg(t):
    if np.any(t < 0):
        raise DomainError("t must be nonnegative")


def density(s: JumpSampler, t):
    """Gap density ``f(t)``.

    For the Beta family the support is ``[0, tau_bar]`` and evaluation
    outside it raises :class:`DomainError`; ``t = 0`` returns ``inf`` (the
    singularity is integrable).
    """
    t = np.asarray(t, dtype=float)
    _check_nonneg(t)
    if s.kind == "exponential":
        return s.lam * np.exp(-s.lam * t)
    if np.any(t > s.tau_bar):
        raise DomainError(f"t outside the Beta support [0, {s.tau_bar}]")
    with np.errstate(divide="ignore"):
        return (1.0 - s.alpha) / s.tau_bar ** (1.0 - s.alpha) * np.power(t, -s.alpha)


def cdf(s: JumpSampler, t):
    """Gap distribution function ``F(t)`` for ``t >= 0``."""
    t = np.asarray(t, dtype=float)
    _check_nonneg(t)
    if s.kind == "exponential":
        return -np.expm1(-s.lam * t)
    return np.power(np.minimum(t / s.tau_bar, 1.0), 1.0 - s.alpha)


def survival(s: JumpSampler, t):
    """``1 - F(t)`` for ``t >= 0``."""
    t = np.asarray(t, dtype=float)
    _check_nonneg(t)
    if s.kind == "exponential":
        return np.exp(-s.lam * t)
    return 1.0 - cdf(s, t)


def quantile(s: JumpSampler, u):
    """Inverse of ``F`` on ``(0, 1)``."""
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0) | (u >= 1)):
        raise DomainError("u must lie in the open interval (0, 1)")
    if s.kind == "exponential":
        return -np.log1p(-u) / s.lam
    return s.tau_bar * np.power(u, 1.0 / (1.0 - s.alpha))


def mean_gap(s: JumpSampler) -> float:
    """Expected gap ``E[tau]``: ``1/lam``, or ``tau_bar (1-alpha)/(2-alpha)``."""
    if s.kind == "exponential":
        return 1.0 / s.lam
    return s.tau_bar * (1.0 - s.alpha) / (2.0 - s.alpha)
