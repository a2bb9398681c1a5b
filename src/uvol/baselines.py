"""Reference baselines: Euler scheme, finite-difference Greeks, closed forms.

These carry discretization bias (the whole point of the main engine is not
to) and exist for cross-validation: the unbiased estimates are compared
against Euler prices within combined statistical error, and the
Black-Scholes closed forms pin the constant-volatility special case.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .estimators import EstimateResult, Payoff, aggregate, check_integers, check_seed
from .model import Model, ParameterError
from .normal import ndtr

__all__ = [
    "EulerConfig",
    "euler_terminal",
    "euler_price",
    "fd_bump",
    "fd_greek",
    "bs_price",
    "bs_delta",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EulerConfig:
    """Euler discretization settings (defaults match the reference runs).
    ``seed`` is in ``[0, 2**64)``."""

    n_steps: int = 200
    n_paths: int = 160000
    seed: int = 0

    def __post_init__(self):
        check_integers(self, ("n_steps", "n_paths", "seed"))
        if self.n_steps < 1 or self.n_paths < 1:
            raise ParameterError("n_steps and n_paths must be >= 1")
        check_seed(self.seed)


def euler_terminal(model: Model, s0: float, y0: float, T: float,
                   cfg: EulerConfig, rng):
    """Terminal ``(S_T, Y_T)`` arrays of the Euler scheme.

    Works in spot coordinates; negative spots are possible for coarse
    steps and are recorded (logged), never clamped.
    """
    dt = T / cfg.n_steps
    sq_dt = math.sqrt(dt)
    rho = model.rho
    rho_c = math.sqrt(1.0 - rho * rho)
    s = np.full(cfg.n_paths, float(s0))
    y = np.full(cfg.n_paths, float(y0))
    ever_neg = np.zeros(cfg.n_paths, dtype=bool)
    for _ in range(cfg.n_steps):
        g1 = rng.standard_normal(cfg.n_paths)
        g2 = rng.standard_normal(cfg.n_paths)
        dw = sq_dt * g1
        db = rho * dw + rho_c * sq_dt * g2
        s = s + model.r * s * dt + model.sigma_S(y) * s * dw
        y = y + model.b_Y(y) * dt + model.sigma_Y(y) * db
        ever_neg |= s < 0
    neg = int(ever_neg.sum())
    if neg:
        log.warning("Euler scheme: %d of %d paths went negative", neg, cfg.n_paths)
    return s, y


def euler_price(model: Model, payoff: Payoff, s0: float, y0: float, T: float,
                cfg: EulerConfig) -> EstimateResult:
    """Discounted Euler price with its statistical error."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    s, _ = euler_terminal(model, s0, y0, T, cfg, rng)
    vals = payoff.value_spot(s) * math.exp(-model.r * T)
    return aggregate([(float(vals.sum()), float(np.dot(vals, vals)), vals.size)],
                     elapsed=time.perf_counter() - start)


def fd_greek(model: Model, payoff: Payoff, s0: float, y0: float, T: float,
             which: str, eps: float, cfg: EulerConfig) -> EstimateResult:
    """Forward-difference Greek of the Euler price with common random numbers.

    Parameters
    ----------
    which : {"delta", "vega"}
        Bump direction: initial spot or initial variance factor.
    eps : float
        Bump size.  The difference is divided by the bump applied,
        ``(s0 + eps) - s0`` or ``(y0 + eps) - y0``, which rounding may
        make differ from ``eps``.

    Both runs replay the same Gaussian increments (identical seed and
    consumption order), so the difference estimator's error is the error
    of the pathwise difference, not of two independent prices.
    """
    bump = fd_bump(which, s0, y0, eps)
    applied = bump[0] - s0 if which == "delta" else bump[1] - y0
    start = time.perf_counter()
    disc = math.exp(-model.r * T)
    base = (s0, y0)
    vals = []
    for s_init, y_init in (base, bump):
        rng = np.random.Generator(np.random.Philox(cfg.seed))
        s, _ = euler_terminal(model, s_init, y_init, T, cfg, rng)
        vals.append(payoff.value_spot(s) * disc)
    diff = (vals[1] - vals[0]) / applied
    return aggregate([(float(diff.sum()), float(np.dot(diff, diff)), diff.size)],
                     elapsed=time.perf_counter() - start)


def fd_bump(which: str, s0: float, y0: float, eps: float) -> tuple:
    """The bumped start ``(s0 + eps, y0)`` or ``(s0, y0 + eps)`` of
    :func:`fd_greek`.

    Raises
    ------
    ParameterError
        If ``which`` is neither ``"delta"`` nor ``"vega"``, ``eps`` is not
        positive, or the bumped value is not finite or rounds back to the
        unbumped one (the difference quotient would read 0 or NaN).
    """
    if which not in ("delta", "vega"):
        raise ParameterError(f"which must be 'delta' or 'vega', got {which!r}")
    if not eps > 0:
        raise ParameterError(f"eps must be positive, got {eps!r}")
    name, value = ("s0", s0) if which == "delta" else ("y0", y0)
    bumped = value + eps
    if not (math.isfinite(bumped) and bumped != value):
        raise ParameterError(f"a bump of {eps!r} moves {name} = {value!r} to {bumped!r}")
    return (bumped, y0) if which == "delta" else (s0, bumped)


def bs_price(s0: float, strike: float, r: float, T: float, sigma: float) -> float:
    """Black-Scholes call price (normal CDF accurate to ~1e-16)."""
    if not (s0 > 0 and strike > 0 and T > 0 and sigma > 0):
        raise ParameterError("bs_price needs positive s0, strike, T, sigma")
    v = sigma * math.sqrt(T)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma * sigma) * T) / v
    d2 = d1 - v
    return s0 * float(ndtr(d1)) - strike * math.exp(-r * T) * float(ndtr(d2))


def bs_delta(s0: float, strike: float, r: float, T: float, sigma: float) -> float:
    """Black-Scholes call Delta."""
    if not (s0 > 0 and strike > 0 and T > 0 and sigma > 0):
        raise ParameterError("bs_delta needs positive s0, strike, T, sigma")
    v = sigma * math.sqrt(T)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma * sigma) * T) / v
    return float(ndtr(d1))
