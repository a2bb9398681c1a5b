"""Monte Carlo estimators for price, Delta and Vega.

The estimators are unbiased: every path carries the exact weight product,
so the only error is statistical.  Paths are simulated in vectorized
chunks; each chunk produces a ``(sum, sum_sq, count)`` partial that is
reduced in chunk order, which makes the reported mean bit-identical for
any thread count.

This module holds the only route from a seed to a weight.  For each chunk,
:func:`_sample_gap_columns` draws the renewal grids, and
:func:`_path_weights` runs the chain on them.  It calls
:func:`uvol.weights.step_weights` on the array-valued records of a step's
interior intervals and :func:`uvol.weights.terminal_weights` on its final
ones, and :func:`_fold` folds each step's weights into the prefix
recurrences of the price, Delta and Vega weights.  Both functions take
their random numbers from sources passed in, so a test can run the engine
on fixed grids and draws.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rng as _rng
from .chain import StepRecord, chain_step
from .flow import FrozenCoeffs, frozen_coeffs
from .model import Model, ParameterError
from .renewal import JumpSampler, quantile
from .weights import step_weights, terminal_weights

__all__ = [
    "NonFinitePathError",
    "Payoff",
    "EstimateResult",
    "RunConfig",
    "estimate_price",
    "estimate_delta",
    "estimate_vega",
    "aggregate",
]

_MAX_SAMPLING_ROUNDS = 10000
_FC_FIELDS = tuple(FrozenCoeffs.__dataclass_fields__)


class NonFinitePathError(ArithmeticError):
    """Raised when path contributions come out non-finite."""


@dataclass(frozen=True)
class Payoff:
    """European payoff evaluated on the terminal log-spot.

    ``call``: ``(exp(x) - strike)+``; ``digital``: ``1{exp(x) >= strike}``.
    """

    kind: str
    strike: float

    def __post_init__(self):
        if self.kind not in ("call", "digital"):
            raise ParameterError(f"unknown payoff kind {self.kind!r}")
        if not (math.isfinite(self.strike) and self.strike > 0):
            raise ParameterError(f"strike must be positive, got {self.strike}")

    @classmethod
    def call(cls, strike: float) -> "Payoff":
        return cls(kind="call", strike=strike)

    @classmethod
    def digital_call(cls, strike: float) -> "Payoff":
        return cls(kind="digital", strike=strike)

    def __call__(self, x):
        return self.value_spot(np.exp(x))

    def value_spot(self, s):
        """Evaluate on the spot level (used by the Euler baseline)."""
        if self.kind == "call":
            return np.maximum(s - self.strike, 0.0)
        return 1.0 * (s >= self.strike)


@dataclass(frozen=True)
class EstimateResult:
    """Monte Carlo estimate with its statistical error.

    ``ci95`` is ``mean -+ 1.96 * std_error``.
    """

    mean: float
    std_error: float
    ci95: tuple
    n_paths: int
    n_jumps_mean: float
    elapsed: float


@dataclass(frozen=True)
class RunConfig:
    """Everything one estimator run depends on.

    Parameters
    ----------
    model : Model
    payoff : Payoff
    sampler : JumpSampler
    s0, y0, T : float
        Initial spot (strictly positive), initial variance factor, horizon.
    n_paths : int
    seed : int
        Drives every random draw via counter-based streams.
    discount : bool
        Multiply estimates by ``exp(-r*T)`` (default on).
    panels : int
        Simpson panel count for coefficient quadratures.
    threads : int
        Worker threads for chunk processing; results do not depend on it.
    chunk_size : int
        Paths per vectorized chunk.  The paths do not depend on it, but the
        order of the floating-point sums does, so means at two chunk sizes
        can differ in the last few bits.
    """

    model: Model
    payoff: Payoff
    sampler: JumpSampler
    s0: float
    y0: float
    T: float
    n_paths: int
    seed: int
    discount: bool = True
    panels: int = 8
    threads: int = 1
    chunk_size: int = 1 << 17

    def __post_init__(self):
        if not (math.isfinite(self.s0) and self.s0 > 0):
            raise ParameterError(f"s0 must be positive, got {self.s0}")
        if not (math.isfinite(self.T) and self.T > 0):
            raise ParameterError(f"T must be positive, got {self.T}")
        if self.n_paths < 1:
            raise ParameterError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.threads < 1 or self.chunk_size < 1:
            raise ParameterError("threads and chunk_size must be >= 1")
        if self.panels < 1:
            raise ParameterError(f"panels must be >= 1, got {self.panels}")

    @property
    def x0(self) -> float:
        return math.log(self.s0)


def _sample_gap_columns(uniforms: Callable, sampler: JumpSampler, T: float,
                        n: int):
    """Vectorized renewal-grid sampling for ``n`` paths.

    ``uniforms(ia, j)`` returns the gap uniforms of the paths ``ia`` (indices
    into the ``n`` paths) at their per-path draw counters ``j``.  A draw
    that would give a zero-length or tied interval, or land exactly on
    ``T``, is discarded; the counter still advances, so the next round
    redraws it.  Returns ``(gaps, n_jumps, last_gap)``: ``gaps[p, k]`` is
    the k-th interior interval of path ``p`` (NaN beyond its jump count).
    """
    gaps = np.full((n, 8), np.nan)
    slot = np.zeros(n, dtype=np.int64)
    cum = np.zeros(n)
    gap_idx = np.zeros(n, dtype=np.uint64)
    alive = np.ones(n, dtype=bool)
    for _ in range(_MAX_SAMPLING_ROUNDS):
        ia = np.flatnonzero(alive)
        if ia.size == 0:
            break
        u = uniforms(ia, gap_idx[ia])
        gap_idx[ia] += np.uint64(1)
        g = quantile(sampler, u)
        nxt = cum[ia] + g
        ok = (g > 0) & (nxt != cum[ia]) & (nxt != T)
        jump = ia[ok & (nxt < T)]
        if jump.size:
            if np.any(slot[jump] >= gaps.shape[1]):
                gaps = np.hstack([gaps, np.full((n, gaps.shape[1]), np.nan)])
            gaps[jump, slot[jump]] = (nxt - cum[ia])[ok & (nxt < T)]
            cum[jump] = nxt[ok & (nxt < T)]
            slot[jump] += 1
        alive[ia[ok & (nxt > T)]] = False
    else:  # pragma: no cover - would need a broken sampler
        raise RuntimeError("renewal sampling did not terminate")
    return gaps, slot, T - cum


def _rows(rec: StepRecord, lo: int, hi: int) -> StepRecord:
    """Rows ``[lo, hi)`` of a batched step record, as views."""
    fc = rec.fc
    return StepRecord(
        index=rec.index, x_prev=rec.x_prev[lo:hi], y_prev=rec.y_prev[lo:hi],
        x_next=rec.x_next[lo:hi], y_next=rec.y_next[lo:hi],
        z1=rec.z1[lo:hi], z2=rec.z2[lo:hi], model=rec.model,
        fc=FrozenCoeffs(**{f: getattr(fc, f)[lo:hi] for f in _FC_FIELDS}))


def _fold(state, delta, th, ey, ex, i1th, i2ey, i1ex, thc):
    """Fold one step's weights into the prefix recurrences, in place.

    ``state`` holds views of ``(price_pref, ey_pref, delta_acc, corr, spill,
    vega_acc)`` for the paths the weights belong to.  After the last step,
    ``price_pref`` is the product of the ``theta`` factors (the price
    weight), ``delta_acc`` is ``sum_k delta_k * theta^{I1,k}``, where the
    k-th factor is replaced by ``I1_k(theta_k)`` (the Delta weight, in units
    of ``s0 * T``), and ``vega_acc`` is the full transfer expansion

        sum_k delta_k * ( theta^{I2,k} + sum_{j<=k} (theta^{C,j} + theta^{I1,k}_j) )

    (the Vega weight, in units of ``T``): differentiation enters interval
    ``k`` through ``I2_k(theta_eY_k)``, is carried across earlier intervals
    by ``theta_eY`` factors (``ey_pref``), and leaks into the spot direction
    through ``theta_eX`` (``spill``) and ``theta_c`` (``corr``).
    """
    price_pref, ey_pref, delta_acc, corr, spill, vega_acc = state
    corr[...] = corr * th + thc * ey_pref
    vega_acc[...] = vega_acc * th + delta * (
        i2ey * ey_pref + corr + i1th * spill + i1ex * ey_pref)
    spill[...] = spill * th + ex * ey_pref
    delta_acc[...] = delta_acc * th + delta * i1th * price_pref
    price_pref[...] = price_pref * th
    ey_pref[...] = ey_pref * ey


def _path_weights(cfg: RunConfig, ids: np.ndarray, gaps: np.ndarray,
                  n_jumps: np.ndarray, last_gap: np.ndarray, normals: Callable):
    """Run the chain on given grids and fold its weights, path by path.

    ``(gaps, n_jumps, last_gap)`` are the grids of the paths ``ids``, as
    :func:`_sample_gap_columns` returns them, and ``normals(k, ids)``
    returns the Gaussian pair ``(z1, z2)`` of interval ``k`` for the paths
    ``ids``.  Returns the terminal log-spot and the undiscounted price,
    Delta and Vega weights (see :func:`_fold`), in the order of ``ids``.

    The paths are stably sorted by jump count, most jumps first, so at step
    ``k`` the active paths are a prefix ``[:n_act[k]]`` whose interior steps
    ``[:n_act[k + 1]]`` come first and whose final intervals form the tail.
    Every layer then works on contiguous slices, and only the paths that
    need them get interior weights.  Draws stay keyed by path id, and the
    results are put back in the order of ``ids``, so they do not depend on
    the sort.
    """
    n = n_jumps.size
    mdl, smp = cfg.model, cfg.sampler
    order = np.argsort(-n_jumps, kind="stable")
    ids = ids[order]
    n_steps = int(n_jumps.max()) + 1
    # n_act[k] = number of paths with at least k jumps, i.e. active at step k
    n_act = np.append(np.cumsum(np.bincount(n_jumps, minlength=n_steps)[::-1])[::-1], 0)

    x = np.full(n, cfg.x0)
    y = np.full(n, cfg.y0)
    state = (np.ones(n), np.ones(n), np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n))

    for k in range(n_steps):
        n_k, n_int = int(n_act[k]), int(n_act[k + 1])
        # the clamp only bites at the last step, which has no interior paths
        col = gaps[order[:n_int], min(k, gaps.shape[1] - 1)]
        delta_k = np.concatenate((col, last_gap[order[n_int:n_k]]))
        z1, z2 = normals(k, ids[:n_k])
        fc = frozen_coeffs(mdl, y[:n_k], delta_k, panels=cfg.panels)
        x_next, y_next = chain_step(mdl, x[:n_k], y[:n_k], fc, z1, z2)
        rec = StepRecord(index=k, x_prev=x[:n_k], y_prev=y[:n_k],
                         x_next=x_next, y_next=y_next, z1=z1, z2=z2,
                         fc=fc, model=mdl)
        if n_int:
            sw = step_weights(_rows(rec, 0, n_int), smp)
            _fold([a[:n_int] for a in state], delta_k[:n_int],
                  sw.theta, sw.theta_eY, sw.theta_eX,
                  sw.I1_theta, sw.I2_theta_eY, sw.I1_theta_eX, sw.theta_c)
        if n_int < n_k:
            tw = terminal_weights(_rows(rec, n_int, n_k), smp)
            _fold([a[n_int:n_k] for a in state], delta_k[n_int:],
                  tw.theta_last, tw.theta_eY_last, tw.theta_eX_last,
                  tw.I1_theta_last, tw.I2_theta_eY_last, tw.I1_theta_eX_last, 0.0)
        x[:n_k] = x_next
        y[:n_k] = y_next

    unsort = np.empty_like(order)
    unsort[order] = np.arange(n)
    price_pref, _, delta_acc, _, _, vega_acc = state
    return x[unsort], price_pref[unsort], delta_acc[unsort], vega_acc[unsort]


def _chunk_partials(cfg: RunConfig, lo: int, hi: int, kind: str):
    """Simulate paths [lo, hi) and return the chunk's partial statistics.

    Every random number comes from the counter-based streams of
    :mod:`uvol.rng`, addressed by ``(cfg.seed, path index)``.
    """
    n = hi - lo
    ids = np.arange(lo, hi, dtype=np.uint64)
    grid = _sample_gap_columns(
        lambda ia, j: _rng.uniform_pair(cfg.seed, ids[ia], _rng.GAP_STREAM, j)[0],
        cfg.sampler, cfg.T, n)
    x, price_w, delta_w, vega_w = _path_weights(
        cfg, ids, *grid, lambda k, p: _rng.normal_pair(cfg.seed, p, k))
    h = cfg.payoff(x)
    if kind == "price":
        contrib = h * price_w
    elif kind == "delta":
        contrib = h * delta_w / (cfg.s0 * cfg.T)
    else:
        contrib = h * vega_w / cfg.T
    if cfg.discount:
        contrib = contrib * math.exp(-cfg.model.r * cfg.T)
    bad = ~np.isfinite(contrib)
    if np.any(bad):
        first = lo + int(np.argmax(bad))
        raise NonFinitePathError(
            f"{int(bad.sum())} non-finite {kind} contribution(s) in chunk "
            f"[{lo}, {hi}); first bad path index {first}")
    # einsum keeps the sum of squares off BLAS, whose idle threads would spin
    return (float(contrib.sum()), float(np.einsum("i,i->", contrib, contrib)), n,
            float(grid[1].sum()))


def aggregate(partials: Sequence, **extras) -> EstimateResult:
    """Combine ``(sum, sum_sq, count)`` partials into an estimate.

    Partials are merged pairwise Welford-style, so the result is
    permutation-invariant up to roundoff and single-pass stable.  With a
    single path the standard error is reported as zero.
    """
    n_tot = 0
    mean = 0.0
    m2 = 0.0
    for p in partials:
        s, ss, c = p[0], p[1], p[2]
        if c == 0:
            continue
        mean_b = s / c
        m2_b = max(ss - s * s / c, 0.0)
        d = mean_b - mean
        n_new = n_tot + c
        m2 = m2 + m2_b + d * d * n_tot * c / n_new
        mean = mean + d * c / n_new
        n_tot = n_new
    if n_tot == 0:
        raise ValueError("no samples to aggregate")
    var = m2 / (n_tot - 1) if n_tot > 1 else 0.0
    se = math.sqrt(var / n_tot)
    return EstimateResult(
        mean=mean, std_error=se, ci95=(mean - 1.96 * se, mean + 1.96 * se),
        n_paths=n_tot,
        n_jumps_mean=extras.get("n_jumps_mean", float("nan")),
        elapsed=extras.get("elapsed", 0.0),
    )


def _run(cfg: RunConfig, kind: str) -> EstimateResult:
    start = time.perf_counter()
    bounds = [(lo, min(lo + cfg.chunk_size, cfg.n_paths))
              for lo in range(0, cfg.n_paths, cfg.chunk_size)]
    if cfg.threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            partials = list(pool.map(
                lambda b: _chunk_partials(cfg, b[0], b[1], kind), bounds))
    else:
        partials = [_chunk_partials(cfg, lo, hi, kind) for lo, hi in bounds]
    jumps = sum(p[3] for p in partials)
    return aggregate(
        partials,
        n_jumps_mean=jumps / cfg.n_paths,
        elapsed=time.perf_counter() - start,
    )


def estimate_price(cfg: RunConfig) -> EstimateResult:
    """Unbiased option price estimate ``E[h(X_T) * W]``, ``W`` the weight product."""
    return _run(cfg, "price")


def estimate_delta(cfg: RunConfig) -> EstimateResult:
    """Unbiased Delta estimate (derivative in the initial spot ``s0``)."""
    return _run(cfg, "delta")


def estimate_vega(cfg: RunConfig) -> EstimateResult:
    """Unbiased Vega estimate (derivative in the initial variance ``y0``)."""
    return _run(cfg, "vega")
