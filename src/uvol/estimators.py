"""Monte Carlo estimators for price, Delta and Vega.

The estimators are unbiased: every path carries the exact weight product,
so the only error is statistical.  Paths are simulated in vectorized
chunks; each chunk produces a ``(sum, sum_sq, count)`` partial that is
reduced in chunk order, which makes the reported mean bit-identical for
any thread count.

Each path's final interval, from its last jump to ``T``, is not sampled:
given the path up to its last jump, the folded weights are quadratic in
that interval's Gaussian pair, so the contribution and every control are
replaced by their conditional means in closed form
(:func:`uvol.weights.conditional_rows`).  By the tower property these have
the same means as the sampled values, so the estimate stays unbiased.  The
sampled final interval stays reachable as the tests' reference estimator
(``_run(..., control=False)``), the plain mean of the sampled
contributions; it fits no control, so it forms only seven rows, the
contribution and the six weight controls that ``control_z`` reads.

The same weights are unbiased for every payoff, so the price, Delta and
Vega weights ``W``, ``D``, ``V`` applied to ``h = 1`` and ``h = exp(x)``
have known means, and so, when the model declares an Ornstein-Uhlenbeck
variance factor (``ou_params`` with ``sigma_Y_const``), do ``y_T`` and
``y_T**2`` times each weight (:func:`_control_means`).  One more control
is the Delta row minus its translation twin: no coefficient depends on the
log-spot, so Delta is also the price weight times the conditional payoff's
slope in the final interval's Gaussian mean, and the difference of the two
has mean 0 (:func:`uvol.weights.conditional_rows`).  Every estimate is a
regression on this one set of seven or thirteen controls, cross-fitted over
two folds of paths (even and odd global index): the coefficients fitted on one
fold correct the other, so they never see the samples they correct and the
estimate stays exactly unbiased.  Where a fold's control covariance is
singular, the plain mean of the conditional contributions is returned.
Each chunk simulates its paths fold by fold, so each fold's rows are
contiguous, and returns the per-fold centred moments of the contribution
and the controls, which :func:`_merge_moments` combines in chunk order.

This module holds the only route from a seed to a weight.  For each chunk,
:func:`_path_weights` runs one loop of renewal rounds, each drawing the live
paths' next gaps and stepping the paths that jump, in one path order
throughout.  One block walk advances a block of paths over an interval each
and folds the :class:`uvol.weights.FoldWeights` of its array-valued step
records into the prefix recurrences of the price, Delta and Vega weights
(:func:`_fold`): :func:`uvol.weights.step_weights` on each interior
interval and, on the sampled route only, :func:`uvol.weights.terminal_weights`
on each final one, which by default goes to
:func:`uvol.weights.conditional_rows` instead.  Every layer is called
through a module attribute, so a tracer can wrap it, and the gaps and the
normals come from sources passed in, so a test can run the engine on fixed
grids and draws.

The chunk is the unit of threading and of the reduction; the block of
:data:`_BLOCK` paths is the unit of kernel work, so a kernel's temporaries
are block-sized however large the chunk.  Each path's state is a column
of one matrix, which the closed-form final pass overwrites with its
conditional rows.  Every kernel is elementwise per path, so the block size
moves no bit; the chunk size sets the order of the sums and so moves the
last bits of means.
"""

from __future__ import annotations

import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from . import rng as _rng
from .chain import StepRecord, chain_step
from .flow import flow_tangent, frozen_coeffs
from .model import Model, ParameterError
from .normal import ndtr
from .renewal import JumpSampler, mean_gap, quantile
from .weights import conditional_rows, step_weights, terminal_weights

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
# Paths per block of the steps, the gap draws and the final pass.  A step
# makes up to about 300 temporaries, 128 KiB each at this size, fewer where
# the model's declarations zero terms: a default affine chunk's traced peak
# is 25.4 MB, a 32 768-path cosine-digital chunk's 8.3 MB.
# Smaller blocks pay more per-block Python time, and at two threads more GIL
# handoffs (each numpy call costs about 4.7 us there); larger ones a higher
# peak.
_BLOCK = 1 << 14
# Horizons beyond this many expected jumps per path are rejected: the grid
# sampling rounds grow with the jump count, and the weight variance with it.
_MAX_EXPECTED_JUMPS = 1000
# A fold's control covariance counts as singular when the smallest eigenvalue
# of its correlation matrix is below this fraction of the largest.
_SINGULAR = 1e-12
_KINDS = ("price", "delta", "vega")
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class NonFinitePathError(ArithmeticError):
    """Raised when a contribution comes out non-finite or a grid never reaches T."""


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

    def gauss_moments(self, mu, s):
        """Moments of the payoff at ``x = mu + s Z``.

        Returns ``(M0, M1, M2)`` with ``M_k = E[h(x) Z**k]`` for a standard
        normal ``Z``, elementwise in ``mu`` and ``s > 0``.  With
        ``d = (log(strike) - mu) / s``, the digital's are the truncated
        moments of ``Z`` on ``[d, inf)``; the call's follow from Stein's
        lemma, ``E[h(x) Z] = s E[h'(x)]``, with ``F = exp(mu + s**2 / 2)``:
        ``M1 = s F N(s - d)`` and ``M2 = M0 + s (M1 + strike * phi(d))``.
        ``N`` is :func:`uvol.normal.ndtr`; the call's two tails ``N(-d)``
        and ``N(s - d)`` take one call.
        """
        d = (math.log(self.strike) - mu) / s
        pdf = np.exp(-0.5 * d * d) * _INV_SQRT_2PI
        if self.kind == "digital":
            tail = ndtr(-d)
            return tail, pdf, tail + d * pdf
        tail, itm = ndtr((-d, s - d))
        itm *= np.exp(mu + 0.5 * s * s)
        m0 = itm - self.strike * tail
        m1 = s * itm
        return m0, m1, m0 + s * (m1 + self.strike * pdf)


@dataclass(frozen=True)
class EstimateResult:
    """Monte Carlo estimate with its statistical error.

    ``ci95`` is ``mean -+ 1.96 * std_error``.  ``control_z`` holds the
    z-scores of the sample means of the quantity's own weight ``w`` and of
    ``exp(x_T) * w`` against their known means (NaN where there is no spread
    to measure); in the default estimator these are the conditional means
    given each path up to its last jump, which share the known means.  An
    unbiased run keeps them near N(0, 1), and a large one says the weights,
    and so the CI, cannot be trusted.  The estimate
    regresses on more controls than these two (see the module docstring);
    ``control_z`` reports this pair only.
    """

    mean: float
    std_error: float
    ci95: tuple
    n_paths: int
    n_jumps_mean: float
    elapsed: float
    control_z: tuple = (math.nan, math.nan)


@dataclass(frozen=True)
class RunConfig:
    """Everything one estimator run depends on.

    Parameters
    ----------
    model : Model
    payoff : Payoff
    sampler : JumpSampler
    s0, y0, T : float
        Initial spot (strictly positive), initial variance factor (finite),
        horizon (positive, at most 1 000 mean gaps of ``sampler``).
    n_paths : int
    seed : int
        Drives every random draw via counter-based streams; in
        ``[0, 2**64)``, the Philox key's range.
    discount : bool
        Multiply estimates by ``exp(-r*T)`` (default on).
    threads : int
        Worker threads for chunk processing; results do not depend on it.
    chunk_size : int
        Paths per chunk, the unit of threading and reduction.  The
        paths do not depend on it, but the order of the floating-point sums
        does, so means at two chunk sizes can differ in the last few bits.
        The step kernels run on fixed blocks of rows within a chunk; the
        block size moves no bit.
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
    threads: int = 1
    chunk_size: int = 1 << 17

    def __post_init__(self):
        check_integers(self, ("n_paths", "seed", "threads", "chunk_size"))
        if not (math.isfinite(self.s0) and self.s0 > 0):
            raise ParameterError(f"s0 must be positive, got {self.s0}")
        if not math.isfinite(self.y0):
            raise ParameterError(f"y0 must be finite, got {self.y0}")
        if not (math.isfinite(self.T) and self.T > 0):
            raise ParameterError(f"T must be positive, got {self.T}")
        if self.n_paths < 1:
            raise ParameterError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.threads < 1 or self.chunk_size < 1:
            raise ParameterError("threads and chunk_size must be >= 1")
        check_seed(self.seed)
        gap = mean_gap(self.sampler)
        if self.T / gap > _MAX_EXPECTED_JUMPS:
            raise ParameterError(
                f"T = {self.T} is {self.T / gap:.4g} mean gaps of {gap:.4g}; "
                f"at most {_MAX_EXPECTED_JUMPS} expected jumps per path are allowed")

    @property
    def x0(self) -> float:
        return math.log(self.s0)


def check_integers(cfg, names) -> None:
    """Refuse a bool or a value of a non-integral type in the fields
    ``names`` of ``cfg``: a float seed would run as its integer part, and
    a float count fails only once the run starts."""
    for name in names:
        v = getattr(cfg, name)
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ParameterError(f"{name} must be an integer, got {v!r}")


def check_seed(seed) -> None:
    """Refuse a seed outside ``[0, 2**64)``: the Philox key of :mod:`uvol.rng`
    and numpy's ``Philox`` of the Euler baseline take 64 bits, and a wider
    seed would be masked into the draws of another."""
    if not 0 <= seed < 1 << 64:
        raise ParameterError(f"seed must be in [0, 2**64), got {seed}")


def _fold(state, delta, w):
    """Fold one slice's weights ``w`` into the prefix recurrences, in place.

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
    th, i1th = w.theta, w.I1_theta
    corr[...] = corr * th + w.theta_c * ey_pref
    vega_acc[...] = vega_acc * th + delta * (
        w.I2_theta_eY * ey_pref + corr + i1th * spill + w.I1_theta_eX * ey_pref)
    spill[...] = spill * th + w.theta_eX * ey_pref
    delta_acc[...] = delta_acc * th + delta * i1th * price_pref
    price_pref[...] = price_pref * th
    ey_pref[...] = ey_pref * w.theta_eY


def _path_weights(cfg: RunConfig, ids: np.ndarray, gaps: Callable,
                  normals: Callable, kind: str | None = None):
    """Lay the renewal grids of the paths ``ids``, run the chain on them and
    fold its weights, path by path.

    ``gaps(ia, j)`` returns the gaps that the paths ``ia`` (indices into
    ``ids``) draw at counter ``j``, a scalar ``np.uint64``: the round
    index, as every live path draws once a round.  A gap that would give a
    zero-length or tied interval, or land exactly on ``T``, is redrawn the
    next round; one past ``T`` ends the path.  ``normals(k, ids)`` returns
    the Gaussian pairs ``(z1, z2)`` of the intervals ``k`` of the paths
    ``ids``.  Returns ``(n_jumps, rows)`` in the order of ``ids``, the jump
    counts uint16: a path gains at most one jump a round, in
    ``_MAX_SAMPLING_ROUNDS < 2**16`` rounds, and one still short of ``T``
    after them raises :class:`NonFinitePathError`.  Without ``kind`` every
    interval is sampled, and ``rows`` is the terminal log-spot and the
    undiscounted price, Delta and Vega weights (:func:`_fold`).  With
    ``kind`` each final interval is integrated out, drawing no normals
    (:func:`uvol.weights.conditional_rows`), and ``rows`` is the
    ``(1 + controls, n)`` matrix of the undiscounted ``kind`` contribution
    and the controls of :func:`_control_means`.

    The paths' log-spot, variance factor and six prefix sums are the rows
    of one ``(8, n)`` matrix.  Each round draws the live paths' gaps, drops
    the draws once it knows which paths jump and how far, and steps those
    paths in blocks of :data:`_BLOCK` that gather their rows, run the step
    kernels (overflow and invalid operations raised) and scatter the rows
    back.  No grid is kept, only each path's clock, which becomes its final
    interval.  The final pass walks the matrix in blocks in place; on the
    conditional route the state is first copied into the top of a
    ``(1 + controls, n)`` matrix, and :func:`uvol.weights.conditional_rows`
    overwrites each block's state.
    Every kernel is elementwise per path, and draws are keyed by path id
    and counter, so neither the blocks nor the rounds move a bit.
    """
    n, T = ids.size, cfg.T
    mdl, smp = cfg.model, cfg.sampler
    rows = np.zeros((8, n))
    rows[0] = cfg.x0
    rows[1] = cfg.y0
    rows[2:4] = 1.0
    n_jumps = np.zeros(n, dtype=np.uint16)
    cum = np.zeros(n)

    @np.errstate(over="raise", invalid="raise")
    def walk(block, k, p, delta, weigh):
        """Advance the paths ``ids[p]``, whose rows are ``block``, over
        their intervals ``k`` of lengths ``delta``, and fold ``weigh``'s
        weights into ``block``."""
        z1, z2 = normals(k, ids[p])
        x, y = block[0], block[1]
        fc = frozen_coeffs(mdl, y, delta)
        x_next, y_next = chain_step(mdl, x, y, fc, z1, z2)
        rec = StepRecord(index=k, x_prev=x, y_prev=y, x_next=x_next,
                         y_next=y_next, z1=z1, z2=z2, fc=fc, model=mdl)
        _fold(block[2:], delta, weigh(rec, smp))
        x[...] = x_next
        y[...] = y_next

    # the live paths
    ia = np.arange(n, dtype=np.int32 if n < 1 << 31 else np.int64)
    for r in range(_MAX_SAMPLING_ROUNDS):
        if ia.size == 0:
            break
        g = gaps(ia, np.uint64(r))
        now = cum[ia]
        nxt = now + g
        ok = (g > 0) & (nxt != now) & (nxt != T)
        inside = ok & (nxt < T)
        gap = (nxt - now)[inside]
        ia = np.concatenate((ia[inside], ia[~ok]))  # the jumpers, then the redraws
        pos = ia[:gap.size]
        slot = n_jumps[pos]
        cum[pos] = nxt[inside]
        n_jumps[pos] += 1
        del g, now, nxt, ok, inside  # before the steps' temporaries
        for a in range(0, pos.size, _BLOCK):
            p = pos[a:a + _BLOCK]
            block = rows.take(p, axis=1)
            walk(block, slot[a:a + _BLOCK], p, gap[a:a + _BLOCK], step_weights)
            rows[:, p] = block
    if ia.size:
        raise NonFinitePathError(
            f"the renewal grids of {ia.size} of {n} paths did not reach T = {T} within "
            f"{_MAX_SAMPLING_ROUNDS} rounds: a gap too small to move a clock is redrawn")
    last_gap = np.subtract(T, cum, out=cum)

    if kind is None:
        for lo in range(0, n, _BLOCK):
            b = slice(lo, lo + _BLOCK)
            walk(rows[:, b], n_jumps[b], b, last_gap[b], terminal_weights)
        return n_jumps, (rows[0], rows[2], rows[4], rows[7])

    # Row 1, the variance factor, is read only by frozen_coeffs, before
    # conditional_rows overwrites it.  A copy, not ndarray.resize: that
    # checks for references, and a profiler holding the frame makes it fail.
    state, rows = rows, np.empty((1 + _control_means(cfg).size, n))
    rows[:8] = state
    del state
    q = _KINDS.index(kind)
    for lo in range(0, n, _BLOCK):
        block = rows[:, lo:lo + _BLOCK]
        with np.errstate(over="raise", invalid="raise"):
            fc = frozen_coeffs(mdl, block[1], last_gap[lo:lo + _BLOCK])
        with np.errstate(over="ignore", invalid="ignore"):  # rows are checked
            conditional_rows(mdl, fc, smp, cfg.payoff, q, cfg.T, block)
    return n_jumps, rows


def _control_means(cfg: RunConfig) -> np.ndarray:
    """Known means of the controls, in their row order.

    The undiscounted weights ``W``, ``D`` (in units of ``s0 * T``) and ``V``
    (in units of ``T``) times the payoffs 1 and ``S_T``, whose price is 1
    and ``F = s0 * exp(r T)``, differentiated in ``s0`` or in ``y0``:
    ``(W, S_T W, D, S_T D, V, S_T V)``; then the payoff's Delta row minus
    its translation twin, whose mean is 0.  When the model declares
    ``ou_params`` and ``sigma_Y_const``, ``Y_T`` is Gaussian with mean
    ``m = mu + (y0 - mu) exp(-lambda T)`` and variance
    ``v = sigma_Y**2 (1 - exp(-2 lambda T)) / (2 lambda)`` (``sigma_Y**2 T``
    at ``lambda = 0``), and six more follow:
    ``y_T (W, D, V)`` and ``y_T**2 (W, D, V)``.
    """
    T = cfg.T
    try:
        forward = cfg.s0 * math.exp(cfg.model.r * T)
    except OverflowError:  # the controls are then unusable; see _fit
        forward = math.inf
    means = [1.0, forward, 0.0, T * forward, 0.0, 0.0, 0.0]
    mdl = cfg.model
    if mdl.ou_params is not None and mdl.sigma_Y_const is not None:
        lam = mdl.ou_params[0]
        m, decay = (float(v) for v in flow_tangent(mdl, cfg.y0, T))
        v = mdl.sigma_Y_const ** 2 * (-math.expm1(-2.0 * lam * T) / (2.0 * lam)
                                      if lam != 0 else T)
        means += [m, 0.0, T * decay, m * m + v, 0.0, 2.0 * T * m * decay]
    return np.array(means)


def _fold_moments(v: np.ndarray, n0: int):
    """Per-fold ``(count, mean, centred cross products)`` of the rows of ``v``.

    Columns ``[:n0]`` of ``v`` are fold 0 and the rest fold 1.  ``mean`` has
    one entry per row and the cross products form a square matrix.  Centres
    ``v`` in place.
    """
    k = len(v)
    out = []
    for part in (v[:, :n0], v[:, n0:]):
        mean = part.mean(axis=1) if part.shape[1] else np.zeros(k)
        part -= mean[:, None]
        cross = np.empty((k, k))
        for j in range(k):
            # einsum keeps the products off BLAS, whose idle threads would spin
            cross[j, j:] = cross[j:, j] = np.einsum("jk,k->j", part[j:], part[j])
        out.append((part.shape[1], mean, cross))
    return tuple(out)


def _chunk_partials(cfg: RunConfig, lo: int, hi: int, kind: str,
                    conditional: bool = True):
    """Simulate paths [lo, hi) and return the chunk's partial statistics.

    Returns ``(sum, sum_sq, count, jumps, folds)``: the sums of the
    discounted contributions and of their squares (in path order), the
    path count, the total jump count, and the two folds' moments
    (:func:`_fold_moments`) of the contribution and the controls, each
    centred at its known mean (:func:`_control_means`).  The contribution
    and the controls are the conditional rows of :func:`_path_weights`, or,
    without ``conditional``, the contribution and the six weight controls
    on the sampled final interval.
    The paths are simulated fold by fold, even global indices first.  Every
    random number comes from the counter-based streams of :mod:`uvol.rng`,
    addressed by ``(cfg.seed, path index)``, so the order changes no path.
    Overflow in a chain step or weight raises :class:`NonFinitePathError`.
    """
    n = hi - lo
    first = lo % 2  # chunk position of the first even path
    n0 = (n + 1 - first) // 2
    ids = np.concatenate((np.arange(lo + first, hi, 2, dtype=np.uint64),
                          np.arange(lo + 1 - first, hi, 2, dtype=np.uint64)))

    def gaps(ia, j):  # Philox on a whole chunk costs about twice as much a pair
        u = np.empty(ia.size)
        for a in range(0, ia.size, _BLOCK):
            u[a:a + _BLOCK] = _rng.uniform_pair(cfg.seed, ids[ia[a:a + _BLOCK]],
                                                _rng.GAP_STREAM, j)[0]
        return quantile(cfg.sampler, u)

    normals = lambda k, p: _rng.normal_pair(cfg.seed, p, k)  # noqa: E731
    means = _control_means(cfg)
    try:
        n_jumps, rows = _path_weights(cfg, ids, gaps, normals,
                                      kind if conditional else None)
    except FloatingPointError as exc:
        raise NonFinitePathError(f"{exc} in a step of chunk [{lo}, {hi})") from None
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, or voids the fit
        if not conditional:
            # no control is fitted here: the six weight controls feed control_z
            x, *weights = rows
            spot = np.exp(x)
            rows = np.empty((7, n))
            rows[0] = cfg.payoff.value_spot(spot) * weights[_KINDS.index(kind)]
            for j, w in enumerate(weights):
                rows[1 + 2 * j] = w
                np.multiply(spot, w, out=rows[2 + 2 * j])
        contrib = rows[0]
        if kind == "delta":
            contrib /= cfg.s0 * cfg.T
        elif kind == "vega":
            contrib /= cfg.T
        if cfg.discount:
            contrib *= math.exp(-cfg.model.r * cfg.T)
    # back in path order, so the plain sums keep their bits
    flat = np.empty(n)
    flat[first::2] = contrib[:n0]
    flat[1 - first::2] = contrib[n0:]
    bad = ~np.isfinite(flat)
    if np.any(bad):
        first_bad = lo + int(np.argmax(bad))
        raise NonFinitePathError(
            f"{int(bad.sum())} non-finite {kind} contribution(s) in chunk "
            f"[{lo}, {hi}); first bad path index {first_bad}")
    # moments and squares that overflow only void the fit; _run checks the result
    with np.errstate(over="ignore", invalid="ignore"):
        folds = _fold_moments(rows, n0)
        # einsum keeps the sum of squares off BLAS, whose idle threads would spin
        sum_sq = float(np.einsum("i,i->", flat, flat))
    for _, mean, _ in folds:
        mean[1:] -= means[:len(mean) - 1]
    return float(flat.sum()), sum_sq, n, float(n_jumps.sum()), folds


def aggregate(partials: Sequence, *, n_jumps_mean: float = math.nan,
              elapsed: float = 0.0,
              control_z: tuple = (math.nan, math.nan)) -> EstimateResult:
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
        n_paths=n_tot, n_jumps_mean=n_jumps_mean, elapsed=elapsed,
        control_z=control_z,
    )


def _merge_moments(a, b):
    """Merge two ``(count, mean, centred cross products)`` triples.

    The multivariate form of :func:`aggregate`'s pairwise Welford update
    (Chan, Golub and LeVeque).
    """
    na, ma, ca = a
    nb, mb, cb = b
    if na == 0 or nb == 0:
        return b if na == 0 else a
    n = na + nb
    d = mb - ma
    return n, ma + d * (nb / n), ca + cb + np.outer(d, d) * (na * nb / n)


def _fit(m):
    """Regression coefficients of the contribution on the controls, from
    one fold's moments, or None when the fold's control covariance is
    singular or non-finite (as it is for a fold with no more paths than
    controls).  The system is solved on the correlation scale, where the
    eigenvalue ratio measures how close to collinear the controls are."""
    _, mean, c = m
    if not (np.isfinite(c).all() and np.isfinite(mean).all()):
        return None
    scale = np.sqrt(np.diag(c)[1:])
    if not (scale > 0).all():
        return None
    corr = c[1:, 1:] / np.outer(scale, scale)
    eig = np.linalg.eigvalsh(corr)
    if not eig[0] > _SINGULAR * eig[-1]:
        return None
    return np.linalg.solve(corr, c[1:, 0] / scale) / scale


def _residual(m, beta):
    """``(sum, sum_sq, count)`` of ``y - beta . c`` over one fold, from its moments."""
    n, mean, c = m
    b = np.concatenate(([1.0], -beta))
    r = float(np.einsum("i,i->", b, mean))
    ss = float(np.einsum("i,ij,j->", b, c, b))
    return n * r, max(ss, 0.0) + n * r * r, n


def _control_z(m, kind: str):
    """z-scores of the means of ``kind``'s own two controls (0 once centred)."""
    n, mean, c = m
    q = 2 * _KINDS.index(kind)
    out = []
    for k in (q + 1, q + 2):
        se = math.sqrt(max(float(c[k, k]), 0.0) / (n - 1) / n) if n > 1 else 0.0
        out.append(float(mean[k]) / se if se > 0 else math.nan)
    return tuple(out)


def _run(cfg: RunConfig, kind: str, *, control: bool = True) -> EstimateResult:
    """Estimate ``kind`` by the cross-fitted regression of the conditional
    rows on their controls, or by the plain mean of the conditional
    contributions where the controls cannot be fitted.  With ``control``
    off, the tests' reference estimator: the plain mean of the
    contributions on sampled final intervals.

    Raises
    ------
    NonFinitePathError
        If a chain step or weight overflows, or a contribution, the estimate
        or its standard error is not finite.
    """
    start = time.perf_counter()
    bounds = [(lo, min(lo + cfg.chunk_size, cfg.n_paths))
              for lo in range(0, cfg.n_paths, cfg.chunk_size)]
    if cfg.threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            partials = list(pool.map(
                lambda b: _chunk_partials(cfg, b[0], b[1], kind, control), bounds))
    else:
        partials = [_chunk_partials(cfg, lo, hi, kind, control) for lo, hi in bounds]
    jumps = sum(p[3] for p in partials)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite moments void the fit
        folds = [reduce(_merge_moments, (p[4][f] for p in partials)) for f in (0, 1)]
        betas = [_fit(m) for m in folds] if control else [None]
        if all(b is not None for b in betas):
            # each fold is corrected with the coefficients fitted on the other
            partials = [_residual(folds[0], betas[1]), _residual(folds[1], betas[0])]
        control_z = _control_z(_merge_moments(*folds), kind)
    res = aggregate(partials, n_jumps_mean=jumps / cfg.n_paths,
                    elapsed=time.perf_counter() - start, control_z=control_z)
    if not (math.isfinite(res.mean) and math.isfinite(res.std_error)):
        raise NonFinitePathError(
            f"the {kind} estimate is {res.mean!r} with standard error "
            f"{res.std_error!r}: the contributions are too large to square")
    return res


def estimate_price(cfg: RunConfig) -> EstimateResult:
    """Unbiased option price estimate ``E[h(X_T) * W]``, ``W`` the weight product."""
    return _run(cfg, "price")


def estimate_delta(cfg: RunConfig) -> EstimateResult:
    """Unbiased Delta estimate (derivative in the initial spot ``s0``)."""
    return _run(cfg, "delta")


def estimate_vega(cfg: RunConfig) -> EstimateResult:
    """Unbiased Vega estimate (derivative in the initial variance ``y0``)."""
    return _run(cfg, "vega")
