"""Gap distributions, the engine's renewal grids, and the redraw rules."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import builtin, dense_gap_columns, engine_grid, philox_gaps, philox_grid
from uvol.estimators import (_MAX_SAMPLING_ROUNDS, NonFinitePathError, Payoff, RunConfig,
                             _path_weights)
from uvol.renewal import (DomainError, JumpSampler, cdf, density, mean_gap,
                          quantile, survival)
from uvol.rng import normal_pair

EXPO = JumpSampler.exponential(0.5)
BETA = JumpSampler.beta_one_minus_alpha(0.1, 2.0)


class ScriptedUniforms:
    """Gap-uniform source giving every path the same list, by draw counter."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.consumed = 0

    def __call__(self, ia, j):
        self.consumed = max(self.consumed, int(j.max()) + 1)
        return self.values[j.astype(np.int64)]


def assert_same_grid(grid, reference):
    """Two ``(gaps, n_jumps, last_gap)`` grids are equal bit for bit."""
    for got, want in zip(grid, reference):
        assert np.array_equal(got, want, equal_nan=True)


def scripted_grid(T, values, n_paths=2):
    """Engine grids of ``n_paths`` identical scripted paths under EXPO,
    checked against the dense reference sampler on the same script."""
    stream = ScriptedUniforms(values)
    grid = engine_grid(EXPO, T, lambda ia, j: quantile(EXPO, stream(ia, j)), n_paths)
    reference = ScriptedUniforms(values)
    assert_same_grid(grid, dense_gap_columns(reference, EXPO, T, n_paths))
    assert reference.consumed == stream.consumed
    gaps, n_jumps, last_gap = grid
    assert np.all(n_jumps == n_jumps[0]) and np.all(last_gap == last_gap[0])
    return gaps[0, :n_jumps[0]], int(n_jumps[0]), float(last_gap[0]), stream


# -------------------------------------------------------- distributions ---

def test_exponential_point_values():
    assert density(EXPO, 0.0) == 0.5
    assert density(EXPO, 0.5) == pytest.approx(0.5 * math.exp(-0.25), rel=1e-15)
    assert cdf(EXPO, 0.0) == 0.0
    assert survival(EXPO, 0.25) == pytest.approx(math.exp(-0.125), rel=1e-14)
    assert quantile(EXPO, 0.3934693) == pytest.approx(0.9999998671547281,
                                                      rel=1e-12)


def test_beta_point_values():
    # F(t) = (t / tau_bar)^(1 - alpha) on [0, tau_bar]
    assert density(BETA, 1.0) == pytest.approx(0.4822980581413319, rel=1e-15)
    assert math.isinf(density(BETA, 0.0))
    assert quantile(BETA, 0.5) == pytest.approx(0.9258747122872903, rel=1e-15)
    assert cdf(BETA, 2.0) == pytest.approx(1.0, rel=1e-15)
    assert cdf(BETA, 5.0) == 1.0  # clipped beyond the support
    assert survival(BETA, 0.5) == pytest.approx(1.0 - 0.2871745887492587,
                                                rel=1e-14)


def test_beta_density_integrates_to_cdf_increment():
    lo, hi = 0.1, 1.7
    integral = quad(lambda t: density(BETA, t), lo, hi,
                    epsabs=1e-12, epsrel=1e-12)[0]
    assert integral == pytest.approx(cdf(BETA, hi) - cdf(BETA, lo), abs=1e-10)


@pytest.mark.parametrize("sampler", [EXPO, BETA])
def test_quantile_cdf_roundtrip(sampler):
    u = np.linspace(0.01, 0.99, 25)
    t = quantile(sampler, u)
    assert np.max(np.abs(cdf(sampler, t) - u)) < 1e-12


@pytest.mark.parametrize("sampler", [EXPO, BETA])
def test_vectorized_matches_scalar(sampler):
    t = np.array([0.2, 0.7, 1.3])
    assert np.allclose(density(sampler, t),
                       [density(sampler, float(v)) for v in t], rtol=1e-15)
    assert np.allclose(survival(sampler, t),
                       [survival(sampler, float(v)) for v in t], rtol=1e-15)


@pytest.mark.parametrize("sampler", [EXPO, BETA])
def test_scalar_matches_array_element_bitwise(sampler):
    """A scalar goes through the same ufuncs as an array, bit for bit."""
    u = np.random.default_rng(3).uniform(1e-9, 1.0 - 1e-9, 20000)
    t = quantile(sampler, u)
    for fn, arg in ((density, t), (cdf, t), (survival, t), (quantile, u)):
        whole = fn(sampler, arg)
        one_by_one = np.array([fn(sampler, float(v)) for v in arg])
        assert np.array_equal(whole.view(np.uint64), one_by_one.view(np.uint64)), \
            fn.__name__
    at_zero = density(sampler, 0.0)
    assert at_zero == density(sampler, np.zeros(2))[0]
    if sampler is BETA:
        assert math.isinf(at_zero)


def test_domain_errors():
    with pytest.raises(DomainError):
        density(BETA, 2.1)
    with pytest.raises(DomainError):
        density(EXPO, -0.1)
    with pytest.raises(DomainError):
        cdf(EXPO, -1.0)
    for u in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            quantile(EXPO, u)
    with pytest.raises(DomainError):
        quantile(BETA, np.array([0.5, 1.0]))


def test_factory_validation():
    with pytest.raises(DomainError):
        JumpSampler.exponential(-1.0)
    with pytest.raises(DomainError):
        JumpSampler.exponential(0.0)
    with pytest.raises(DomainError):
        JumpSampler.beta_one_minus_alpha(1.2, 2.0)
    with pytest.raises(DomainError):
        JumpSampler.beta_one_minus_alpha(0.0, 2.0)
    with pytest.raises(DomainError):
        JumpSampler.beta_one_minus_alpha(0.5, 0.0)


# ----------------------------------------------------- engine grid sampler ---

def test_sample_grid_basic_structure():
    g1 = quantile(EXPO, 0.1)
    g2 = quantile(EXPO, 0.15)
    gaps, n_jumps, last_gap, stream = scripted_grid(1.0, [0.1, 0.15, 0.9])
    assert n_jumps == 2
    assert gaps[0] == pytest.approx(g1, rel=1e-15)
    assert gaps[0] + gaps[1] == pytest.approx(g1 + g2, rel=1e-15)
    assert last_gap == pytest.approx(1.0 - (g1 + g2), rel=1e-12)
    assert stream.consumed == 3


def test_sample_grid_redraws_gap_landing_on_horizon():
    """A draw hitting T exactly is discarded, consuming an extra uniform."""
    T = float(quantile(EXPO, 0.5))
    gaps, n_jumps, last_gap, stream = scripted_grid(T, [0.5, 0.9])
    assert n_jumps == 0
    assert last_gap == T
    assert stream.consumed == 2


def test_sample_grid_redraws_tied_interval():
    """A gap too small to move the clock is discarded."""
    first = 0.5
    cum = float(quantile(EXPO, first))
    tiny = float(cdf(EXPO, 1e-18))  # quantile(tiny) cannot move cum
    assert cum + float(quantile(EXPO, tiny)) == cum
    gaps, n_jumps, last_gap, stream = scripted_grid(3.0, [first, tiny, 0.98])
    assert n_jumps == 1
    assert gaps[0] == pytest.approx(cum, rel=1e-15)
    assert last_gap == pytest.approx(3.0 - cum, rel=1e-15)
    assert stream.consumed == 3


def test_sample_grid_beta_gaps_within_support():
    ids = np.arange(50, dtype=np.uint64)
    gaps, n_jumps, last_gap = engine_grid(BETA, 0.5, philox_gaps(BETA, 5, ids), ids.size)
    inner = gaps[np.arange(gaps.shape[1]) < n_jumps[:, None]]
    assert inner.size == n_jumps.sum() > 0
    assert np.all(inner > 0)
    assert np.all(inner <= 2.0)  # jump gaps live in the Beta support
    assert np.all(last_gap > 0)
    assert np.all(np.nansum(gaps, axis=1) + last_gap == pytest.approx(0.5, rel=1e-15))


@pytest.mark.parametrize("sampler", [EXPO, BETA])
def test_mean_gap_is_the_first_moment(sampler):
    upper = math.inf if sampler.kind == "exponential" else sampler.tau_bar
    value, _ = quad(lambda t: float(survival(sampler, t)), 0.0, upper)
    assert mean_gap(sampler) == pytest.approx(value, rel=1e-9)


def test_sample_grid_width_is_the_longest_grid():
    """Each round's records (path, interval, gap) name each interior
    interval of each path once, so each path steps its intervals once each,
    in order, its final interval last (checked by engine_grid); over many
    jumps a path and over none."""
    ids = np.arange(200, dtype=np.uint64)
    gaps, n_jumps, _ = engine_grid(EXPO, 20.0, philox_gaps(EXPO, 3, ids), ids.size)
    assert n_jumps.max() >= 15 and gaps.shape == (200, n_jumps.max())
    ids = ids[:4]
    gaps, n_jumps, last_gap = engine_grid(EXPO, 1e-9, philox_gaps(EXPO, 3, ids), ids.size)
    assert not n_jumps.any() and np.isnan(gaps).all() and np.all(last_gap == 1e-9)


@pytest.mark.parametrize("sampler, T, seed", [(EXPO, 0.5, 7), (EXPO, 6.0, 8),
                                              (BETA, 0.5, 9), (BETA, 4.0, 10)])
def test_records_rebuild_the_dense_reference(sampler, T, seed):
    """The intervals the engine steps, round by round, are the reference
    sampler's grids bit for bit."""
    ids = np.arange(3000, dtype=np.uint64)
    grid = engine_grid(sampler, T, philox_gaps(sampler, seed, ids), ids.size)
    assert grid[1].max() >= 2
    assert_same_grid(grid, philox_grid(sampler, T, seed, ids))


@pytest.mark.parametrize("kind", [None, "price"])
def test_gaps_that_never_move_the_clock_hit_the_round_cap(kind):
    """Zero gaps are redrawn without end, as with a sampler whose draws
    underflow; the engine stops at the cap with an error that names it."""
    cfg = RunConfig(model=builtin("BlackScholes"), payoff=Payoff.call(1.5),
                    sampler=EXPO, s0=1.5, y0=0.2, T=0.5, n_paths=3, seed=2)
    ids = np.arange(cfg.n_paths, dtype=np.uint64)
    drawn = []

    def gaps(ia, j):
        drawn.append(int(j))
        return np.zeros(ia.size)

    with pytest.raises(NonFinitePathError,
                       match=f"3 of 3 paths did not reach T = 0.5 within "
                             f"{_MAX_SAMPLING_ROUNDS} rounds"):
        _path_weights(cfg, ids, gaps, lambda k, p: normal_pair(cfg.seed, p, k), kind)
    assert drawn == list(range(_MAX_SAMPLING_ROUNDS))


def test_sample_grid_mean_jump_count():
    """E[N_T] = lam * T for the exponential sampler."""
    n = 20000
    counts = philox_grid(EXPO, 0.5, 42, np.arange(n, dtype=np.uint64))[1].astype(float)
    se = counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.mean() - 0.25) < 4 * se
