"""Chain transitions, the engine's path simulation, and the proxy density."""

import math

import numpy as np
import pytest

from uvol.chain import (DegenerateCovariance, chain_step, one_minus_rho_sq,
                        proxy_density)
from uvol.estimators import Payoff, RunConfig
from uvol.flow import frozen_coeffs
from uvol.renewal import JumpSampler
from uvol.rng import normal_pair

from helpers import (builtin, chain_steps, engine_weights, make_step,
                     philox_grid, step_from_states, synthetic_model)

BS = builtin("BlackScholes")
FC = frozen_coeffs(BS, 0.2, 0.5)


def test_zero_noise_step():
    x, y = chain_step(BS, 0.4, 0.2, FC, 0.0, 0.0)
    # x0 + r*delta - a_S_i/2 and the flow endpoint
    assert x == pytest.approx(0.39937500000000004, rel=1e-15)
    assert y == pytest.approx(0.22211992169285952, rel=1e-15)


def test_unit_shock_step():
    x, y = chain_step(BS, 0.4, 0.2, FC, 1.0, 0.0)
    assert x == pytest.approx(0.5761516952966369, rel=1e-15)
    assert y == pytest.approx(0.3069727354352452, rel=1e-15)
    # z2 moves only y, through the orthogonal component
    x2, y2 = chain_step(BS, 0.4, 0.2, FC, 1.0, 0.5)
    assert x2 == x
    assert y2 == pytest.approx(
        y + FC.sigma_Y_i * math.sqrt(1 - FC.rho_i ** 2) * 0.5, rel=1e-14)


def test_step_broadcasts():
    z1 = np.array([0.0, 1.0])
    x, y = chain_step(BS, 0.4, 0.2, FC, z1, 0.0 * z1)
    assert x.shape == (2,)
    assert x[1] == pytest.approx(0.5761516952966369, rel=1e-15)


def test_step_from_states_inverts_step():
    m = synthetic_model()
    step = make_step(m, 0.4, 0.2, 0.3, 0.7, -1.1)
    rebuilt = step_from_states(m, 0.4, 0.2, 0.3, step.x_next, step.y_next)
    assert float(rebuilt.z1) == pytest.approx(0.7, rel=1e-12)
    assert float(rebuilt.z2) == pytest.approx(-1.1, rel=1e-12)


def test_one_minus_rho_sq_guard():
    assert one_minus_rho_sq(FC) == pytest.approx(0.64, rel=1e-14)
    deg = frozen_coeffs(builtin("BlackScholes", rho=0.99999999999999994), 0.2, 0.5)
    with pytest.raises(DegenerateCovariance):
        one_minus_rho_sq(deg)


def _engine_run(sampler, seed, n_paths=64):
    """Engine outputs on Philox grids, with the normals requests it made."""
    cfg = RunConfig(model=BS, payoff=Payoff.call(1.5), sampler=sampler,
                    s0=math.exp(0.4), y0=0.2, T=0.5, n_paths=n_paths, seed=seed)
    ids = np.arange(n_paths, dtype=np.uint64)
    grid = philox_grid(sampler, cfg.T, seed, ids)
    requests = []

    def normals(k, p):
        requests.append((k, np.array(p)))
        return normal_pair(seed, p, k)

    return cfg, grid, requests, engine_weights(cfg, grid, normals, ids=ids)


def test_simulate_chain_structure():
    cfg, (gaps, n_jumps, last_gap), requests, (x, *_) = _engine_run(
        JumpSampler.exponential(2.0), seed=3)
    top = int(n_jumps.max())
    assert top >= 2
    # interval k draws once for each path with at least k jumps, however the
    # engine groups its requests
    assert {k for k, _ in requests} == set(range(top + 1))
    for k in range(top + 1):
        drawn = np.concatenate([p for j, p in requests if j == k])
        assert sorted(drawn) == list(np.flatnonzero(n_jumps >= k))
    # each path follows its own grid, with draws addressed by interval
    for p in range(x.size):
        deltas = list(gaps[p, :n_jumps[p]]) + [last_gap[p]]
        steps = chain_steps(BS, cfg.x0, cfg.y0, deltas,
                            lambda k: normal_pair(3, p, k))
        assert [st.index for st in steps] == list(range(n_jumps[p] + 1))
        assert x[p] == pytest.approx(float(steps[-1].x_next), rel=1e-14)


def test_simulate_chain_deterministic():
    sampler = JumpSampler.beta_one_minus_alpha(0.1, 2.0)
    first = _engine_run(sampler, seed=5)[3]
    again = _engine_run(sampler, seed=5)[3]
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


# -------------------------------------------------------- proxy density ---

def test_proxy_density_peak_value():
    # 1 / (2 pi sigma_S_i sigma_Y_i sqrt(1 - rho_i^2)) at the mean
    mean_x = 0.4 + 0.03 * 0.5 - FC.a_S_i / 2
    val = proxy_density(FC, 0.4, 0.2, mean_x, FC.m_i, 0.03)
    assert val == pytest.approx(7.957747154594765, rel=1e-12)
    off = proxy_density(FC, 0.4, 0.2, mean_x + 0.1, FC.m_i, 0.03)
    assert off < val


def test_proxy_density_normalizes_to_one():
    """Gauss-Legendre integration over a wide box around the mean."""
    nodes, w = np.polynomial.legendre.leggauss(120)
    mean_x = 0.4 + 0.03 * 0.5 - FC.a_S_i / 2
    half_x, half_y = 10 * FC.sigma_S_i, 10 * FC.sigma_Y_i
    x = mean_x + half_x * nodes
    y = FC.m_i + half_y * nodes
    gx, gy = np.meshgrid(x, y, indexing="ij")
    vals = proxy_density(FC, 0.4, 0.2, gx, gy, 0.03)
    integral = half_x * half_y * np.einsum("i,j,ij->", w, w, vals)
    assert abs(integral - 1.0) <= 1e-8


def test_proxy_density_matches_explicit_gaussian():
    fc = frozen_coeffs(synthetic_model(), 0.25, 0.3)
    mean_x = 0.1 + 0.03 * 0.3 - fc.a_S_i / 2
    cov = np.array([
        [fc.a_S_i, fc.rho_i * fc.sigma_S_i * fc.sigma_Y_i],
        [fc.rho_i * fc.sigma_S_i * fc.sigma_Y_i, fc.a_Y_i],
    ], dtype=float)
    from scipy.stats import multivariate_normal
    mvn = multivariate_normal(mean=[mean_x, fc.m_i], cov=cov)
    pts = [(0.1, 0.25), (0.15, 0.3), (0.05, 0.2)]
    for x, y in pts:
        assert proxy_density(fc, 0.1, 0.25, x, y, 0.03) == pytest.approx(
            float(mvn.pdf([x, y])), rel=1e-10)


def test_step_distribution_matches_proxy_moments():
    """Sampled one-step moments agree with the proxy mean/covariance."""
    rng = np.random.default_rng(17)
    n = 400000
    z1, z2 = rng.standard_normal(n), rng.standard_normal(n)
    x, y = chain_step(BS, 0.4, 0.2, FC, z1, z2)
    se = lambda arr: arr.std(ddof=1) / math.sqrt(n)
    assert abs(x.mean() - (0.4 + 0.015 - FC.a_S_i / 2)) < 4 * se(x)
    assert abs(y.mean() - FC.m_i) < 4 * se(y)
    cov = np.cov(x, y)
    assert cov[0, 0] == pytest.approx(FC.a_S_i, rel=0.02)
    assert cov[1, 1] == pytest.approx(FC.a_Y_i, rel=0.02)
    assert cov[0, 1] == pytest.approx(FC.rho_i * FC.sigma_S_i * FC.sigma_Y_i,
                                      rel=0.03)
