# The cross-fitted control-variate estimator: the weights applied to the
# payoffs 1 and exp(x) have known means, and regressing on them, with the
# coefficients fitted on one fold of paths and applied to the other, keeps
# the estimate unbiased while cutting its variance.

import math

import numpy as np
import pytest

from helpers import builtin, engine_weights, philox_grid, plain_estimator
from uvol.baselines import bs_delta, bs_price
from uvol.estimators import (Payoff, RunConfig, _fit, _fold_moments,
                             _merge_moments, estimate_delta, estimate_price,
                             estimate_vega)
from uvol.renewal import JumpSampler
from uvol.rng import normal_pair

ESTIMATORS = {"price": estimate_price, "delta": estimate_delta, "vega": estimate_vega}
PLAIN = {kind: plain_estimator(kind) for kind in ESTIMATORS}
BETA = JumpSampler.beta_one_minus_alpha(0.1, 2.0)
S0 = math.exp(0.4)
K = 1.5


def config(tag="SteinSteinAffine", **overrides):
    kwargs = dict(model=builtin(tag), payoff=Payoff.call(K), sampler=BETA, s0=S0,
                  y0=0.2, T=0.5, n_paths=5000, seed=3)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def numpy_cross_fit(cfg, kind):
    """Mean and standard error of the cross-fitted estimator, computed
    directly from the engine's per-path weights with numpy least squares."""
    ids = np.arange(cfg.n_paths, dtype=np.uint64)
    grid = philox_grid(cfg.sampler, cfg.T, cfg.seed, ids)
    x, price_w, delta_w, vega_w = engine_weights(
        cfg, grid, lambda k, p: normal_pair(cfg.seed, p, k), ids)
    r, T, s0 = cfg.model.r, cfg.T, cfg.s0
    h = cfg.payoff.value_spot(np.exp(x)) * math.exp(-r * T)
    w, scale, mu1, mu2 = {
        "price": (price_w, 1.0, 1.0, s0 * math.exp(r * T)),
        "delta": (delta_w, 1.0 / (s0 * T), 0.0, s0 * T * math.exp(r * T)),
        "vega": (vega_w, 1.0 / T, 0.0, 0.0),
    }[kind]
    y = h * w * scale
    c = np.column_stack((w - mu1, np.exp(x) * w - mu2))
    fold = np.arange(cfg.n_paths) % 2
    betas = []
    for f in (0, 1):
        cf, yf = c[fold == f], y[fold == f]
        betas.append(np.linalg.lstsq(cf - cf.mean(axis=0), yf - yf.mean(),
                                     rcond=None)[0])
    resid = y.copy()
    for f in (0, 1):
        resid[fold == f] -= c[fold == f] @ betas[1 - f]
    return resid.mean(), resid.std(ddof=1) / math.sqrt(resid.size)


@pytest.mark.parametrize("kind", sorted(ESTIMATORS))
def test_mean_matches_numpy_cross_fit(kind):
    # several chunks, one of them odd-sized, so the fold parity and the
    # moment merge across chunks both matter
    cfg = config(chunk_size=701)
    res = ESTIMATORS[kind](cfg)
    mean, se = numpy_cross_fit(cfg, kind)
    assert res.mean == pytest.approx(mean, rel=1e-12, abs=0.0)
    assert res.std_error == pytest.approx(se, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("kind", sorted(ESTIMATORS))
def test_thread_counts_give_bit_identical_results(kind):
    one, two = (ESTIMATORS[kind](config(chunk_size=512, threads=t)) for t in (1, 2))
    assert one.mean == two.mean
    assert one.std_error == two.std_error
    assert one.control_z == two.control_z


@pytest.mark.parametrize("n_paths", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(ESTIMATORS))
def test_tiny_runs_fall_back_to_the_plain_estimator(kind, n_paths):
    # a fold of fewer than 3 paths has a singular control covariance
    cfg = config(n_paths=n_paths)
    ctl = ESTIMATORS[kind](cfg)
    plain = PLAIN[kind](cfg)
    assert ctl.mean == plain.mean
    assert ctl.std_error == plain.std_error
    assert ctl.n_paths == n_paths
    if n_paths == 1:
        assert all(math.isnan(z) for z in ctl.control_z)


def test_singular_control_covariance_is_not_fitted():
    rng = np.random.default_rng(0)
    c = rng.normal(size=50)
    y = c + rng.normal(size=50)
    fold = _fold_moments(0, y, c, 2.0 * c)[0]
    assert _fit(fold) is None
    fold = _fold_moments(0, y, c, rng.normal(size=50))[0]
    assert _fit(fold) is not None
    assert _fit(_fold_moments(0, y[:4], c[:4], y[:4] ** 2)[0]) is None  # 2 paths


def test_merged_moments_match_flat_statistics():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(3, 1001)) * [[1.0], [2.0], [0.5]] + [[0.3], [-1.0], [4.0]]
    bounds = (0, 137, 202, 640, 641, 1001)
    folds = [_fold_moments(lo, *v[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    for f in (0, 1):
        n, mean, cross = folds[0][f]
        for chunk in folds[1:]:
            n, mean, cross = _merge_moments((n, mean, cross), chunk[f])
        part = v[:, f::2]
        assert n == part.shape[1]
        np.testing.assert_allclose(mean, part.mean(axis=1), rtol=1e-13)
        expected = np.cov(part) * (n - 1)
        np.testing.assert_allclose(cross, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("tag, payoff, sampler", [
    ("BlackScholes", Payoff.call(K), BETA),
    ("SteinSteinAffine", Payoff.call(K), JumpSampler.beta_one_minus_alpha(0.5, 1.0)),
    ("PeriodicCosine", Payoff.digital_call(K), JumpSampler.exponential(0.5)),
])
@pytest.mark.parametrize("kind", sorted(ESTIMATORS))
def test_controls_cut_the_standard_error(kind, tag, payoff, sampler):
    cfg = config(tag, payoff=payoff, sampler=sampler, n_paths=20000, seed=8)
    ctl = ESTIMATORS[kind](cfg)
    plain = PLAIN[kind](cfg)
    assert ctl.std_error < plain.std_error
    assert ctl.n_jumps_mean == plain.n_jumps_mean


def test_black_scholes_closed_forms_over_many_seeds():
    """Pooled over 30 independent runs, the controlled price and Delta stay
    within 4 standard errors of the closed forms: no bias at this level."""
    seeds = range(400, 430)
    targets = {"price": bs_price(S0, K, 0.03, 0.5, 0.25),
               "delta": bs_delta(S0, K, 0.03, 0.5, 0.25)}
    for kind, target in targets.items():
        results = [ESTIMATORS[kind](config("BlackScholes", n_paths=20000, seed=s))
                   for s in seeds]
        resid = sum(r.mean - target for r in results) / len(results)
        se = math.sqrt(sum(r.std_error ** 2 for r in results)) / len(results)
        assert abs(resid) <= 4.0 * se, (kind, resid, se)


def test_control_z_is_moderate_on_a_healthy_run():
    for kind in ("price", "delta", "vega"):
        res = ESTIMATORS[kind](config("BlackScholes", n_paths=20000, seed=5))
        assert all(abs(z) < 4.0 for z in res.control_z), (kind, res.control_z)


def test_control_z_flags_collapsed_weights():
    # over T = 5 these Beta gaps give ~15 jumps a path and the price weight
    # averages ~0 against its known mean of 1
    cfg = config(sampler=JumpSampler.beta_one_minus_alpha(0.5, 1.0), T=5.0,
                 n_paths=20000, seed=0)
    for estimator in (estimate_price, PLAIN["price"]):
        assert abs(estimator(cfg).control_z[0]) > 20.0
