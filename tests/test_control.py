# The cross-fitted control-variate estimator: the price, Delta and Vega
# weights applied to the payoffs 1 and exp(x), and for an OU variance factor
# to y_T and y_T**2, have known means, as has the Delta row minus its
# translation twin (mean 0), and regressing on them, with the
# coefficients fitted on one fold of paths and applied to the other, keeps
# the estimate unbiased while cutting its variance.

import math
from functools import reduce

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import (builtin, path_weights, philox_gaps, plain_estimator,
                     quadrature_only, synthetic_model)
from uvol.baselines import bs_delta, bs_price
from uvol.estimators import (Payoff, RunConfig, _chunk_partials, _control_means,
                             _fit, _fold_moments, _merge_moments, aggregate, estimate_delta, estimate_price,
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


def known_means(cfg):
    """Every control's known mean, from the OU closed forms: the six weight
    controls, the translation control, then, for an OU variance factor, y_T
    and y_T**2 times each weight."""
    r, T, s0 = cfg.model.r, cfg.T, cfg.s0
    forward = s0 * math.exp(r * T)
    means = [1.0, forward, 0.0, T * forward, 0.0, 0.0, 0.0]
    if cfg.model.ou_params is not None and cfg.model.sigma_Y_const is not None:
        lam, mu = cfg.model.ou_params
        decay = math.exp(-lam * T)
        m = mu + (cfg.y0 - mu) * decay
        var = cfg.model.sigma_Y_const ** 2 * (1.0 - decay * decay) / (2.0 * lam)
        means += [m, 0.0, T * decay, m * m + var, 0.0, 2.0 * T * m * decay]
    return np.array(means)


def conditional_contributions(cfg, kind, ids):
    """The discounted conditional contributions of ``kind`` on the paths
    ``ids`` and their conditional control rows, centred at the known means,
    one column per control."""
    rows = path_weights(cfg, philox_gaps(cfg.sampler, cfg.seed, ids),
                        lambda k, p: normal_pair(cfg.seed, p, k), kind, ids=ids)
    r, T, s0 = cfg.model.r, cfg.T, cfg.s0
    y = rows[0]
    if kind == "delta":
        y = y / (s0 * T)
    elif kind == "vega":
        y = y / T
    return y * math.exp(-r * T), rows[1:].T - known_means(cfg)


def fold_moments(lo, *columns):
    """:func:`_fold_moments` of ``columns`` over the global paths ``lo + i``:
    the columns laid out fold by fold, even global indices first."""
    v = np.stack(columns)
    first = lo % 2
    return _fold_moments(np.concatenate((v[:, first::2], v[:, 1 - first::2]), axis=1),
                         len(range(first, v.shape[1], 2)))


def numpy_cross_fit(cfg, kind):
    """Mean, standard error and ``control_z`` of the cross-fitted estimator,
    computed directly from the engine's per-path conditional rows with numpy
    least squares."""
    y, c = conditional_contributions(cfg, kind, np.arange(cfg.n_paths, dtype=np.uint64))
    q = ("price", "delta", "vega").index(kind)
    fold = np.arange(cfg.n_paths) % 2
    betas = []
    for f in (0, 1):
        cf, yf = c[fold == f], y[fold == f]
        betas.append(np.linalg.lstsq(cf - cf.mean(axis=0), yf - yf.mean(),
                                     rcond=None)[0])
    resid = y.copy()
    for f in (0, 1):
        resid[fold == f] -= c[fold == f] @ betas[1 - f]
    own = c[:, 2 * q:2 * q + 2]  # the quantity's own w and exp(x_T) w
    z = own.mean(axis=0) / (own.std(axis=0, ddof=1) / math.sqrt(own.shape[0]))
    return resid.mean(), resid.std(ddof=1) / math.sqrt(resid.size), z


@pytest.mark.parametrize("kind", sorted(ESTIMATORS))
def test_mean_matches_numpy_cross_fit(kind):
    # several chunks, one of them odd-sized, so the fold parity and the
    # moment merge across chunks both matter
    cfg = config(chunk_size=701)
    res = ESTIMATORS[kind](cfg)
    mean, se, z = numpy_cross_fit(cfg, kind)
    assert res.mean == pytest.approx(mean, rel=1e-12, abs=0.0)
    assert res.std_error == pytest.approx(se, rel=1e-9, abs=0.0)
    np.testing.assert_allclose(res.control_z, z, rtol=1e-9)


@pytest.mark.parametrize("kind", sorted(ESTIMATORS))
def test_reference_route_forms_seven_rows_and_their_z_scores(kind):
    """The sampled reference route fits no control, so its folds hold only
    the contribution and the six weight controls, on a model whose default
    route has 14 rows, and its ``control_z`` are the z-scores of the
    quantity's own two weight controls, computed with numpy from the
    engine's per-path weights."""
    cfg = config(chunk_size=701)
    assert _control_means(cfg).size == 13
    for count, mean, cross in _chunk_partials(cfg, 0, 701, kind, False)[4]:
        assert mean.shape == (7,) and cross.shape == (7, 7)
    res = PLAIN[kind](cfg)
    ids = np.arange(cfg.n_paths, dtype=np.uint64)
    x, *weights = path_weights(cfg, philox_gaps(cfg.sampler, cfg.seed, ids),
                               lambda k, p: normal_pair(cfg.seed, p, k))
    q = ("price", "delta", "vega").index(kind)
    w = weights[q]
    own = np.stack([w, np.exp(x) * w], axis=1) - _control_means(cfg)[2 * q:2 * q + 2]
    z = own.mean(axis=0) / (own.std(axis=0, ddof=1) / math.sqrt(cfg.n_paths))
    np.testing.assert_allclose(res.control_z, z, rtol=1e-9)


@pytest.mark.parametrize("kind", sorted(ESTIMATORS))
def test_thread_counts_give_bit_identical_results(kind):
    one, two = (ESTIMATORS[kind](config(chunk_size=512, threads=t)) for t in (1, 2))
    assert one.mean == two.mean
    assert one.std_error == two.std_error
    assert one.control_z == two.control_z


@pytest.mark.parametrize("n_paths", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(ESTIMATORS))
def test_tiny_runs_fall_back_to_the_plain_estimator(kind, n_paths):
    # a fold of fewer than 3 paths has a singular control covariance, and the
    # estimate falls back to the plain mean of the conditional contributions
    cfg = config(n_paths=n_paths)
    ctl = ESTIMATORS[kind](cfg)
    y, _ = conditional_contributions(cfg, kind, np.arange(n_paths, dtype=np.uint64))
    plain = aggregate([(float(y.sum()), float(np.einsum("i,i->", y, y)), n_paths)])
    assert ctl.mean == plain.mean
    assert ctl.std_error == plain.std_error
    assert ctl.n_paths == n_paths
    if n_paths == 1:
        assert all(math.isnan(z) for z in ctl.control_z)


def test_singular_control_covariance_is_not_fitted():
    rng = np.random.default_rng(0)
    c = rng.normal(size=50)
    y = c + rng.normal(size=50)
    fold = fold_moments(0, y, c, 2.0 * c)[0]
    assert _fit(fold) is None
    fold = fold_moments(0, y, c, rng.normal(size=50))[0]
    assert _fit(fold) is not None
    assert _fit(fold_moments(0, y[:4], c[:4], y[:4] ** 2)[0]) is None  # 2 paths


def test_merged_moments_match_flat_statistics():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(3, 1001)) * [[1.0], [2.0], [0.5]] + [[0.3], [-1.0], [4.0]]
    bounds = (0, 137, 202, 640, 641, 1001)
    folds = [fold_moments(lo, *v[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
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


@pytest.mark.parametrize("lam", [0.0, 1e-9, 0.5, 3.0])
def test_control_means_match_the_ou_closed_forms(lam):
    cfg = config(model=builtin("SteinSteinAffine", lambda_y=lam, mu=0.3, sigma_y=0.2),
                 y0=-0.4, T=0.7)
    T, y0, mu, sy = cfg.T, cfg.y0, 0.3, 0.2
    forward = cfg.s0 * math.exp(cfg.model.r * T)
    # Y_T = mu + (y0 - mu) e^{-lam T} + int_0^T sy e^{-lam (T - s)} dB_s
    decay = math.exp(-lam * T)
    m = mu + (y0 - mu) * decay
    v = quad(lambda u: (sy * math.exp(-lam * (T - u))) ** 2, 0.0, T, epsabs=0.0,
             epsrel=1e-13)[0]
    expected = [1.0, forward, 0.0, T * forward, 0.0, 0.0, 0.0,
                m, 0.0, T * decay, m * m + v, 0.0, 2.0 * T * m * decay]
    got = _control_means(cfg)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
    # the y_T V and y_T**2 V means are T times the y0-derivatives of the
    # y_T W and y_T**2 W means
    bumped = [_control_means(config(model=cfg.model, y0=y0 + e, T=T))
              for e in (1e-5, -1e-5)]
    fd = T * (bumped[0] - bumped[1]) / 2e-5
    np.testing.assert_allclose(got[[9, 12]], fd[[7, 10]], rtol=1e-8)


def test_an_overflowing_forward_makes_the_spot_means_infinite():
    """s0 exp(r T) overflows at r = 1500, T = 0.5: the S_T means are inf,
    which voids the fit, and the others keep their values."""
    model = builtin("SteinSteinAffine", r=1500.0)
    got = _control_means(config(model=model))
    assert math.isinf(got[1]) and math.isinf(got[3])
    finite = [0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12]
    np.testing.assert_array_equal(got[finite], _control_means(config())[finite])


def test_models_without_an_ou_factor_use_the_six_weight_controls():
    # and the translation control, but no y_T rows
    for model in (synthetic_model(), quadrature_only(builtin("SteinSteinAffine"))):
        cfg = config(model=model, n_paths=400)
        assert _control_means(cfg).size == 7
        for count, mean, cross in _chunk_partials(cfg, 0, 400, "price")[4]:
            assert count == 200 and mean.shape == (8,) and cross.shape == (8, 8)
    assert _control_means(config()).size == 13


def merged_control_moments(cfg):
    """Both folds' moments of the contribution and every control, merged."""
    bounds = range(0, cfg.n_paths + 1, cfg.chunk_size)
    return _merge_moments(*(
        reduce(_merge_moments, folds) for folds in zip(*(
            _chunk_partials(cfg, lo, hi, "price")[4] for lo, hi in zip(bounds, bounds[1:])))))


@pytest.mark.parametrize("tag, payoff, sampler", [
    ("BlackScholes", Payoff.call(K), BETA),
    ("SteinSteinAffine", Payoff.call(K), JumpSampler.beta_one_minus_alpha(0.5, 1.0)),
    ("PeriodicCosine", Payoff.digital_call(K), JumpSampler.exponential(0.5)),
])
def test_every_control_averages_to_its_known_mean(tag, payoff, sampler):
    """Pooled over 4 seeds of 2**18 paths, each of the thirteen controls'
    mean, the translation control's included, lies within 4 standard errors
    of its known mean."""
    means, variances = [], []
    for seed in (61, 62, 63, 64):
        n, mean, cross = merged_control_moments(
            config(tag, payoff=payoff, sampler=sampler, n_paths=1 << 18, seed=seed))
        means.append(mean[1:])
        variances.append(np.diag(cross)[1:] / (n - 1) / n)
    z = np.mean(means, axis=0) / (np.sqrt(np.sum(variances, axis=0)) / len(means))
    assert z.shape == (13,)
    assert np.all(np.abs(z) <= 4.0), z


def test_translation_controlled_delta_agrees_with_the_plain_estimator():
    """The stein Delta, whose variance the translation control cuts most,
    against the plain sampled estimator on the same paths."""
    cfg = config(sampler=JumpSampler.beta_one_minus_alpha(0.5, 1.0), n_paths=200_000,
                 seed=21)
    ctl, plain = estimate_delta(cfg), PLAIN["delta"](cfg)
    assert abs(ctl.mean - plain.mean) <= 3.0 * math.hypot(ctl.std_error, plain.std_error)


def test_stein_call_price_keeps_a_twentieth_of_the_variance():
    cfg = config(sampler=JumpSampler.beta_one_minus_alpha(0.5, 1.0), n_paths=1 << 17,
                 seed=9)
    ratio = (estimate_price(cfg).std_error / PLAIN["price"](cfg).std_error) ** 2
    assert ratio < 0.05, ratio
