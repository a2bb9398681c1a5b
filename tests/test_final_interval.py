# The default estimator integrates each path's final Gaussian interval out:
# the payoff and control rows are replaced by their conditional means given
# the path up to its last jump.  These tests check the closed-form Gaussian
# moments against quadrature, the conditional rows against many sampled
# final intervals, the pooled estimates against closed forms and stored
# references, and the engine's mechanics: no normals for the final interval
# and one frozen-coefficient point for each interval.

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from helpers import (builtin, fixed_gaps, fixed_normals, path_weights, philox_gaps,
                     philox_grid, synthetic_model)
from uvol import cli, estimators, rng
from uvol.baselines import bs_delta, bs_price
from uvol.chain import StepRecord, chain_step
from uvol.estimators import (NonFinitePathError, Payoff, RunConfig, _chunk_partials,
                             _fold, estimate_delta, estimate_price, estimate_vega)
from uvol.renewal import JumpSampler
from uvol.weights import forward_moments, terminal_weights

ESTIMATORS = {"price": estimate_price, "delta": estimate_delta, "vega": estimate_vega}
KINDS = ("price", "delta", "vega")
S0 = math.exp(0.4)
K = 1.5
REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def config(model, payoff, sampler, **overrides):
    kwargs = dict(model=model, payoff=payoff, sampler=sampler, s0=S0, y0=0.2, T=0.5,
                  n_paths=4000, seed=3)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# Closed-form Gaussian moments


def quad_moments(h, mu, s, lower):
    """``E[h(mu + s Z) Z**k]``, k = 0, 1, 2, by adaptive quadrature over
    ``[lower, 40]``, split where ``h`` has its kink or jump.  Where the
    first moment nearly cancels, quad warns that it cannot certify its
    1e-12 target; the tests' 1e-10 check is what counts."""
    pdf = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return [quad(lambda z: h(mu + s * z) * z ** k * pdf(z), lower, 40.0,
                     epsabs=0.0, epsrel=1e-12, limit=400)[0] for k in range(3)]


@pytest.mark.parametrize("s", [0.3, 1e-3])
@pytest.mark.parametrize("d", [0.0, -5.0, 5.0], ids=["atm", "deep-itm", "deep-otm"])
@pytest.mark.parametrize("kind", ["call", "digital"])
def test_gauss_moments_match_quadrature(kind, d, s):
    # d = (log K - mu) / s is the standardized log-strike
    payoff = Payoff(kind=kind, strike=K)
    mu = math.log(K) - s * d
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        moments = payoff.gauss_moments(np.array([mu]), np.array([s]))
        forward = forward_moments(np.array([mu]), np.array([s]))
    h = (lambda x: math.exp(x) - K) if kind == "call" else (lambda x: 1.0)
    expected = quad_moments(h, mu, s, d)
    expected_forward = quad_moments(math.exp, mu, s, -40.0)  # the e^x tilt
    for got, want in zip(moments + forward, expected + expected_forward):
        assert abs(float(got[0]) - want) <= 1e-10 * abs(want), (got, want)


@pytest.mark.parametrize("d", [0.0, -2.0, 2.0], ids=["atm", "itm", "otm"])
@pytest.mark.parametrize("kind", ["call", "digital"])
def test_first_moment_is_the_mean_derivative_of_the_price(kind, d):
    """``M1 / s = dM0/dmu``, the slope the translation control takes for the
    Delta: checked against a central difference."""
    payoff = Payoff(kind=kind, strike=K)
    s, eps = np.array([0.3]), 1e-5
    mu = math.log(K) - s * d
    m1 = payoff.gauss_moments(mu, s)[1]
    up, down = (payoff.gauss_moments(mu + e, s)[0] for e in (eps, -eps))
    assert float(m1[0] / s[0]) == pytest.approx(float((up - down)[0]) / (2.0 * eps),
                                                rel=1e-6)


# ---------------------------------------------------------------------------
# Conditional rows against sampled final intervals

MODELS = {
    "stein": (builtin("SteinSteinAffine"), Payoff.call(K),
              JumpSampler.beta_one_minus_alpha(0.5, 1.0)),
    "cosine": (builtin("PeriodicCosine"), Payoff.digital_call(K),
               JumpSampler.exponential(0.5)),
    "synthetic": (synthetic_model(), Payoff.call(K), JumpSampler.exponential(2.0)),
}
GRIDS = {0: (0.0, 0.5), 1: (0.0, 0.2, 0.5), 2: (0.0, 0.15, 0.35, 0.5)}
INTERIOR_Z = ((0.3, -0.7), (-1.1, 0.4))  # (z1 per interval, z2 per interval)
N_DRAWS = 10 ** 6
BATCH = 1 << 17


def capture_final_inputs(monkeypatch, cfg, n_jumps):
    """The engine's conditional rows of one path on a fixed grid, in the
    order price, delta, vega, and the inputs it laid into the block it
    passed to :func:`uvol.weights.conditional_rows`: ``x_prev`` (row 0),
    the frozen coefficients and the six prefix sums (rows 2-7)."""
    seen = []
    real = estimators.conditional_rows

    def spy(model, fc, s, payoff, weight, T, block):
        seen.append((block[0].copy(), fc, [v.copy() for v in block[2:8]]))
        real(model, fc, s, payoff, weight, T, block)

    monkeypatch.setattr(estimators, "conditional_rows", spy)
    gaps = fixed_gaps([GRIDS[n_jumps]])[0]
    ids = np.zeros(1, dtype=np.uint64)
    rows = [path_weights(cfg, gaps, fixed_normals(*INTERIOR_Z), kind, ids=ids)[:, 0]
            for kind in KINDS]
    monkeypatch.undo()
    assert len(seen) == 3
    return rows, seen[0]


def sampled_final_rows(cfg, x_prev, fc, state, n_rows, seed):
    """Means and standard errors, over ``N_DRAWS`` sampled final intervals
    after the given past, of the price, Delta and Vega contributions
    (undiscounted) and the control rows, as the sampled route forms them:
    ``terminal_weights``, ``_fold``, then the payoff.  The translation
    control's sampled twin is ``h D - T W h z1 / sigma_S_i``, whose mean
    given the past is ``T W dG/dmu`` less than the Delta row's."""
    gen = np.random.default_rng(seed)
    total = np.zeros(n_rows + 2)
    total_sq = np.zeros(n_rows + 2)
    for lo in range(0, N_DRAWS, BATCH):
        m = min(BATCH, N_DRAWS - lo)
        z1, z2 = gen.standard_normal((2, m))
        x_T, y_T = chain_step(cfg.model, x_prev, None, fc, z1, z2)
        # terminal_weights reads only the frozen coefficients and the draws
        rec = StepRecord(index=0, x_prev=x_prev, y_prev=None, x_next=x_T, y_next=y_T,
                         z1=z1, z2=z2, fc=fc, model=cfg.model)
        st = [np.repeat(v, m) for v in state]
        _fold(st, fc.delta, terminal_weights(rec, cfg.sampler))
        w, d, v = st[0], st[2], st[5]
        h = cfg.payoff.value_spot(np.exp(x_T))
        spot = np.exp(x_T)
        cols = [h * w, h * d, h * v, w, spot * w, d, spot * d, v, spot * v,
                h * d - cfg.T * w * h * z1 / fc.sigma_S_i]
        if n_rows == 14:
            cols += [y_T * w, y_T * d, y_T * v, y_T * y_T * w, y_T * y_T * d,
                     y_T * y_T * v]
        cols = np.stack(cols)
        total += cols.sum(axis=1)
        total_sq += (cols * cols).sum(axis=1)
    mean = total / N_DRAWS
    se = np.sqrt(np.maximum(total_sq / N_DRAWS - mean * mean, 0.0) / (N_DRAWS - 1))
    return mean, se


@pytest.mark.parametrize("n_jumps", sorted(GRIDS))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_conditional_rows_match_sampled_final_intervals(monkeypatch, name, n_jumps):
    model, payoff, sampler = MODELS[name]
    cfg = config(model, payoff, sampler)
    rows, (x_prev, fc, state) = capture_final_inputs(monkeypatch, cfg, n_jumps)
    n_rows = rows[0].size
    assert n_rows == (8 if name == "synthetic" else 14)
    mean, se = sampled_final_rows(cfg, x_prev, fc, state, n_rows, seed=100 + n_jumps)
    got = np.concatenate(([r[0] for r in rows], rows[0][1:]))
    for j, (g, m, e) in enumerate(zip(got, mean, se)):
        # rows without spread (the price weight) agree to roundoff
        assert abs(g - m) <= 4.5 * e + 1e-13 * abs(m), (j, g, m, e)
    for r in rows[1:]:
        assert np.array_equal(r[1:], rows[0][1:])


@pytest.mark.parametrize("name", sorted(MODELS))
def test_translation_control_is_zero_on_jump_free_paths(name):
    """There ``delta = T`` and ``delta_acc = 0``, so the row is exactly 0."""
    cfg = config(*MODELS[name], n_paths=2000)
    ids = np.arange(cfg.n_paths, dtype=np.uint64)
    rows = path_weights(cfg, philox_gaps(cfg.sampler, cfg.seed, ids),
                        lambda k, p: rng.normal_pair(cfg.seed, p, k), "delta")
    free = philox_grid(cfg.sampler, cfg.T, cfg.seed, ids)[1] == 0
    assert 0 < free.sum() < free.size
    assert np.all(rows[7][free] == 0.0)
    assert np.any(rows[7][~free] != 0.0)


# ---------------------------------------------------------------------------
# Pooled estimates against closed forms and stored references


def bench_contract(name):
    if name == "bs":
        return builtin("BlackScholes"), Payoff.call(K), JumpSampler.beta_one_minus_alpha(0.1, 2.0)
    if name == "affine-greeks":
        return MODELS["stein"]
    return MODELS["cosine"]


def targets(name):
    if name == "bs":
        return {"price": (bs_price(S0, K, 0.03, 0.5, 0.25), 0.0),
                "delta": (bs_delta(S0, K, 0.03, 0.5, 0.25), 0.0),
                "vega": (0.0, 0.0)}
    with open(REFERENCES) as fh:
        ref = json.load(fh)["workloads"][name]
    return {q: (ref[q]["mean"], ref[q]["std_error"]) for q in KINDS}


@pytest.mark.parametrize("name, n_paths", [
    ("bs", 1 << 16), ("affine-greeks", 1 << 16), ("cosine-digital", 1 << 15)])
def test_pooled_estimates_match_closed_forms_and_references(name, n_paths):
    model, payoff, sampler = bench_contract(name)
    for q, (target, target_se) in targets(name).items():
        results = [ESTIMATORS[q](config(model, payoff, sampler, n_paths=n_paths,
                                        seed=900 + s)) for s in range(4)]
        resid = sum(r.mean for r in results) / len(results) - target
        se = math.sqrt(sum(r.std_error ** 2 for r in results)) / len(results)
        assert abs(resid) <= 4.0 * math.hypot(se, target_se), (q, resid, se, target_se)


# ---------------------------------------------------------------------------
# Mechanism


def cosine_config(**overrides):
    model, payoff, sampler = MODELS["cosine"]
    return config(model, payoff, JumpSampler.exponential(1.0), **overrides)


@pytest.mark.parametrize("conditional", [True, False])
def test_normals_are_drawn_for_interior_intervals_only(monkeypatch, conditional):
    drawn = []
    real = rng.normal_pair

    def counting(seed, path, interval):
        drawn.append(np.size(path))
        return real(seed, path, interval)

    monkeypatch.setattr(rng, "normal_pair", counting)
    cfg = cosine_config(n_paths=3001)
    _, _, n, jumps, _ = _chunk_partials(cfg, 0, cfg.n_paths, "vega", conditional)
    # the sampled route draws for the final interval of every path too
    assert sum(drawn) == jumps + (0 if conditional else n)


def test_each_interval_takes_one_frozen_coefficient_point(monkeypatch):
    # the final intervals are integrated out, but each still has its own
    # frozen coefficients, the jump-free paths' included
    points = []
    real = estimators.frozen_coeffs

    def counting(model, y, delta):
        points.append(np.size(y))
        return real(model, y, delta)

    monkeypatch.setattr(estimators, "frozen_coeffs", counting)
    cfg = cosine_config(n_paths=3001)
    _, _, n, jumps, _ = _chunk_partials(cfg, 0, cfg.n_paths, "price")
    n_jumps = philox_grid(cfg.sampler, cfg.T, cfg.seed, np.arange(n, dtype=np.uint64))[1]
    assert 0 < int(np.sum(n_jumps == 0)) < n
    assert sum(points) == n + int(jumps)


@pytest.mark.parametrize("kind", KINDS)
def test_default_estimator_is_bit_identical_across_threads_and_blocks(monkeypatch, kind):
    cfg = cosine_config(n_paths=3000, chunk_size=512)
    ref = ESTIMATORS[kind](cfg)
    runs = [ESTIMATORS[kind](dataclasses.replace(cfg, threads=2))]
    monkeypatch.setattr(estimators, "_BLOCK", 7)
    runs.append(ESTIMATORS[kind](cfg))
    for res in runs:
        assert res.mean.hex() == ref.mean.hex()
        assert res.std_error.hex() == ref.std_error.hex()
        assert res.control_z == ref.control_z


# ---------------------------------------------------------------------------
# Non-finite standard errors


def test_overflowing_sum_of_squares_raises():
    # each contribution is finite, but its square is not
    cfg = config(builtin("SteinSteinAffine"), Payoff.call(K),
                 JumpSampler.beta_one_minus_alpha(0.1, 2.0), s0=1e200, n_paths=2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinitePathError, match="standard error"):
            estimate_price(cfg)


def test_cli_exits_3_on_an_overflowing_sum_of_squares(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run(["price", "--model", "stein", "--s0", "1e200", "--paths", "2000"])
    assert code == 3
    out = capsys.readouterr()
    assert out.out == "" and "standard error" in out.err


@pytest.mark.parametrize("argv", [
    ["price", "--model", "cosine", "--payoff", "digital"],
    ["delta", "--model", "cosine", "--payoff", "digital"],
    ["vega", "--model", "cosine", "--payoff", "digital"],
    ["price", "--model", "stein", "--strike", "0.05"],
    ["vega", "--model", "stein", "--strike", "40"],
])
def test_cli_runs_raise_no_runtime_warning(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(argv + ["--paths", "2000", "--seed", "1"]) == 0
