# Chunked Monte Carlo engine: payoffs, run configuration, aggregation,
# the per-path core on fixed grids and draws, and determinism.

import math

import numpy as np
import pytest

from helpers import (builtin, chain_steps, engine_weights, fixed_grid,
                     fixed_normals)
from jet_oracle import (product_delta, product_price, product_vega,
                        production_path_values)
from uvol.estimators import (
    EstimateResult,
    NonFinitePathError,
    Payoff,
    RunConfig,
    aggregate,
    estimate_delta,
    estimate_price,
    estimate_vega,
)
from uvol.model import ParameterError
from uvol.renewal import JumpSampler, survival

EXPO = JumpSampler.exponential(0.5)
BETA = JumpSampler.beta_one_minus_alpha(0.1, 2.0)

S0 = math.exp(0.4)
Y0 = 0.2
T = 0.5


def base_config(**overrides):
    kwargs = dict(model=builtin("BlackScholes"), payoff=Payoff.call(1.5),
                  sampler=EXPO, s0=S0, y0=Y0, T=T, n_paths=64, seed=0)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# Payoff


def test_payoff_call_values():
    pay = Payoff.call(1.5)
    assert pay(math.log(2.0)) == pytest.approx(0.5, rel=1e-15)
    assert pay(math.log(1.0)) == 0.0
    assert pay.value_spot(1.5) == 0.0
    assert pay.value_spot(np.array([1.0, 2.5])) == pytest.approx([0.0, 1.0])


def test_payoff_digital_values():
    pay = Payoff.digital_call(1.5)
    assert pay(math.log(2.0)) == 1.0
    assert pay(math.log(1.0)) == 0.0
    # the boundary counts as in-the-money
    assert pay.value_spot(1.5) == 1.0


@pytest.mark.parametrize("kind, strike", [
    ("put", 1.0),
    ("call", 0.0),
    ("call", -2.0),
    ("digital", math.nan),
])
def test_payoff_rejects_bad_arguments(kind, strike):
    with pytest.raises(ParameterError):
        Payoff(kind=kind, strike=strike)


# ---------------------------------------------------------------------------
# RunConfig


def test_run_config_x0():
    assert base_config(s0=math.exp(0.4)).x0 == pytest.approx(0.4, rel=1e-15)


@pytest.mark.parametrize("overrides", [
    {"s0": 0.0},
    {"s0": -1.0},
    {"s0": math.inf},
    {"T": 0.0},
    {"T": -0.5},
    {"n_paths": 0},
    {"threads": 0},
    {"chunk_size": 0},
    {"T": math.inf},
    {"panels": 0},
])
def test_run_config_rejects_bad_arguments(overrides):
    with pytest.raises(ParameterError):
        base_config(**overrides)


# ---------------------------------------------------------------------------
# aggregate


def test_aggregate_single_sample():
    res = aggregate([(3.0, 9.0, 1)])
    assert res.mean == 3.0
    assert res.std_error == 0.0
    assert res.ci95 == (3.0, 3.0)
    assert res.n_paths == 1
    assert math.isnan(res.n_jumps_mean)
    assert res.elapsed == 0.0


def test_aggregate_two_singleton_partials():
    res = aggregate([(2.0, 4.0, 1), (4.0, 16.0, 1)])
    # samples {2, 4}: mean 3, sample variance 2, SE = sqrt(2/2) = 1
    assert res.mean == pytest.approx(3.0, rel=1e-15)
    assert res.std_error == pytest.approx(1.0, rel=1e-15)
    assert res.ci95[0] == pytest.approx(3.0 - 1.96, rel=1e-12)
    assert res.ci95[1] == pytest.approx(3.0 + 1.96, rel=1e-12)


def test_aggregate_matches_flat_statistics():
    rng = np.random.default_rng(2)
    samples = rng.normal(0.3, 1.7, size=1000)
    chunks = np.array_split(samples, [137, 202, 640, 641])
    partials = [(float(c.sum()), float(np.dot(c, c)), c.size) for c in chunks]
    res = aggregate(partials)
    assert res.mean == pytest.approx(samples.mean(), rel=1e-12)
    expected_se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert res.std_error == pytest.approx(expected_se, rel=1e-10)
    # permutation invariance up to roundoff
    back = aggregate(partials[::-1])
    assert back.mean == pytest.approx(res.mean, rel=1e-13)
    assert back.std_error == pytest.approx(res.std_error, rel=1e-10)


def test_aggregate_skips_empty_partials_and_keeps_extras():
    res = aggregate([(0.0, 0.0, 0), (3.0, 9.0, 1)], n_jumps_mean=0.5, elapsed=1.25)
    assert res.mean == 3.0
    assert res.n_jumps_mean == 0.5
    assert res.elapsed == 1.25


def test_aggregate_rejects_no_samples():
    with pytest.raises(ValueError, match="no samples"):
        aggregate([])
    with pytest.raises(ValueError, match="no samples"):
        aggregate([(0.0, 0.0, 0)])


# ---------------------------------------------------------------------------
# Injected draws: the per-path core on a fixed grid with fixed normals,
# pinned against hand-computed single-step values


def injected(zeta, z1, z2, n_paths=4, **overrides):
    """Config and ``(x_T, price, delta, vega)`` of paths on one fixed grid."""
    kwargs = dict(payoff=Payoff.call(1.2), n_paths=n_paths)
    kwargs.update(overrides)
    cfg = base_config(**kwargs)
    out = engine_weights(cfg, fixed_grid([zeta] * n_paths), fixed_normals(z1, z2))
    return cfg, out


def discounted(cfg, x, weight):
    return cfg.payoff(x) * weight * math.exp(-cfg.model.r * cfg.T)


def test_injected_zero_noise_out_of_the_money():
    cfg, (x, price_w, _, _) = injected((0.0, 0.5), (0.0,), (0.0,),
                                       payoff=Payoff.call(1.5))
    # drift-only terminal spot e^0.399375 < 1.5 so every contribution is zero
    assert x.shape == (4,)
    assert x == pytest.approx(0.4 + 0.03 * 0.5 - 0.03125 / 2, rel=1e-15)
    assert np.all(discounted(cfg, x, price_w) == 0.0)


@pytest.mark.parametrize("sampler, frozen", [
    (EXPO, 0.367952598623097),
    (BETA, 0.4020083563491625),
])
def test_injected_zero_noise_in_the_money_price(sampler, frozen):
    cfg, (x, price_w, _, _) = injected((0.0, 0.5), (0.0,), (0.0,),
                                       sampler=sampler)
    got = discounted(cfg, x, price_w)
    # single zero-jump interval: x_T = x0 + r*T - a_S_i/2 with a_S_i =
    # 0.0625 * 0.5, weight 1/survival(T), discounted by e^(-r*T)
    x_term = 0.4 + 0.03 * 0.5 - 0.03125 / 2
    hand = (math.exp(x_term) - 1.2) / survival(sampler, 0.5) * math.exp(-0.015)
    assert got == pytest.approx(hand, rel=1e-14)
    assert got == pytest.approx(frozen, rel=1e-14)


def test_injected_zero_noise_digital_price():
    cfg, (x, price_w, _, _) = injected((0.0, 0.5), (0.0,), (0.0,),
                                       payoff=Payoff.digital_call(1.2))
    hand = math.exp(0.25) * math.exp(-0.015)  # 1/survival * discount
    assert discounted(cfg, x, price_w) == pytest.approx(hand, rel=1e-14)


@pytest.mark.parametrize("tag, frozen", [
    ("BlackScholes",
     (0.4119320997668286, -1.2376781912148407, 4.235808454674289)),
    ("SteinSteinAffine",
     (0.24775100817039433, -1.2316710300013398, 3.434437261643168)),
])
def test_injected_two_intervals_match_literal_products(tag, frozen):
    """The engine's prefix fold equals the literal weight products.

    Both sides use the same grid and Gaussian draws; the engine folds the
    prefix recurrences over a batch of paths, while the reference builds
    each step with ``make_step`` and expands the products term by term.
    """
    zeta, z1, z2 = (0.0, 0.2, 0.5), (0.7, -0.3), (0.1, 1.1)
    model = builtin(tag)
    cfg, (x, price_w, delta_w, vega_w) = injected(zeta, z1, z2, n_paths=3,
                                                  model=model)
    deltas = np.diff(zeta)
    steps = chain_steps(model, cfg.x0, Y0, deltas, lambda k: (z1[k], z2[k]))
    vals = production_path_values(steps, EXPO)
    h = float(cfg.payoff(steps[-1].x_next))
    disc = math.exp(-model.r * T)
    manual = (h * product_price(vals) * disc,
              h * product_delta(vals, deltas) / (S0 * T) * disc,
              h * product_vega(vals, deltas) / T * disc)
    engine = (discounted(cfg, x, price_w), discounted(cfg, x, delta_w) / (S0 * T),
              discounted(cfg, x, vega_w) / T)

    for got, man, pin in zip(engine, manual, frozen):
        assert got == pytest.approx(man, rel=1e-13, abs=1e-15)
        assert got == pytest.approx(pin, rel=1e-12)


# ---------------------------------------------------------------------------
# Determinism


def test_results_do_not_depend_on_thread_count():
    cfgs = [base_config(payoff=Payoff.call(1.2), n_paths=5000, seed=11,
                        chunk_size=512, threads=t) for t in (1, 2, 8)]
    for estimator in (estimate_price, estimate_vega):
        results = [estimator(c) for c in cfgs]
        assert results[0].mean == results[1].mean == results[2].mean
        assert (results[0].std_error == results[1].std_error
                == results[2].std_error)
        assert (results[0].n_jumps_mean == results[1].n_jumps_mean
                == results[2].n_jumps_mean)


def test_results_insensitive_to_chunk_size():
    small = estimate_price(base_config(payoff=Payoff.call(1.2), n_paths=5000,
                                       seed=11, chunk_size=512))
    big = estimate_price(base_config(payoff=Payoff.call(1.2), n_paths=5000,
                                     seed=11, chunk_size=5000))
    # same per-path contributions, different reduction grouping
    assert small.mean == pytest.approx(big.mean, rel=1e-12)
    assert small.std_error == pytest.approx(big.std_error, rel=1e-10)
    assert small.n_jumps_mean == big.n_jumps_mean


def test_runs_are_reproducible_for_fixed_seed():
    cfg = base_config(payoff=Payoff.call(1.2), n_paths=2000, seed=3)
    a, b = estimate_delta(cfg), estimate_delta(cfg)
    assert a.mean == b.mean
    assert a.std_error == b.std_error


def test_discount_flag_scales_by_exp_rt():
    disc = estimate_price(base_config(payoff=Payoff.call(1.2), n_paths=2000,
                                      seed=5, discount=True))
    nodisc = estimate_price(base_config(payoff=Payoff.call(1.2), n_paths=2000,
                                        seed=5, discount=False))
    r = builtin("BlackScholes").r
    assert nodisc.mean == pytest.approx(disc.mean * math.exp(r * T), rel=1e-12)


# ---------------------------------------------------------------------------
# Diagnostics


def test_mean_jump_count_matches_renewal_rate():
    res = estimate_price(base_config(n_paths=20000, seed=7))
    # exponential(0.5) gaps over T = 0.5: expected count is 0.25
    assert abs(res.n_jumps_mean - 0.25) < 0.02


class _PoisonPayoff:
    strike = 1.0

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), np.nan)


def test_non_finite_contributions_abort():
    cfg = base_config(payoff=_PoisonPayoff(), n_paths=32, seed=0)
    with pytest.raises(NonFinitePathError, match="non-finite"):
        estimate_price(cfg)


def test_estimate_result_fields():
    res = estimate_price(base_config(payoff=Payoff.call(1.2), n_paths=500,
                                     seed=1))
    assert isinstance(res, EstimateResult)
    assert res.n_paths == 500
    assert res.elapsed > 0.0
    assert res.ci95 == pytest.approx(
        (res.mean - 1.96 * res.std_error, res.mean + 1.96 * res.std_error))
