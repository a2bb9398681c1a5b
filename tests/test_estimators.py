# Chunked Monte Carlo engine: payoffs, run configuration, aggregation,
# the per-path core on fixed grids and draws, and determinism.

import cProfile
import math
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import (builtin, chain_steps, fixed_gaps, fixed_normals, path_weights,
                     philox_gaps, synthetic_model)
from jet_oracle import (product_delta, product_price, product_vega,
                        production_path_values)
from uvol import estimators
from uvol.baselines import EulerConfig, euler_price
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
from uvol.rng import normal_pair

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
    {"y0": math.nan},
    {"T": 2001.0},  # 1000.5 expected jumps of mean 2
    {"y0": math.inf},
])
def test_run_config_rejects_bad_arguments(overrides):
    with pytest.raises(ParameterError):
        base_config(**overrides)


@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 5])
def test_run_config_refuses_seeds_beyond_the_philox_key(seed):
    # the key takes 64 bits: 2**64 + 5 would otherwise draw as seed 5
    with pytest.raises(ParameterError, match=r"seed must be in \[0, 2\*\*64\)"):
        base_config(seed=seed)


@pytest.mark.parametrize("field", ["n_paths", "seed", "threads", "chunk_size"])
@pytest.mark.parametrize("value", [1.5, 2000.0, True, "7", None])
def test_run_config_refuses_counts_and_seeds_that_are_not_integers(field, value):
    # seed=1.5 and seed=True ran as seed 1; n_paths=2000.0 and
    # chunk_size=700.5 failed in range() with a bare TypeError
    with pytest.raises(ParameterError, match=f"{field} must be an integer"):
        base_config(**{field: value})


def test_run_config_takes_numpy_integers():
    cfg = base_config(n_paths=np.int64(64), seed=np.uint64(3), chunk_size=np.int32(16))
    assert estimate_price(cfg).mean == estimate_price(base_config(seed=3, chunk_size=16)).mean


def test_run_config_takes_the_whole_seed_range():
    assert base_config(seed=0).seed == 0
    assert base_config(seed=(1 << 64) - 1).seed == (1 << 64) - 1


def test_grid_width_cap_names_horizon_and_mean_gap():
    with pytest.raises(ParameterError, match=r"T = 2001.0 .* mean gaps of 2\b"):
        base_config(T=2001.0)
    assert base_config(T=2000.0).T == 2000.0  # exactly 1000 expected jumps


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


def test_aggregate_extras_are_named_keywords():
    res = aggregate([(3.0, 9.0, 1)])
    assert math.isnan(res.n_jumps_mean) and res.elapsed == 0.0
    assert all(math.isnan(z) for z in res.control_z)
    with pytest.raises(TypeError):
        aggregate([(3.0, 9.0, 1)], elapsed_s=1.25)  # misspelt, not dropped
    with pytest.raises(TypeError):
        aggregate([(3.0, 9.0, 1)], 0.5)  # the extras are keyword-only


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
    out = path_weights(cfg, fixed_gaps([zeta] * n_paths)[0], fixed_normals(z1, z2))
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
    deltas = fixed_gaps([zeta])[1][0]
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


LAG_ZETAS = [(0.0, 0.1, 0.2, 0.35, 0.5), (0.0, 0.5), (0.0, 0.15, 0.3, 0.5),
             (0.0, 0.05, 0.25, 0.4, 0.5), (0.0, 0.3, 0.5)]


@pytest.mark.parametrize("kind", [None, "price", "delta", "vega"])
@pytest.mark.parametrize("tag", ["SteinSteinAffine", "synthetic"])
def test_a_slot_lagging_its_round_moves_no_bit(tag, kind):
    """After a redrawn gap a path's interval k comes a round after the
    other paths' interval k, so one round steps mixed intervals.  The rows
    equal those of the same grid with every interval in its round."""
    model = synthetic_model() if tag == "synthetic" else builtin(tag)
    cfg = base_config(model=model, n_paths=len(LAG_ZETAS), seed=5)

    def run(lag):
        """The rows, the intervals of each walk and the number of rounds."""
        gaps, walks, rounds = fixed_gaps(LAG_ZETAS, lag)[0], [], []

        def counted(ia, j):
            rounds.append(j)
            return gaps(ia, j)

        def normals(k, p):
            walks.append(k)
            return normal_pair(cfg.seed, p, k)

        return path_weights(cfg, counted, normals, kind), walks, len(rounds)

    (want, _, n_rounds), (got, walks, lagged_rounds) = run(None), run((0, 1))
    interior = walks[:-1] if kind is None else walks
    assert any(np.unique(k).size > 1 for k in interior)
    assert lagged_rounds == n_rounds + 1
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


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


_BLOCK_CASES = [(tag, kind) for kind in (None, "price", "vega")
                for tag in ("PeriodicCosine", "synthetic")]


@pytest.mark.parametrize("block", [2, 3])
@pytest.mark.parametrize("tag, kind", _BLOCK_CASES,
                         ids=[t if k is None else f"{t}-{k}" for t, k in _BLOCK_CASES])
def test_block_size_moves_no_bit_of_any_path(monkeypatch, tag, kind, block):
    # Quadrature models: 101 paths leave a lone row at both block sizes, and
    # it must round as it does inside a larger block.  Without ``kind`` the
    # final intervals are sampled; with it, the conditional rows (14 on the
    # cosine model, 8 on the synthetic one) are written block by block into
    # the rows that held each path's state.
    model = synthetic_model() if tag == "synthetic" else builtin(tag)
    cfg = base_config(model=model, sampler=JumpSampler.exponential(2.0),
                      n_paths=101, seed=11)
    ids = np.arange(cfg.n_paths, dtype=np.uint64)

    def weights():
        return path_weights(cfg, philox_gaps(cfg.sampler, cfg.seed, ids),
                            lambda k, p: normal_pair(cfg.seed, p, k), kind)

    whole = weights()
    monkeypatch.setattr(estimators, "_BLOCK", block)
    for a, b in zip(whole, weights()):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("kind", [None, "price", "vega"])
@pytest.mark.parametrize("tag", ["SteinSteinAffine", "PeriodicCosine"])
def test_a_path_ignores_its_chunk_mates(tag, kind):
    """A path's grid and draws depend only on the seed and its id, so the
    engine on a subset of the paths gives their columns of the full run, bit
    for bit, on the sampled route and on the conditional one."""
    cfg = base_config(model=builtin(tag), sampler=JumpSampler.exponential(2.0),
                      n_paths=101, seed=11)
    ids = np.arange(1000, 1000 + 2 * cfg.n_paths, 2, dtype=np.uint64)
    keep = np.random.default_rng(4).random(ids.size) < 0.4
    normals = lambda k, p: normal_pair(cfg.seed, p, k)  # noqa: E731
    whole, part = (path_weights(cfg, philox_gaps(cfg.sampler, cfg.seed, sub), normals,
                                kind, ids=sub) for sub in (ids, ids[keep]))
    for a, b in zip(whole, part):
        assert np.array_equal(a[keep].view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("steps", [50, 100])
def test_rk4_route_call_price_agrees_with_euler(steps):
    # No builtin runs the RK4 flow: the synthetic model's drift is not OU,
    # so every frozen coefficient walks the RK4 nodes of the quadrature.
    model = synthetic_model()
    est = estimate_price(base_config(
        model=model, sampler=JumpSampler.beta_one_minus_alpha(0.5, 1.0),
        n_paths=200_000, seed=1))
    euler = euler_price(model, Payoff.call(1.5), S0, Y0, T,
                        EulerConfig(n_steps=steps, n_paths=200_000, seed=2))
    assert abs(est.mean - euler.mean) <= 3.0 * math.hypot(est.std_error,
                                                          euler.std_error)


def test_one_chunk_working_set_is_block_sized():
    # 131 072 paths of the affine-greeks contract: whole-chunk kernels peaked
    # at about 117 MB of traced memory, blocked ones at 41.4 MB while the
    # chunk kept a NaN-padded (n, max jumps) gap matrix, and 28.9 MB with
    # compact gap columns dropped before the final pass.  A final pass in
    # path order, writing its rows over each path's state, brought it to
    # 27.3 MB, and keeping the state in one (8, n) matrix that the final pass
    # grows in place, walked round by round over stored jump records, to
    # 26.3 MB.  Stepping each round's jumpers as soon as their gaps are drawn,
    # with the round's draws dropped first and no grid stored, brought it to
    # 25.0 MB; the bound is that figure plus 9%.  (Keeping the round's draws
    # alive while it steps reads 28.5 MB.)  Copying the state into the
    # conditional matrix, which a profiler cannot break as it did the
    # in-place resize, with the weights skipping the terms the declarations
    # zero, reads 25.4 MB.  numpy reports its buffers to
    # tracemalloc, so the figure does not depend on the allocator.
    cfg = base_config(model=builtin("SteinSteinAffine"),
                      sampler=JumpSampler.beta_one_minus_alpha(0.5, 1.0),
                      n_paths=1 << 17)
    tracemalloc.start()
    try:
        estimators._chunk_partials(cfg, 0, cfg.chunk_size, "price")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 27.3e6


def test_quadrature_chunk_working_set_is_block_sized():
    # 32 768 paths of the cosine-digital contract, its one chunk: 8.7 MB of
    # traced memory with the final pass in quarter blocks, 8.9 MB with full
    # ones written over each path's state, and 8.8 MB with that state in one
    # matrix grown in place for the final pass; 8.3 MB with the state copied
    # into that matrix and the weights skipping the terms the declarations
    # zero.  The bound is the first figure plus 9%, as for the affine chunk.
    # A small chunk first fills the caches a process builds once (the
    # quadrature rule, Philox keys).
    cfg = base_config(model=builtin("PeriodicCosine"), payoff=Payoff.digital_call(1.5),
                      sampler=JumpSampler.exponential(0.5), n_paths=1 << 15)
    estimators._chunk_partials(cfg, 0, 64, "price")
    tracemalloc.start()
    try:
        estimators._chunk_partials(cfg, 0, cfg.n_paths, "price")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.48e6


def _bits(res):
    return [float(v).hex() for v in (res.mean, res.std_error, *res.control_z)]


@pytest.mark.parametrize("quantity", ["price", "delta", "vega"])
def test_profiled_estimate_keeps_every_bit(quantity):
    """A profiler holds references to the engine's frames.  The final pass
    grew its state matrix with ndarray.resize, whose reference check then
    failed on every default estimate; it now copies the state instead."""
    cfg = base_config(model=builtin("SteinSteinAffine"), n_paths=3000, seed=4)
    estimate = getattr(estimators, f"estimate_{quantity}")
    plain = estimate(cfg)
    profiled = cProfile.Profile().runcall(estimate, cfg)
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(event))
    try:
        hooked = estimate(cfg)
    finally:
        sys.setprofile(None)
    assert calls
    assert _bits(profiled) == _bits(hooked) == _bits(plain)


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

    def value_spot(self, s):
        return np.full_like(np.asarray(s, dtype=float), np.nan)

    def gauss_moments(self, mu, s):
        nan = np.full_like(np.asarray(mu, dtype=float), np.nan)
        return nan, nan, nan


def test_non_finite_contributions_abort():
    cfg = base_config(payoff=_PoisonPayoff(), n_paths=32, seed=0)
    with pytest.raises(NonFinitePathError, match="non-finite"):
        estimate_price(cfg)


def test_overflow_in_a_step_kernel_aborts():
    """At y0 = 1e154 the Vega weights overflow inside ``step_weights``: the
    chunk raises instead of reporting a zero with a zero-width interval."""
    cfg = base_config(model=builtin("SteinSteinAffine"), y0=1e154, n_paths=100)
    with pytest.raises(NonFinitePathError, match="overflow .* in a step of chunk"):
        estimate_vega(cfg)


def test_estimate_result_fields():
    res = estimate_price(base_config(payoff=Payoff.call(1.2), n_paths=500,
                                     seed=1))
    assert isinstance(res, EstimateResult)
    assert res.n_paths == 500
    assert res.elapsed > 0.0
    assert res.ci95 == pytest.approx(
        (res.mean - 1.96 * res.std_error, res.mean + 1.96 * res.std_error))
