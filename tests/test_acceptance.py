# End-to-end acceptance gate.
#
# Ten criteria: statistical reproduction of the constant-volatility
# reference values, cross-method consistency on the stochastic-volatility
# models, exactness of the operator identities (duality, chain rule,
# transfer of derivatives), brute-force oracle equivalence of the weight
# assembly, determinism, quadrature exactness, and variance stability of
# the heavy-tailed grid sampler.  Each test records one PASS/FAIL line,
# printed in the terminal summary.

import math
import time

import numpy as np

from conftest import record_criterion
from helpers import (
    builtin,
    chain_steps,
    engine_weights,
    gh_step_expectation,
    make_step,
    philox_grid,
    rel_err,
    step_from_states,
    synthetic_model,
)
from jet_oracle import (
    oracle_model_from_kind,
    oracle_path_values,
    oracle_synthetic_model,
    product_delta,
    product_price,
    product_vega,
)
from uvol.baselines import EulerConfig, euler_price
from uvol.chain import proxy_density
from uvol.estimators import (
    Payoff,
    RunConfig,
    estimate_delta,
    estimate_price,
    estimate_vega,
)
from uvol.flow import frozen_coeffs, simpson38
from uvol.model import BuiltinModelKind
from uvol.renewal import JumpSampler
from uvol.rng import normal_pair
from uvol.weights import step_weights

S0 = math.exp(0.4)
Y0 = 0.2
T = 0.5
K = 1.5
M = 1_000_000
THREADS = 2

EXPO = JumpSampler.exponential(0.5)
BETA = JumpSampler.beta_one_minus_alpha(0.1, 2.0)
BETA_HALF = JumpSampler.beta_one_minus_alpha(0.5, 2.0)

SIGMA_SWEEP = (0.25, 0.3, 0.4, 0.6)
PRICE_TARGETS = (0.111804, 0.132621, 0.174152, 0.256572)
DELTA_TARGETS = (0.556589, 0.560018, 0.569512, 0.592743)
PAIR_SWEEP = ((0.1, 0.15), (0.2, 0.25), (0.3, 0.4), (0.4, 0.5))


def _bs_config(sigma, sampler, seed, **overrides):
    kwargs = dict(model=builtin("BlackScholes", sigma_s=sigma),
                  payoff=Payoff.call(K), sampler=sampler, s0=S0, y0=Y0, T=T,
                  n_paths=M, seed=seed, threads=THREADS)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def _sweep_zscores(estimator, targets, seed_base):
    """Max |mean - target| / SE over both samplers and the sigma sweep."""
    worst = 0.0
    for block, sampler in enumerate((EXPO, BETA)):
        for i, (sigma, target) in enumerate(zip(SIGMA_SWEEP, targets)):
            res = estimator(_bs_config(sigma, sampler,
                                       seed_base + 1000 * block + i))
            worst = max(worst, abs(res.mean - target) / res.std_error)
    return worst


def test_criterion_01_constant_vol_price():
    start = time.perf_counter()
    worst = _sweep_zscores(estimate_price, PRICE_TARGETS, 1000)
    elapsed = time.perf_counter() - start
    ok = worst <= 3.0 and elapsed <= 120.0
    line = record_criterion(
        1, ok, f"call price vs closed form, 4 sigmas x 2 samplers x 1e6 "
               f"paths: max|z|={worst:.2f} (gate 3.0), {elapsed:.0f}s "
               f"(limit 120s)")
    assert ok, line


def test_criterion_02_constant_vol_delta():
    worst = _sweep_zscores(estimate_delta, DELTA_TARGETS, 3000)
    ok = worst <= 3.0
    line = record_criterion(
        2, ok, f"Delta vs closed form, 4 sigmas x 2 samplers x 1e6 paths: "
               f"max|z|={worst:.2f} (gate 3.0)")
    assert ok, line


def test_criterion_03_constant_vol_vega_null():
    worst = _sweep_zscores(estimate_vega, (0.0, 0.0, 0.0, 0.0), 5000)
    ok = worst <= 3.0
    line = record_criterion(
        3, ok, f"Vega null test, 4 sigmas x 2 samplers x 1e6 paths: "
               f"max|z|={worst:.2f} (gate 3.0)")
    assert ok, line


def test_criterion_04_cross_method_consistency():
    worst = 0.0
    anchor = None
    ok = True
    for mi, tag in enumerate(("SteinSteinAffine", "PeriodicCosine")):
        for i, (s1, s2) in enumerate(PAIR_SWEEP):
            model = builtin(tag, sigma1=s1, sigma2=s2)
            ub = estimate_price(RunConfig(
                model=model, payoff=Payoff.call(K), sampler=BETA, s0=S0,
                y0=Y0, T=T, n_paths=M, seed=7000 + 100 * mi + i,
                threads=THREADS))
            ev = euler_price(model, Payoff.call(K), S0, Y0, T,
                             EulerConfig(n_steps=200, n_paths=160000,
                                         seed=9000 + 100 * mi + i))
            comb = math.hypot(ub.std_error, ev.std_error)
            worst = max(worst, abs(ub.mean - ev.mean) / comb)
            ok &= abs(ub.mean - ev.mean) <= 3.0 * comb
            if tag == "PeriodicCosine" and (s1, s2) == (0.1, 0.15):
                anchor = ub
    # the reference value for the cosine (0.1, 0.15) cell is itself a
    # Monte Carlo output rounded to 4 decimals: allow its own error budget
    anchor_ok = abs(anchor.mean - 0.1112) <= 3.0 * anchor.std_error + 3e-4
    ok = ok and anchor_ok
    line = record_criterion(
        4, ok, f"unbiased vs Euler, 2 models x 4 pairs at 1e6 vs "
               f"(200, 160k): max|z|={worst:.2f} (gate 3.0); cosine "
               f"(0.1,0.15)={anchor.mean:.6f} vs 0.1112 "
               f"({'ok' if anchor_ok else 'off'})")
    assert ok, line


def test_criterion_05_duality_identity():
    worst = 0.0
    x_prev, y_prev, delta = 0.4, 0.2, 0.3
    for tag in ("BlackScholes", "SteinSteinAffine", "PeriodicCosine"):
        model = builtin(tag)
        xc = x_prev + model.r * delta
        yc = float(frozen_coeffs(model, y_prev, delta).m_i)
        for alpha in (1, 2):
            for i, j in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:

                def integrand(step, i=i, j=j, alpha=alpha):
                    ops = step_weights(step, EXPO)
                    u, v = step.x_next - xc, step.y_next - yc
                    H = u ** i * v ** j
                    dH = (i * u ** (i - 1) * v ** j if alpha == 1 and i else
                          j * u ** i * v ** (j - 1) if alpha == 2 and j
                          else 0.0)
                    kern = ops.I1_1 if alpha == 1 else ops.I2_1
                    g = np.sin(step.x_next + 0.5 * step.y_next)
                    dg = np.cos(step.x_next + 0.5 * step.y_next) \
                        * (1.0 if alpha == 1 else 0.5)
                    return (H * kern - dH) * g - H * dg

                val = gh_step_expectation(model, x_prev, y_prev, delta,
                                          integrand)
                worst = max(worst, abs(val))
    ok = worst <= 1e-8
    line = record_criterion(
        5, ok, f"duality vs Gauss-Hermite, 3 models x 2 directions x 6 "
               f"monomials: max err={worst:.2e} (gate 1e-8)")
    assert ok, line


def test_criterion_06_chain_rule_and_transfer():
    rng = np.random.default_rng(606)
    fd_h = 1e-5
    eps = 1e-4
    worst_chain = 0.0
    worst_transfer = 0.0

    def h_fn(x, y):
        return np.sin(x) * np.exp(0.5 * y)

    def dhx(x, y):
        return np.cos(x) * np.exp(0.5 * y)

    def dhy(x, y):
        return 0.5 * np.sin(x) * np.exp(0.5 * y)

    for tag in ("BlackScholes", "SteinSteinAffine", "PeriodicCosine"):
        model = builtin(tag)
        for _ in range(20):
            y = float(rng.uniform(0.05, 0.45))
            delta = float(rng.uniform(0.05, 0.6))
            z1, z2 = (float(v) for v in rng.normal(size=2))

            # chain rule: assembled state derivatives vs finite differences
            step = make_step(model, 0.4, y, delta, z1, z2)
            sw = step_weights(step, EXPO)
            xn, yn = float(step.x_next), float(step.y_next)

            def theta_states(x, yv, y_prev=y, delta=delta, model=model):
                st = step_from_states(model, 0.4, y_prev, delta, x, yv)
                return float(step_weights(st, EXPO).theta)

            num_x = (theta_states(xn + fd_h, yn)
                     - theta_states(xn - fd_h, yn)) / (2 * fd_h)
            num_y = (theta_states(xn, yn + fd_h)
                     - theta_states(xn, yn - fd_h)) / (2 * fd_h)
            up = step_weights(make_step(model, 0.4, y + fd_h, delta, z1, z2),
                              EXPO)
            dn = step_weights(make_step(model, 0.4, y - fd_h, delta, z1, z2),
                              EXPO)
            num_p = (float(up.theta) - float(dn.theta)) / (2 * fd_h)
            worst_chain = max(worst_chain,
                              abs(float(sw.D1_theta) - num_x),
                              abs(float(sw.D2_theta) - num_y),
                              abs(float(sw.D2prev_theta) - num_p))

            # transfer of the y_prev-derivative onto weight expectations
            def lhs_at(yp, model=model, delta=delta):
                return gh_step_expectation(
                    model, 0.4, yp, delta,
                    lambda st: h_fn(st.x_next, st.y_next)
                    * step_weights(st, EXPO).theta)

            lhs = (lhs_at(y + eps) - lhs_at(y - eps)) / (2 * eps)

            def rhs_fn(st):
                w = step_weights(st, EXPO)
                return (dhy(st.x_next, st.y_next) * w.theta_eY
                        + dhx(st.x_next, st.y_next) * w.theta_eX
                        + h_fn(st.x_next, st.y_next) * w.theta_c)

            rhs = gh_step_expectation(model, 0.4, y, delta, rhs_fn)
            worst_transfer = max(worst_transfer, abs(lhs - rhs))
    ok = worst_chain <= 1e-5 and worst_transfer <= 1e-5
    line = record_criterion(
        6, ok, f"chain rule + transfer, 3 models x 20 random (y, delta): "
               f"max err {worst_chain:.2e} / {worst_transfer:.2e} "
               f"(gate 1e-5)")
    assert ok, line


def test_criterion_07_weight_oracle_equivalence():
    """The engine's own per-path weights against the jet oracle's products.

    Path ``p`` uses the exponential sampler when ``p`` is even and the Beta
    one when it is odd; of the paths ``0 .. 3*goal - 1``, the first ``goal``
    with at most four jumps are checked.  Each is rebuilt step by step from
    the engine's grid and the path's Philox normals, and the oracle weighs
    those steps.
    """
    cases = [
        (builtin("SteinSteinAffine"),
         oracle_model_from_kind(BuiltinModelKind(tag="SteinSteinAffine")), 400),
        (builtin("PeriodicCosine"),
         oracle_model_from_kind(BuiltinModelKind(tag="PeriodicCosine")), 300),
        (synthetic_model(), oracle_synthetic_model(), 300),
    ]
    keys = ("theta", "theta_eY", "theta_eX", "theta_c",
            "I1_theta", "I2_theta_eY", "I1_theta_eX")
    worst = 0.0
    n_checked = 0
    max_jumps = 0
    for ci, (model, om, goal) in enumerate(cases):
        seed = 700 + ci
        ids = np.arange(3 * goal, dtype=np.uint64)
        kept = []
        for parity, sampler in enumerate((EXPO, BETA)):
            sub = ids[parity::2]
            gaps, n_jumps, last_gap = philox_grid(sampler, T, seed, sub)
            ok = n_jumps <= 4
            kept.append((sampler, sub[ok], (gaps[ok], n_jumps[ok], last_gap[ok])))
        chosen = np.sort(np.concatenate([sub for _, sub, _ in kept]))[:goal]
        for sampler, sub, grid in kept:
            use = np.isin(sub, chosen)
            sub = sub[use]
            gaps, n_jumps, last_gap = (a[use] for a in grid)
            cfg = RunConfig(model=model, payoff=Payoff.call(K), sampler=sampler,
                            s0=S0, y0=Y0, T=T, n_paths=sub.size, seed=seed)
            _, price_w, delta_w, vega_w = engine_weights(
                cfg, (gaps, n_jumps, last_gap),
                lambda k, p: normal_pair(seed, p, k), ids=sub)
            for i, p in enumerate(sub):
                deltas = list(gaps[i, :n_jumps[i]]) + [last_gap[i]]
                steps = chain_steps(model, cfg.x0, Y0, deltas,
                                    lambda k: normal_pair(seed, int(p), k))
                ovals = oracle_path_values(om, steps, sampler)
                for st, ov in zip(steps[:-1], ovals[:-1]):
                    sw = step_weights(st, sampler)
                    for k in keys:
                        worst = max(worst, rel_err(float(getattr(sw, k)), ov[k]))
                worst = max(
                    worst,
                    rel_err(price_w[i], product_price(ovals)),
                    rel_err(delta_w[i], product_delta(ovals, deltas)),
                    rel_err(vega_w[i], product_vega(ovals, deltas)))
                n_checked += 1
                max_jumps = max(max_jumps, int(n_jumps[i]))
    ok = worst <= 1e-10 and n_checked >= 1000
    line = record_criterion(
        7, ok, f"engine weights vs brute-force oracle on {n_checked} paths "
               f"(jumps <= {max_jumps}): max rel err={worst:.2e} "
               f"(gate 1e-10)")
    assert ok, line


def test_criterion_08_deterministic_parallelism():
    results = {}
    for threads in (1, 2, 8):
        cfg = _bs_config(0.3, BETA, 77, n_paths=200000, threads=threads,
                         chunk_size=1 << 15)
        results[threads] = estimate_price(cfg)
    means = {t: r.mean for t, r in results.items()}
    ok = means[1] == means[2] == means[8] and (
        results[1].std_error == results[2].std_error == results[8].std_error)
    line = record_criterion(
        8, ok, f"thread counts (1, 2, 8) at fixed seed: means "
               f"{'identical' if ok else 'DIFFER'} ({means[1]:.12f})")
    assert ok, line


def test_criterion_09_quadrature_exactness():
    def cubic(t):
        return ((t - 2.0) * t + 3.0) * t - 1.0

    def cubic_integral(t):
        return t ** 4 / 4 - 2.0 * t ** 3 / 3 + 1.5 * t ** 2 - t

    worst_simpson = max(
        abs(simpson38(cubic, 0.7, panels=p) - cubic_integral(0.7))
        for p in (1, 2, 8))

    # proxy density mass over a wide Gauss-Legendre box
    gl_x, gl_wx = np.polynomial.legendre.leggauss(120)
    fc = frozen_coeffs(synthetic_model(), 0.22, 0.35)
    mx = 0.4 + 0.03 * 0.35 - float(fc.a_S_i) / 2
    my = float(fc.m_i)
    wx = 10.0 * float(fc.sigma_S_i)
    wy = 10.0 * float(fc.sigma_Y_i)
    xs = mx + wx * gl_x
    ys = my + wy * gl_x
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    dens = proxy_density(fc, 0.4, 0.22, X, Y, 0.03)
    mass = float(np.einsum("i,j,ij->", gl_wx * wx, gl_wx * wy, dens))
    worst_mass = abs(mass - 1.0)
    ok = worst_simpson <= 1e-12 and worst_mass <= 1e-8
    line = record_criterion(
        9, ok, f"cubic quadrature err={worst_simpson:.2e} (gate 1e-12); "
               f"proxy density mass err={worst_mass:.2e} (gate 1e-8)")
    assert ok, line


def test_criterion_10_variance_stability_heavy_tail_sampler():
    ratios = {}
    for name, estimator in (("price", estimate_price),
                            ("delta", estimate_delta),
                            ("vega", estimate_vega)):
        variances = []
        for b in range(10):
            res = estimator(_bs_config(0.25, BETA_HALF, 100 + b,
                                       n_paths=100000))
            variances.append(res.std_error ** 2 * res.n_paths)
        ratios[name] = max(variances) / min(variances)
    ok = all(r <= 2.0 for r in ratios.values())
    line = record_criterion(
        10, ok, "batch variance max/min over 10 x 1e5 paths "
                "(sampler beta alpha=0.5): " +
                ", ".join(f"{k}={v:.2f}" for k, v in ratios.items()) +
                " (gate 2.0)")
    assert ok, line
