"""Correction weights: operator kernels, transfer triples, path products.

Path products are the engine's own per-path weights, checked against
literal sum-over-splittings expansions of the closed-form step weights.

The deep checks work in three layers: frozen single-step examples that can
be verified by hand, exact identities (duality under the Gaussian step,
transfer of the y-derivative, finite-difference chain rules), and full
equivalence against the independent jet oracle.
"""

import math

import numpy as np
import pytest

from uvol.chain import one_minus_rho_sq
from uvol.estimators import Payoff, RunConfig
from uvol.flow import frozen_coeffs
from uvol.renewal import DomainError, JumpSampler, density
from uvol.rng import normal_pair
from uvol.weights import (FoldWeights, conditional_rows, step_weights,
                          terminal_weights)

from helpers import (builtin, chain_steps, engine_weights, fixed_grid,
                     fixed_normals, gh_step_expectation, make_step,
                     philox_grid, rel_err, step_from_states, synthetic_model)
from jet_oracle import (oracle_model_from_kind, oracle_step_weights,
                        oracle_terminal_weights, product_delta, product_price,
                        product_vega, production_path_values)

EXPO = JumpSampler.exponential(0.5)
BETA = JumpSampler.beta_one_minus_alpha(0.1, 2.0)
BS = builtin("BlackScholes")
STEIN = builtin("SteinSteinAffine")
COSINE = builtin("PeriodicCosine")


def _models():
    from uvol.model import BuiltinModelKind
    from jet_oracle import oracle_synthetic_model
    return [
        (BS, oracle_model_from_kind(BuiltinModelKind(tag="BlackScholes"))),
        (STEIN, oracle_model_from_kind(BuiltinModelKind(tag="SteinSteinAffine"))),
        (COSINE, oracle_model_from_kind(BuiltinModelKind(tag="PeriodicCosine"))),
        (synthetic_model(), oracle_synthetic_model()),
    ]


def engine_config(model, sampler, n_paths=1, **overrides):
    kwargs = dict(model=model, payoff=Payoff.call(1.5), sampler=sampler,
                  s0=math.exp(0.4), y0=0.2, T=0.5, n_paths=n_paths, seed=0)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


# ----------------------------------------------------- frozen step values ---

def test_base_operator_values_unit_shock():
    step = make_step(BS, 0.4, 0.2, 0.5, 1.0, 0.0)
    ops = step_weights(step, EXPO)
    # I1_1 = z1/sigma_S - rho z2/(sigma_S sqrt(1-rho^2)) with z2 = 0
    assert ops.I1_1 == pytest.approx(5.65685424949238, rel=1e-14)
    assert ops.I1_1 == pytest.approx(1.0 / step.fc.sigma_S_i, rel=1e-14)
    assert ops.I2_1 == 0.0
    assert ops.D1_I1_1 == pytest.approx(50.0, rel=1e-12)
    assert ops.D1_I1_1 == pytest.approx(
        1.0 / (step.fc.a_S_i * (1 - step.fc.rho_i ** 2)), rel=1e-12)
    assert ops.D2_I2_1 == pytest.approx(78.125, rel=1e-12)
    assert ops.D2_I1_1 == pytest.approx(ops.D1_I2_1, rel=1e-12)


def test_score_kernels_are_proxy_score():
    """I1_1/I2_1 equal minus the state-gradient of log proxy density."""
    from uvol.chain import proxy_density
    m = synthetic_model()
    step = make_step(m, 0.4, 0.25, 0.3, 0.7, -0.4)
    ops = step_weights(step, EXPO)
    h = 1e-6
    xn, yn = float(step.x_next), float(step.y_next)

    def logp(x, y):
        return math.log(proxy_density(step.fc, 0.4, 0.25, x, y, m.r))

    assert ops.I1_1 == pytest.approx(
        -(logp(xn + h, yn) - logp(xn - h, yn)) / (2 * h), abs=1e-5)
    assert ops.I2_1 == pytest.approx(
        -(logp(xn, yn + h) - logp(xn, yn - h)) / (2 * h), abs=1e-5)


def test_theta_zero_noise_pins():
    step = make_step(BS, 0.4, 0.2, 0.5, 0.0, 0.0)
    # all difference terms vanish; theta = -b1_Y(m)/f(delta) = lambda/f(delta)
    assert step_weights(step, EXPO).theta == pytest.approx(math.exp(0.25), rel=1e-13)
    assert step_weights(step, BETA).theta == pytest.approx(0.9672784036623601,
                                                           rel=1e-13)


def test_theta_black_scholes_identity():
    """Constant sigma_S kills every c-term: theta = (b_w I2_1 + lam)/f."""
    rng = np.random.default_rng(4)
    lam = 0.5
    for _ in range(10):
        z1, z2 = rng.standard_normal(2)
        delta = float(rng.uniform(0.1, 0.6))
        step = make_step(BS, 0.4, float(rng.uniform(0.05, 0.45)), delta,
                         float(z1), float(z2))
        sw = step_weights(step, EXPO)
        assert sw.c_S == 0.0 and sw.c_Y == 0.0 and sw.c_YS == 0.0
        b_w = -lam * (step.y_next - step.fc.m_i)
        expect = (b_w * sw.I2_1 + lam) / density(EXPO, delta)
        assert sw.theta == pytest.approx(float(expect), rel=1e-12)


def test_transfer_collapse_black_scholes():
    """theta_eX = 0 and theta_eY = m1 * theta when sigma_S is constant."""
    rng = np.random.default_rng(5)
    for _ in range(5):
        step = make_step(BS, 0.4, float(rng.uniform(0.1, 0.4)),
                         float(rng.uniform(0.1, 0.6)),
                         float(rng.standard_normal()),
                         float(rng.standard_normal()))
        sw = step_weights(step, EXPO)
        assert sw.theta_eX == 0.0
        assert sw.theta_eY == pytest.approx(float(step.fc.m1_i * sw.theta),
                                            rel=1e-12)


def test_terminal_weights_pins():
    step = make_step(BS, 0.4, 0.2, 0.5, 0.0, 0.0)
    tw_e = terminal_weights(step, EXPO)
    tw_b = terminal_weights(step, BETA)
    assert tw_e.theta == pytest.approx(1.2840254166877414, rel=1e-14)
    assert tw_b.theta == pytest.approx(1.402868057474796, rel=1e-14)
    # BS: dY = m1 (no stochastic tilt), so theta_eY = theta * m1
    assert tw_e.theta_eY == pytest.approx(
        float(tw_e.theta * step.fc.m1_i), rel=1e-13)
    assert tw_e.theta_eX == 0.0
    assert tw_e.I1_theta == 0.0  # I1_1 = 0 at zero noise


def test_final_interval_with_zero_survival_is_rejected():
    """A Beta gap of exactly ``tau_bar`` has survival 0, so the survival
    reweighting ``1 / (1 - F)`` does not exist: both the sampled and the
    integrated-out final interval refuse it, even for one row in a batch."""
    sampler = JumpSampler.beta_one_minus_alpha(0.5, 0.4)
    delta = np.array([0.1, 0.4])
    step = make_step(STEIN, np.full(2, 0.4), np.full(2, 0.2), delta,
                     np.array([0.3, -0.2]), np.array([0.5, 1.1]))
    state = [np.ones(2), np.ones(2), np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2)]
    with pytest.raises(DomainError, match="survival"):
        terminal_weights(step, sampler)
    with pytest.raises(DomainError, match="survival"):
        conditional_rows(STEIN, step.x_prev, step.fc, sampler, state,
                         Payoff.call(1.5), 0, True)


def test_both_kernels_return_fold_weights():
    step = make_step(STEIN, 0.4, 0.2, 0.3, 0.7, -0.4)
    sw, tw = step_weights(step, EXPO), terminal_weights(step, EXPO)
    assert isinstance(sw, FoldWeights)
    assert type(tw) is FoldWeights  # no interior parts on the final interval
    assert tw.theta_c == 0.0
    assert sw.theta_c != 0.0


def test_single_interval_path_pins():
    _, price_w, delta_w, vega_w = engine_weights(
        engine_config(BS, EXPO), fixed_grid([(0.0, 0.5)]),
        fixed_normals((1.0,), (0.0,)))
    assert price_w[0] == pytest.approx(1.2840254166877414, rel=1e-14)
    # delta weight = delta * theta * I1_1
    assert delta_w[0] == pytest.approx(3.631772317423137, rel=1e-13)
    # BS: y0 cannot move the price and every vega term vanishes pathwise
    assert vega_w[0] == 0.0


# ------------------------------------------------------- duality identity ---

@pytest.mark.parametrize("model", [BS, STEIN, COSINE, synthetic_model()])
@pytest.mark.parametrize("alpha", [1, 2])
def test_duality_for_monomials(model, alpha):
    """E[I_alpha(H) g] = E[H D_alpha g] under one Gaussian step."""
    x_prev, y_prev, delta = 0.4, 0.2, 0.3
    xc = x_prev + model.r * delta  # center the monomials near the mass
    yc = float(frozen_coeffs(model, y_prev, delta).m_i)

    def g(x, y):
        return np.sin(x + 0.5 * y)

    def dg(x, y):
        return np.cos(x + 0.5 * y) * (1.0 if alpha == 1 else 0.5)

    for i, j in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:

        def integrand(step, i=i, j=j):
            ops = step_weights(step, EXPO)
            u, v = step.x_next - xc, step.y_next - yc
            H = u ** i * v ** j
            dH = (i * u ** (i - 1) * v ** j if alpha == 1 and i else
                  j * u ** i * v ** (j - 1) if alpha == 2 and j else 0.0)
            kern = ops.I1_1 if alpha == 1 else ops.I2_1
            return (H * kern - dH) * g(step.x_next, step.y_next) \
                - H * dg(step.x_next, step.y_next)

        val = gh_step_expectation(model, x_prev, y_prev, delta, integrand)
        assert abs(val) <= 1e-8, (i, j)


@pytest.mark.parametrize("model", [BS, synthetic_model()])
def test_theta_is_conditionally_centered(model):
    """E[theta] = 0 over one step.

    Every term of theta is an image of the step operators, and duality
    against the constant test function annihilates each one.  This is what
    makes the interior corrections pure covariance terms in the price.
    """
    val = gh_step_expectation(model, 0.4, 0.2, 0.5,
                              lambda step: step_weights(step, EXPO).theta)
    assert abs(val) <= 1e-8


# ----------------------------------------- chain rules (finite difference) ---

def _random_configs(seed, n):
    rng = np.random.default_rng(seed)
    return [(float(rng.uniform(0.05, 0.45)), float(rng.uniform(0.1, 0.6)),
             float(rng.standard_normal()), float(rng.standard_normal()))
            for _ in range(n)]


@pytest.mark.parametrize("model", [STEIN, COSINE, synthetic_model()])
def test_state_derivatives_match_finite_differences(model):
    """D1/D2/D2prev of theta against central differences of theta."""
    x_prev = 0.4
    h = 1e-5
    for y, delta, z1, z2 in _random_configs(11, 5):
        step = make_step(model, x_prev, y, delta, z1, z2)
        sw = step_weights(step, EXPO)
        xn, yn = float(step.x_next), float(step.y_next)

        def theta_states(x, yv):
            st = step_from_states(model, x_prev, y, delta, x, yv)
            return float(step_weights(st, EXPO).theta)

        num_x = (theta_states(xn + h, yn) - theta_states(xn - h, yn)) / (2 * h)
        num_y = (theta_states(xn, yn + h) - theta_states(xn, yn - h)) / (2 * h)
        assert abs(float(sw.D1_theta) - num_x) <= 1e-5
        assert abs(float(sw.D2_theta) - num_y) <= 1e-5

        up = step_weights(make_step(model, x_prev, y + h, delta, z1, z2), EXPO)
        dn = step_weights(make_step(model, x_prev, y - h, delta, z1, z2), EXPO)
        num_p = (float(up.theta) - float(dn.theta)) / (2 * h)
        assert abs(float(sw.D2prev_theta) - num_p) <= 1e-5


def _flow_derivatives(step):
    """``dX``, ``dY`` from the terminal weights, and the chain-rule
    derivatives ``Dprev I1_1``, ``Dprev I2_1`` of the score kernels."""
    fc = step.fc
    tw = terminal_weights(step, EXPO)
    sw = step_weights(step, EXPO)
    r2 = one_minus_rho_sq(fc)
    dprev_i11 = -(fc.sigma1_S_i / fc.sigma_S_i) * sw.I1_1 \
        - fc.rho1_i / r2 * (fc.sigma_Y_i / fc.sigma_S_i) * sw.I2_1
    dprev_i21 = -(fc.sigma1_Y_i / fc.sigma_Y_i - fc.rho1_i * fc.rho_i / r2) * sw.I2_1
    return (tw.theta_eX / tw.theta, tw.theta_eY / tw.theta,
            dprev_i11, dprev_i21)


@pytest.mark.parametrize("model", [STEIN, synthetic_model()])
def test_flow_derivatives_match_finite_differences(model):
    h = 1e-6
    for y, delta, z1, z2 in _random_configs(13, 5):
        step = make_step(model, 0.4, y, delta, z1, z2)
        dx, dy, dprev_i11, dprev_i21 = _flow_derivatives(step)
        up = make_step(model, 0.4, y + h, delta, z1, z2)
        dn = make_step(model, 0.4, y - h, delta, z1, z2)
        assert float(dx) == pytest.approx(
            (float(up.x_next) - float(dn.x_next)) / (2 * h), abs=1e-6)
        assert float(dy) == pytest.approx(
            (float(up.y_next) - float(dn.y_next)) / (2 * h), abs=1e-6)
        sw_up, sw_dn = step_weights(up, EXPO), step_weights(dn, EXPO)
        num_i1 = (float(sw_up.I1_1) - float(sw_dn.I1_1)) / (2 * h)
        num_i2 = (float(sw_up.I2_1) - float(sw_dn.I2_1)) / (2 * h)
        assert float(dprev_i11) == pytest.approx(num_i1, abs=1e-4)
        assert float(dprev_i21) == pytest.approx(num_i2, abs=1e-4)


# ----------------------------------------------- transfer of y-derivative ---

@pytest.mark.parametrize("model", [STEIN, COSINE, synthetic_model()])
def test_transfer_identity(model):
    """d/dy_prev E[h theta] = E[D2h theta_eY] + E[D1h theta_eX] + E[h theta_c]."""
    x_prev = 0.4

    def h_fn(x, y):
        return np.sin(x) * np.exp(0.5 * y)

    def dhx(x, y):
        return np.cos(x) * np.exp(0.5 * y)

    def dhy(x, y):
        return 0.5 * np.sin(x) * np.exp(0.5 * y)

    for y, delta in [(0.2, 0.3), (0.35, 0.5)]:
        eps = 1e-4

        def lhs_at(yp):
            return gh_step_expectation(
                model, x_prev, yp, delta,
                lambda st: h_fn(st.x_next, st.y_next) * step_weights(st, EXPO).theta)

        lhs = (lhs_at(y + eps) - lhs_at(y - eps)) / (2 * eps)

        def rhs_fn(st):
            sw = step_weights(st, EXPO)
            return (dhy(st.x_next, st.y_next) * sw.theta_eY
                    + dhx(st.x_next, st.y_next) * sw.theta_eX
                    + h_fn(st.x_next, st.y_next) * sw.theta_c)

        rhs = gh_step_expectation(model, x_prev, y, delta, rhs_fn)
        assert abs(lhs - rhs) <= 1e-5


def test_terminal_transfer_is_flow_derivative():
    """Last interval: the y_prev-derivative needs no correction term."""
    model = synthetic_model()
    x_prev, y, delta = 0.4, 0.25, 0.4

    def h_fn(x, yv):
        return np.sin(x) * np.exp(0.5 * yv)

    def dhx(x, yv):
        return np.cos(x) * np.exp(0.5 * yv)

    def dhy(x, yv):
        return 0.5 * np.sin(x) * np.exp(0.5 * yv)

    eps = 1e-4
    # the final theta is state-independent, so it scales both sides equally and
    # the identity reduces to the plain flow-derivative transport of h.
    lhs = (gh_step_expectation(model, x_prev, y + eps, delta,
                               lambda st: h_fn(st.x_next, st.y_next))
           - gh_step_expectation(model, x_prev, y - eps, delta,
                                 lambda st: h_fn(st.x_next, st.y_next))) / (2 * eps)

    def rhs_fn(st):
        tw = terminal_weights(st, EXPO)
        dx, dy = tw.theta_eX / tw.theta, tw.theta_eY / tw.theta
        return dhy(st.x_next, st.y_next) * dy + dhx(st.x_next, st.y_next) * dx

    rhs = gh_step_expectation(model, x_prev, y, delta, rhs_fn)
    assert abs(lhs - rhs) <= 1e-5


# ------------------------------------------------- oracle equivalence (unit) ---

def test_step_weights_match_jet_oracle():
    rng = np.random.default_rng(7)
    for model, om in _models():
        for _ in range(3):
            step = make_step(model, 0.4, float(rng.uniform(0.1, 0.4)),
                             float(rng.uniform(0.15, 0.5)),
                             float(rng.standard_normal()),
                             float(rng.standard_normal()))
            sw = step_weights(step, EXPO)
            ov = oracle_step_weights(om, step, EXPO)
            got = {
                "theta": sw.theta, "theta_eY": sw.theta_eY,
                "theta_eX": sw.theta_eX, "theta_c": sw.theta_c,
                "I1_theta": sw.I1_theta, "I2_theta_eY": sw.I2_theta_eY,
                "I1_theta_eX": sw.I1_theta_eX, "D1_theta": sw.D1_theta,
                "D2_theta": sw.D2_theta, "Dprev_theta": sw.D2prev_theta,
                "I1_1": sw.I1_1, "I2_1": sw.I2_1, "c_S": sw.c_S,
                "c_Y": sw.c_Y, "b_Y_w": sw.b_Y_w, "c_YS": sw.c_YS,
            }
            for key, val in got.items():
                assert rel_err(float(val), ov[key]) <= 1e-11, key


def test_terminal_weights_match_jet_oracle():
    rng = np.random.default_rng(8)
    for model, om in _models():
        step = make_step(model, 0.4, 0.22, 0.31,
                         float(rng.standard_normal()),
                         float(rng.standard_normal()))
        tw = terminal_weights(step, BETA)
        ov = oracle_terminal_weights(om, step, BETA)
        got = {
            "theta": tw.theta, "theta_eY": tw.theta_eY,
            "theta_eX": tw.theta_eX, "I1_theta": tw.I1_theta,
            "I2_theta_eY": tw.I2_theta_eY, "I1_theta_eX": tw.I1_theta_eX,
        }
        for key, val in got.items():
            assert rel_err(float(val), ov[key]) <= 1e-11, key


# ------------------------------------------- path products vs recurrences ---

def _check_engine_against_products(cfg, grid, ids, normals):
    """Engine weights of each path against literal products of its steps."""
    _, price_w, delta_w, vega_w = engine_weights(cfg, grid, normals, ids=ids)
    gaps, n_jumps, last_gap = grid
    for i, p in enumerate(ids):
        deltas = list(gaps[i, :n_jumps[i]]) + [last_gap[i]]
        steps = chain_steps(cfg.model, cfg.x0, cfg.y0, deltas,
                            lambda k: normals(k, ids[i:i + 1]))
        vals = production_path_values(steps, cfg.sampler)
        assert rel_err(price_w[i], product_price(vals)) <= 1e-12
        assert rel_err(delta_w[i], product_delta(vals, deltas)) <= 1e-12
        assert rel_err(vega_w[i], product_vega(vals, deltas)) <= 1e-12


@pytest.mark.parametrize("sampler", [EXPO, BETA])
def test_path_weights_match_literal_products(sampler):
    """The engine's O(1)-state recurrences equal the literal sum-over-splittings."""
    ids = np.arange(60, dtype=np.uint64)
    grid = philox_grid(sampler, 0.5, 21, ids)
    _check_engine_against_products(
        engine_config(STEIN, sampler, n_paths=60, seed=21), grid, ids,
        lambda k, p: normal_pair(21, p, k))
    # the sample must exercise single- and multi-interval paths
    assert np.any(grid[1] == 0) and np.any(grid[1] > 0)


def test_deep_grid_weights_match_literal_products():
    """A ten-jump grid, next to shallower ones in the same batch."""
    deep = tuple(np.linspace(0.0, 0.45, 11)) + (0.5,)
    grid = fixed_grid([deep, (0.0, 0.2, 0.5), (0.0, 0.5)])
    assert grid[1][0] == 10
    ids = np.arange(3, dtype=np.uint64)
    _check_engine_against_products(engine_config(STEIN, EXPO, n_paths=3), grid,
                                   ids, lambda k, p: normal_pair(2, p, k))
