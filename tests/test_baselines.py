# Biased reference baselines: Euler scheme, common-random-number
# finite-difference Greeks, and Black-Scholes closed forms.

import logging
import math

import numpy as np
import pytest

from helpers import builtin
from uvol.baselines import (
    EulerConfig,
    bs_delta,
    bs_price,
    euler_price,
    euler_terminal,
    fd_greek,
)
from uvol.estimators import Payoff
from uvol.model import BuiltinModelKind, ParameterError, make_builtin

S0 = math.exp(0.4)
Y0 = 0.2
T = 0.5
K = 1.5
BS = builtin("BlackScholes")


# ---------------------------------------------------------------------------
# Configuration


@pytest.mark.parametrize("kwargs", [
    {"n_steps": 0},
    {"n_paths": 0},
    {"n_steps": -5, "n_paths": 100},
    {"seed": -1},  # numpy's Philox refuses it, after the estimator has run
    {"seed": 1 << 64},
])
def test_euler_config_rejects_bad_arguments(kwargs):
    with pytest.raises(ParameterError):
        EulerConfig(**kwargs)


@pytest.mark.parametrize("field", ["n_steps", "n_paths", "seed"])
@pytest.mark.parametrize("value", [2.5, 100.0, False, "7"])
def test_euler_config_refuses_counts_and_seeds_that_are_not_integers(field, value):
    # each was accepted and then failed with a TypeError once the run started
    with pytest.raises(ParameterError, match=f"{field} must be an integer"):
        EulerConfig(**{field: value})


def test_euler_config_defaults():
    cfg = EulerConfig()
    assert cfg.n_steps == 200
    assert cfg.n_paths == 160000


# ---------------------------------------------------------------------------
# Euler scheme


class _ZeroRng:
    """Draws that are identically zero: isolates the drift update."""

    def standard_normal(self, n):
        return np.zeros(n)


def test_euler_single_drift_step():
    cfg = EulerConfig(n_steps=1, n_paths=3, seed=0)
    s, y = euler_terminal(BS, S0, Y0, T, cfg, _ZeroRng())
    # one step of size dt = 0.5: s += r*s*dt, y += lam*(mu - y)*dt
    assert s == pytest.approx(np.full(3, S0 * (1.0 + 0.03 * 0.5)), rel=1e-15)
    assert y == pytest.approx(np.full(3, 0.2 + 0.5 * (0.3 - 0.2) * 0.5),
                              rel=1e-15)


def test_euler_price_matches_closed_form_within_error():
    cfg = EulerConfig(n_steps=200, n_paths=40000, seed=2)
    res = euler_price(BS, Payoff.call(K), S0, Y0, T, cfg)
    closed = bs_price(S0, K, 0.03, T, 0.25)
    # unbiasedness up to the (small) discretization error at 200 steps
    assert abs(res.mean - closed) <= 4.0 * res.std_error + 5e-4
    assert res.n_paths == cfg.n_paths


def test_euler_price_is_reproducible():
    cfg = EulerConfig(n_steps=20, n_paths=1000, seed=5)
    a = euler_price(BS, Payoff.call(K), S0, Y0, T, cfg)
    b = euler_price(BS, Payoff.call(K), S0, Y0, T, cfg)
    assert a.mean == b.mean
    assert a.std_error == b.std_error


def test_euler_warns_on_negative_spots(caplog):
    wild = make_builtin(BuiltinModelKind(tag="BlackScholes", sigma_s=1.5))
    cfg = EulerConfig(n_steps=2, n_paths=2000, seed=0)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    with caplog.at_level(logging.WARNING, logger="uvol.baselines"):
        s, _ = euler_terminal(wild, S0, Y0, T, cfg, rng)
    assert np.any(s < 0)
    assert any("went negative" in rec.message for rec in caplog.records)


# ---------------------------------------------------------------------------
# Finite-difference Greeks


def test_fd_greek_rejects_bad_arguments():
    cfg = EulerConfig(n_steps=2, n_paths=10, seed=0)
    with pytest.raises(ParameterError, match="delta"):
        fd_greek(BS, Payoff.call(K), S0, Y0, T, "gamma", 1e-4, cfg)
    with pytest.raises(ParameterError, match="eps"):
        fd_greek(BS, Payoff.call(K), S0, Y0, T, "delta", 0.0, cfg)


@pytest.mark.parametrize("which, eps", [("delta", 1e-320), ("vega", 1e-320),
                                         ("delta", math.inf), ("vega", 1e308)])
def test_fd_greek_refuses_a_bump_that_rounds_away_or_overflows(which, eps):
    # s0 + 1e-320 == s0, so the difference quotient would read exactly 0
    cfg = EulerConfig(n_steps=2, n_paths=10, seed=0)
    y0 = 1e308 if eps == 1e308 else Y0
    with pytest.raises(ParameterError, match="bump"):
        fd_greek(BS, Payoff.call(K), S0, y0, T, which, eps, cfg)


@pytest.mark.parametrize("eps", [1e-15, 1e-14, 1e-2])
def test_fd_greek_divides_by_the_applied_bump(eps):
    """At ``s0 = e^0.4`` a bump of 1e-15 moves ``s0`` by 1.110e-15: the
    quotient must divide the path-wise difference by that, not by ``eps``."""
    cfg = EulerConfig(n_steps=4, n_paths=2000, seed=5)
    disc = math.exp(-BS.r * T)
    vals = [Payoff.call(K).value_spot(euler_terminal(
        BS, s, Y0, T, cfg, np.random.Generator(np.random.Philox(cfg.seed)))[0]) * disc
        for s in (S0, S0 + eps)]
    diff = (vals[1] - vals[0]) / ((S0 + eps) - S0)
    assert np.any(diff != 0.0)
    fd = fd_greek(BS, Payoff.call(K), S0, Y0, T, "delta", eps, cfg)
    assert fd.mean == pytest.approx(float(diff.mean()), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("which", ["price", "delta"])
def test_baselines_warn_on_negative_spots(caplog, which):
    wild = make_builtin(BuiltinModelKind(tag="BlackScholes", sigma_s=3.0))
    cfg = EulerConfig(n_steps=2, n_paths=2000, seed=0)
    with caplog.at_level(logging.WARNING, logger="uvol.baselines"):
        if which == "price":
            euler_price(wild, Payoff.call(K), S0, Y0, T, cfg)
        else:
            fd_greek(wild, Payoff.call(K), S0, Y0, T, which, 1e-2, cfg)
    assert any("went negative" in rec.message for rec in caplog.records)


def test_fd_delta_matches_closed_form():
    cfg = EulerConfig(n_steps=200, n_paths=40000, seed=2)
    fd = fd_greek(BS, Payoff.call(K), S0, Y0, T, "delta", 1e-4, cfg)
    closed = bs_delta(S0, K, 0.03, T, 0.25)
    assert abs(fd.mean - closed) <= 4.0 * fd.std_error + 1e-3


def test_fd_uses_common_random_numbers():
    """Same-seed replay: the difference has the variance of the pathwise
    difference, orders of magnitude below two independent runs."""
    cfg = EulerConfig(n_steps=50, n_paths=20000, seed=3)
    eps = 1e-4
    fd = fd_greek(BS, Payoff.call(K), S0, Y0, T, "delta", eps, cfg)
    price = euler_price(BS, Payoff.call(K), S0, Y0, T, cfg)
    naive_se = 2.0 * price.std_error / eps
    assert fd.std_error < 1e-3 * naive_se


def test_fd_vega_vanishes_for_constant_volatility():
    # sigma_S does not depend on y, so bumping y0 changes nothing
    cfg = EulerConfig(n_steps=10, n_paths=500, seed=1)
    fd = fd_greek(BS, Payoff.call(K), S0, Y0, T, "vega", 1e-4, cfg)
    assert fd.mean == 0.0
    assert fd.std_error == 0.0


# ---------------------------------------------------------------------------
# Black-Scholes closed forms


REFERENCE_ROWS = [
    # sigma, price, delta for s0 = e^0.4, K = 1.5, T = 0.5, r = 0.03
    (0.25, 0.111804, 0.556589),
    (0.30, 0.132621, 0.560018),
    (0.40, 0.174152, 0.569512),
    (0.60, 0.256572, 0.592743),
]


@pytest.mark.parametrize("sigma, price, delta", REFERENCE_ROWS)
def test_bs_closed_forms_reproduce_reference_values(sigma, price, delta):
    assert round(bs_price(S0, K, 0.03, T, sigma), 6) == price
    assert round(bs_delta(S0, K, 0.03, T, sigma), 6) == delta


def test_bs_delta_is_derivative_of_price():
    h = 1e-6
    fd = (bs_price(S0 + h, K, 0.03, T, 0.3)
          - bs_price(S0 - h, K, 0.03, T, 0.3)) / (2 * h)
    assert bs_delta(S0, K, 0.03, T, 0.3) == pytest.approx(fd, rel=1e-8)


def test_bs_forward_parity():
    # deep in the money the call converges to the discounted forward
    lo = bs_price(100.0, 1e-0 * 1.0, 0.03, T, 0.2)
    assert lo == pytest.approx(100.0 - 1.0 * math.exp(-0.03 * T), rel=1e-12)


@pytest.mark.parametrize("fn", [bs_price, bs_delta])
@pytest.mark.parametrize("bad", [
    (0.0, K, 0.03, T, 0.25),
    (S0, -1.0, 0.03, T, 0.25),
    (S0, K, 0.03, 0.0, 0.25),
    (S0, K, 0.03, T, 0.0),
])
def test_bs_closed_forms_reject_bad_arguments(fn, bad):
    with pytest.raises(ParameterError):
        fn(*bad)
