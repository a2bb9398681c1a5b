"""uvol's own normal CDF and inverse: closeness to scipy, edge values, input
shapes, no warnings, and no scipy import at run time.

``scipy.special`` is the reference here only.  Measured on numpy 2.4.6 with
scipy 1.17.1 (x86-64 Intel): ``ndtri`` differs from scipy in 142 of the 2 M
engine uniforms below, by at most 5 ulp, and in 21 of the 400 000 tail
values, by at most 2 ulp; ``ndtr`` differs in 33 419 of the 1.93 M grid
values it is checked on, by at most 4 ulp (3 ulp on ``[-12, 12]``).  The
gaps come from numpy's ``log`` and ``exp`` against the C library's, whose
errors differ by build and CPU, so the bound allows twice the largest gap.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sc

import uvol
from uvol.normal import ndtr, ndtri
from uvol.rng import NORMAL_STREAM, uniform_pair

MAX_ULP = 10

# the engine's own floating-point regime, plus division by zero
RAISE = dict(over="raise", invalid="raise", divide="raise")


def _ulp_gap(a, b):
    """Elementwise distance in units in the last place (finite doubles)."""
    def ordered(v):
        i = np.asarray(v, dtype=np.float64).view(np.int64)
        return np.where(i < 0, np.int64(-2 ** 63) - i, i)
    return np.abs(ordered(a) - ordered(b))


def _tails():
    """Log-spaced lower tails from 2**-54 to exp(-2) and their mirrors."""
    low = np.geomspace(2.0 ** -54, 0.2, 200_000)
    return np.concatenate([low, 1.0 - low])


def test_ndtri_matches_scipy_on_engine_uniforms():
    u = np.concatenate(uniform_pair(3, np.arange(1_000_000), NORMAL_STREAM, 0))
    with np.errstate(**RAISE):
        got = ndtri(u)
    assert u.size == 2_000_000
    assert _ulp_gap(got, sc.ndtri(u)).max() <= MAX_ULP


def test_ndtri_matches_scipy_in_both_tails():
    y = _tails()
    with np.errstate(**RAISE):
        got = ndtri(y)
    assert y.min() == 2.0 ** -54 and y.max() == 1.0 - 2.0 ** -54
    assert _ulp_gap(got, sc.ndtri(y)).max() <= MAX_ULP


def test_ndtr_matches_scipy_on_a_wide_grid():
    a = np.linspace(-40.0, 40.0, 2_000_001)
    with np.errstate(**RAISE):
        got = ndtr(a)
    ref = sc.ndtr(a)
    keep = ref >= 1e-300
    assert keep.sum() > 1_800_000
    assert _ulp_gap(got[keep], ref[keep]).max() <= MAX_ULP
    # below that, both have underflowed to (almost) nothing
    assert np.all(got[~keep] < 1e-290)


def test_ndtr_inverts_ndtri():
    y = np.concatenate([np.linspace(0.001, 0.999, 9999), _tails()[::97]])
    assert np.allclose(ndtr(ndtri(y)), y, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("y, expected", [
    (0.0, -np.inf), (1.0, np.inf), (0.5, 0.0), (np.nan, np.nan),
    (np.inf, np.nan), (-np.inf, np.nan), (-0.25, np.nan), (1.25, np.nan),
    (5e-324, sc.ndtri(5e-324)), (1.0 - 2.0 ** -53, sc.ndtri(1.0 - 2.0 ** -53)),
])
def test_ndtri_special_values(y, expected):
    with np.errstate(**RAISE):
        got = ndtri(y)
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(got, sc.ndtri(y))


@pytest.mark.parametrize("a, expected", [
    (np.inf, 1.0), (-np.inf, 0.0), (np.nan, np.nan), (0.0, 0.5),
    (1e308, 1.0), (-1e308, 0.0), (-38.0, 0.0), (38.0, 1.0),
    (5e-324, 0.5), (-1e-300, 0.5),
])
def test_ndtr_special_values(a, expected):
    with np.errstate(**RAISE):
        got = ndtr(a)
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(got, sc.ndtr(a))


def test_special_values_in_one_array():
    """Edge values mixed with ordinary ones: each element is handled alone."""
    y = np.array([0.0, 0.3, 1.0, np.nan, 0.9, -1.0, 1e-20, np.inf, 1.0 - 1e-12])
    a = np.array([-np.inf, -50.0, -3.0, np.nan, 0.2, 12.0, np.inf, -9.0])
    with np.errstate(**RAISE):
        np.testing.assert_array_equal(np.isnan(ndtri(y)), np.isnan(sc.ndtri(y)))
        assert _ulp_gap(np.nan_to_num(ndtri(y)), np.nan_to_num(sc.ndtri(y))).max() <= MAX_ULP
        assert _ulp_gap(np.nan_to_num(ndtr(a)), np.nan_to_num(sc.ndtr(a))).max() <= MAX_ULP
    assert np.isnan(ndtr(a)[3])


@pytest.mark.parametrize("fn, values", [
    (ndtri, np.linspace(1e-9, 1.0 - 1e-9, 48)),
    (ndtr, np.linspace(-30.0, 30.0, 48)),
])
def test_input_kinds(fn, values):
    flat = fn(values)
    # a Python float and a 0-d array give a numpy float, as ufuncs do
    for x in (float(values[5]), np.array(values[5])):
        out = fn(x)
        assert isinstance(out, np.float64) and out == flat[5]
    grid = values.reshape(6, 8)
    assert fn(grid).shape == (6, 8)
    np.testing.assert_array_equal(fn(grid), flat.reshape(6, 8))
    # non-contiguous views and lists
    np.testing.assert_array_equal(fn(grid[:, ::3]), flat.reshape(6, 8)[:, ::3])
    np.testing.assert_array_equal(fn(grid.T), flat.reshape(6, 8).T)
    np.testing.assert_array_equal(fn(values.tolist()), flat)
    assert fn(np.empty((0, 3))).shape == (0, 3)
    # the input is not written to
    copy = grid.copy()
    fn(grid)
    np.testing.assert_array_equal(grid, copy)


def test_no_scipy_module_is_loaded_at_run_time():
    """``import uvol``, one estimate on each builtin, the Black-Scholes
    closed forms and ``python -m uvol price`` load no module of scipy."""
    env = dict(os.environ)
    src = str(Path(uvol.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    script = textwrap.dedent("""
        import math, sys
        import uvol
        from uvol import (BuiltinModelKind, JumpSampler, Payoff, RunConfig,
                          bs_delta, bs_price, estimate_delta, estimate_price,
                          estimate_vega, make_builtin)
        for tag, est in (("BlackScholes", estimate_price),
                         ("SteinSteinAffine", estimate_delta),
                         ("PeriodicCosine", estimate_vega)):
            est(RunConfig(model=make_builtin(BuiltinModelKind(tag=tag)),
                          payoff=Payoff.call(1.5),
                          sampler=JumpSampler.exponential(2.0),
                          s0=math.exp(0.4), y0=0.2, T=0.5, n_paths=200, seed=1))
        bs_price(1.0, 1.1, 0.0, 0.5, 0.3), bs_delta(1.0, 1.1, 0.0, 0.5, 0.3)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "uvol", "price", "--model", "bs",
         "--paths", "2000", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "uvol.normal" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]
