"""Pinned estimates: engine refactors must not move a mean by a single bit.

The bs and stein values were recorded with the engine as it stood before
the coefficient jet went in and before the paths were walked in jump-sorted
slices; each of those changes, the round-by-round walk in path order that
replaced the sorted slices, and the one loop of rounds that steps each
round's jumpers as soon as their gaps are drawn, with no grid stored,
claims to leave every mean bit-identical.  The quadrature-route
values (cosine, cosine-3, synthetic and the frozen coefficients) were
re-recorded when the 8-node Gauss-Legendre rule replaced the Simpson rule.
The synthetic estimates (sampled and default route) were re-recorded once
more when the RK4 walk along the nodes was extended to the flow endpoint,
which moved ``m_i`` on that route: each mean by at most 2.8e-10 relative,
2.1e-10 standard errors.  Its frozen-coefficient pins did not move.  The
stein estimates (both routes) were re-recorded when the affine closed route
took ``(1 - exp(-lambda delta)) / lambda`` and its square-rate twin from
``expm1``, which does not cancel at small ``lambda delta``: each mean moved by
at most 4.9e-13 relative.  The bs Vega estimate was re-recorded when the
normals came from uvol's own ``ndtri`` instead of scipy's, which differ in the
last few bits of a few values in a hundred thousand: its mean moved by one ulp,
1.7e-16 relative, 6.6e-17 standard errors.  No other pin moved, the default
route's included: its payoff moments' ``ndtr`` rounds these inputs as scipy's
does.  Means are compared through ``float.hex``;
standard errors to a relative 1e-13, because the sum of squares is reduced
without BLAS and so rounds differently from ``np.dot``.

The cases cover the three builtins for price, Delta and Vega, multi-chunk
runs on two threads, a non-OU model (RK4 flow nodes, full quadrature), and
runs of three paths per chunk, where many steps have a single active path.
Each estimate is
also run with blocks of 7 rows, which splits every round's jumpers and its
Philox draws and, on the default route, cuts the closed-form final pass
into single rows: the block size must not move a bit either.  Frozen coefficients are
pinned directly for one and for several points.

The pins above are on the sampled route.  The default route, with the final
interval integrated out and the controls, is pinned separately: each
chunk's sum of conditional contributions to the bit, and the estimate's
mean to a relative 1e-12.  The means were re-recorded when the Delta row
minus its translation twin joined the controls; the chunk sums did not move.
"""

import math

import numpy as np
import pytest

from helpers import builtin, plain_estimator, synthetic_model
from uvol import estimators
from uvol.estimators import Payoff, RunConfig
from uvol.flow import frozen_coeffs
from uvol.renewal import JumpSampler

# ROADMAP keeps the pinned means on the plain estimator, without the controls
ESTIMATORS = {kind: plain_estimator(kind) for kind in ("price", "delta", "vega")}


def _config(model, payoff, sampler, **overrides):
    kwargs = dict(model=model, payoff=payoff, sampler=sampler, s0=math.exp(0.4),
                  y0=0.2, T=0.5, n_paths=3000, seed=11)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


CONFIGS = {
    "bs": _config(builtin("BlackScholes"), Payoff.call(1.5),
                  JumpSampler.beta_one_minus_alpha(0.1, 2.0)),
    "stein": _config(builtin("SteinSteinAffine"), Payoff.call(1.5),
                     JumpSampler.beta_one_minus_alpha(0.5, 1.0)),
    "cosine": _config(builtin("PeriodicCosine"), Payoff.digital_call(1.5),
                      JumpSampler.exponential(0.5), chunk_size=700, threads=2),
    "cosine-3": _config(builtin("PeriodicCosine"), Payoff.call(1.5),
                        JumpSampler.exponential(2.0), n_paths=600, seed=5,
                        chunk_size=3),
    "synthetic": _config(synthetic_model(), Payoff.call(1.5),
                         JumpSampler.exponential(2.0), n_paths=1200, chunk_size=500),
}

# (config, quantity): (mean.hex(), std_error)
PINNED = {
    ("bs", "price"): ("0x1.d026d25c2167cp-4", 0.005680124023271803),
    ("bs", "delta"): ("0x1.347272c4f0252p-1", 0.0446177655442499),
    ("bs", "vega"): ("-0x1.4b0933cdcc7a0p-6", 0.052768613755589514),
    ("stein", "price"): ("0x1.3d00fbdcf5dbcp-4", 0.0058919988063397275),
    ("stein", "delta"): ("0x1.14591a87e697fp-1", 0.05903253798155799),
    ("stein", "vega"): ("0x1.72a0fe214aa6dp-5", 0.04371831100242349),
    ("cosine", "price"): ("0x1.ec6bc66cdb78bp-2", 0.016764923153694624),
    ("cosine", "delta"): ("0x1.75017baf56a5cp+0", 0.09441226801156581),
    ("cosine", "vega"): ("0x1.5970646c49848p-8", 0.15652595808297542),
    ("cosine-3", "vega"): ("0x1.3e6e6bc203430p-6", 0.10526340329696945),
    ("synthetic", "vega"): ("-0x1.ded2b2820aee7p-4", 0.10136809453891203),
}


# the default block keeps each case's plain id
CASES = [pytest.param(name, quantity, block,
                      id=f"{name}-{quantity}" + (f"-block{block}" if block else ""))
         for name, quantity in sorted(PINNED) for block in (None, 7)]


@pytest.mark.parametrize("name, quantity, block", CASES)
def test_estimate_is_bit_identical_to_pinned_value(monkeypatch, name, quantity, block):
    if block:
        monkeypatch.setattr(estimators, "_BLOCK", block)
    mean_hex, std_error = PINNED[name, quantity]
    res = ESTIMATORS[quantity](CONFIGS[name])
    assert res.mean.hex() == mean_hex
    assert res.std_error == pytest.approx(std_error, rel=1e-13, abs=0.0)


# The default estimator, recorded before the sampled final interval and the
# interior steps shared one block walk (synthetic: re-recorded for the one
# flow walk, see the module docstring).  (config, quantity): (the hex of each
# chunk's sum of conditional contributions, the estimate's mean).  No LAPACK
# call touches the sums; the mean goes through the cross-fit's np.linalg
# solve, whose rounding may vary by machine, so it is pinned to 1e-12.
DEFAULT_PINNED = {
    ("bs", "price"): (["0x1.517ab487e6107p+8"], 0.11168389872201276),
    ("bs", "delta"): (["0x1.ad7b92564c6d0p+10"], 0.5567194551002282),
    ("bs", "vega"): (["-0x1.801d5cb016790p+2"], 0.003411742883973116),
    ("stein", "price"): (["0x1.e464a837bb3b6p+7"], 0.07902490737661548),
    ("stein", "delta"): (["0x1.a97202a4c6336p+10"], 0.5472788986270019),
    ("stein", "vega"): (["0x1.558bfa21a727ep+7"], 0.04516790740855793),
    ("cosine", "price"): (["0x1.4426752759d82p+8", "0x1.4c3f0f4356f96p+8",
                           "0x1.638d56fa86888p+8", "0x1.2af53a6bfb3adp+8",
                           "0x1.9e2a5dc97bc07p+6"], 0.48068146148120355),
    ("cosine", "delta"): (["0x1.ffe09fbdcc5a4p+9", "0x1.0c49582b09176p+10",
                           "0x1.13b6b2f683e96p+10", "0x1.d0cddfd5eda69p+9",
                           "0x1.ffd81b1994337p+7"], 1.5163514189704204),
    ("cosine", "vega"): (["-0x1.3f5d92e98d246p+5", "-0x1.65641d7bd90dep+6",
                          "0x1.7ba97a966b0aep+6", "-0x1.c51eb6d7260d5p+6",
                          "0x1.40115a22e5490p+6"], -0.033412095817784815),
    ("synthetic", "price"): (["0x1.aa70d399ad5ddp+5", "0x1.06b1f89d553f4p+6",
                              "0x1.25498aabd717fp+4"], 0.12223080541559872),
    ("synthetic", "delta"): (["0x1.eaebd477e1478p+7", "0x1.34f21ac0e7441p+8",
                              "0x1.4119fc3b3d308p+6"], 0.5562884640366701),
    ("synthetic", "vega"): (["-0x1.c44233b1e0552p+4", "0x1.03a2bd93a01f6p+4",
                             "-0x1.957bc18b72d80p-5"], 0.008273223570768817),
}

DEFAULT_CASES = [pytest.param(name, quantity, block,
                              id=f"{name}-{quantity}" + (f"-block{block}" if block else ""))
                 for name, quantity in sorted(DEFAULT_PINNED) for block in (None, 7)]


@pytest.mark.parametrize("name, quantity, block", DEFAULT_CASES)
def test_default_estimate_matches_pinned_value(monkeypatch, name, quantity, block):
    """The estimator users run: each chunk's conditional sum to the bit, and
    the controlled mean.  The chunk sums are read off the estimate's own
    ``_chunk_partials`` calls, so the paths are simulated once."""
    if block:
        monkeypatch.setattr(estimators, "_BLOCK", block)
    sums = {}
    real = estimators._chunk_partials

    def chunk_partials(cfg, lo, hi, kind, conditional=True):
        out = real(cfg, lo, hi, kind, conditional)
        sums[lo] = out[0]
        return out

    monkeypatch.setattr(estimators, "_chunk_partials", chunk_partials)
    sums_hex, mean = DEFAULT_PINNED[name, quantity]
    cfg = CONFIGS[name]
    res = getattr(estimators, f"estimate_{quantity}")(cfg)
    assert [sums[lo].hex() for lo in sorted(sums)] == sums_hex
    assert len(sums) == math.ceil(cfg.n_paths / cfg.chunk_size)
    assert res.mean == pytest.approx(mean, rel=1e-12, abs=0.0)


FC_FIELDS = ("a_S_i", "a1_S_i", "sigma_SY_i", "sigma1_SY_i", "a_Y_i", "a1_Y_i")

POINTS = {
    "one": (np.array([0.25]), np.array([0.3])),
    "three": (np.array([0.25, -0.4, 1.1]), np.array([0.3, 0.05, 0.8])),
}

# (model, points): {field: [value.hex() per point]}
PINNED_FC = {
    ("cosine", "one"): {
        "a_S_i": ['0x1.2b64240ba3602p-6'],
        "a1_S_i": ['-0x1.c3fedc9218811p-9'],
        "sigma_SY_i": ['0x1.e53b9369ed305p-7'],
        "sigma1_SY_i": ['-0x1.6e4771c346144p-10'],
        "a_Y_i": ['0x1.89374bc6a7efbp-7'],
        "a1_Y_i": ['0x0.0p+0'],
    },
    ("cosine", "three"): {
        "a_S_i": ['0x1.2b64240ba3602p-6', '0x1.81334509c3bffp-9', '0x1.19b86ea970cebp-5'],
        "a1_S_i": ['-0x1.c3fedc9218811p-9', '0x1.ded2b9d2da242p-11', '-0x1.6df2f0da1ec8ap-6'],
        "sigma_SY_i": ['0x1.e53b9369ed305p-7', '0x1.3dc5298d11459p-9', '0x1.0fa206155eea7p-5'],
        "sigma1_SY_i": ['-0x1.6e4771c346144p-10', '0x1.8b02a913e8babp-12', '-0x1.62f591c7a87c2p-7'],
        "a_Y_i": ['0x1.89374bc6a7efbp-7', '0x1.0624dd2f1a9fdp-9', '0x1.0624dd2f1a9fdp-5'],
        "a1_Y_i": ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
    },
    ("synthetic", "one"): {
        "a_S_i": ['0x1.778ec6491736ep-6'],
        "a1_S_i": ['0x1.e4da72d219251p-7'],
        "sigma_SY_i": ['0x1.21ad6593a98a8p-6'],
        "sigma1_SY_i": ['0x1.3436feeacd7fep-7'],
        "a_Y_i": ['0x1.bedf2eaab7175p-7'],
        "a1_Y_i": ['0x1.7600c46c8e6d4p-8'],
    },
    ("synthetic", "three"): {
        "a_S_i": ['0x1.778ec6491736ep-6', '0x1.26bef133f7187p-9', '0x1.6ae02d0defe6ap-4'],
        "a1_S_i": ['0x1.e4da72d219251p-7', '0x1.fc797c7fe8e9dp-10', '0x1.7f7802c0cc761p-6'],
        "sigma_SY_i": ['0x1.21ad6593a98a8p-6', '0x1.f73879ced232ap-10', '0x1.073766cbf2510p-4'],
        "sigma1_SY_i": ['0x1.3436feeacd7fep-7', '0x1.58268134e8ad3p-10', '0x1.d5dd6bf07d5e0p-7'],
        "a_Y_i": ['0x1.bedf2eaab7175p-7', '0x1.ad935f6a16235p-10', '0x1.7ddbe62b8c6d4p-5'],
        "a1_Y_i": ['0x1.7600c46c8e6d4p-8', '0x1.b2104429dce57p-11', '0x1.16216a901722fp-7'],
    },
}


@pytest.mark.parametrize("model_name, points", sorted(PINNED_FC))
def test_frozen_coeffs_are_bit_identical_to_pinned_values(model_name, points):
    model = builtin("PeriodicCosine") if model_name == "cosine" else synthetic_model()
    fc = frozen_coeffs(model, *POINTS[points])
    for field, expected in PINNED_FC[model_name, points].items():
        assert [float(v).hex() for v in getattr(fc, field)] == expected, field


@pytest.mark.parametrize("model", [builtin("PeriodicCosine"), synthetic_model()])
def test_scalar_frozen_coeffs_match_one_point_array(model):
    """A scalar and a one-point array sum the nodes alike."""
    one = frozen_coeffs(model, np.array([0.25]), np.array([0.3]))
    scalar = frozen_coeffs(model, 0.25, 0.3)
    for field in FC_FIELDS:
        assert float(getattr(scalar, field)).hex() == float(getattr(one, field)[0]).hex()
