"""Pinned estimates: engine refactors must not move a mean by a single bit.

The values below were recorded with the engine as it stood before the
coefficient jet, the node-by-node Simpson quadrature and the jump-sorted
path slices went in, and each of those changes claims to leave every mean
bit-identical.  Means are compared through ``float.hex``; standard errors
to a relative 1e-13, because the sum of squares is reduced without BLAS
and so rounds differently from ``np.dot``.

The cases cover the three builtins for price, Delta and Vega, multi-chunk
runs on two threads, a non-OU model (RK4 flow nodes, full quadrature), and
runs of three paths per chunk, where steps with a single active path take
numpy's pairwise summation over the quadrature nodes.  Frozen coefficients
are pinned directly for one and for several points.
"""

import math

import numpy as np
import pytest

from helpers import builtin, synthetic_model
from uvol.estimators import (Payoff, RunConfig, estimate_delta, estimate_price,
                             estimate_vega)
from uvol.flow import frozen_coeffs
from uvol.renewal import JumpSampler

ESTIMATORS = {"price": estimate_price, "delta": estimate_delta, "vega": estimate_vega}


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
    ("bs", "vega"): ("-0x1.4b0933cdcc79fp-6", 0.05276861375558952),
    ("stein", "price"): ("0x1.3d00fbdcf5d77p-4", 0.0058919988063397275),
    ("stein", "delta"): ("0x1.14591a87e6958p-1", 0.05903253798155799),
    ("stein", "vega"): ("0x1.72a0fe2149decp-5", 0.04371831100242349),
    ("cosine", "price"): ("0x1.ec6bc66cdb7cap-2", 0.016764923153694454),
    ("cosine", "delta"): ("0x1.75017baf59f1dp+0", 0.09441226801174374),
    ("cosine", "vega"): ("0x1.59706469aef58p-8", 0.15652595808263423),
    ("cosine-3", "vega"): ("0x1.3e6e6bc37acd1p-6", 0.10526340329586661),
    ("synthetic", "vega"): ("-0x1.ded2b283ef12ap-4", 0.10136809454885258),
}


@pytest.mark.parametrize("name, quantity", sorted(PINNED))
def test_estimate_is_bit_identical_to_pinned_value(name, quantity):
    mean_hex, std_error = PINNED[name, quantity]
    res = ESTIMATORS[quantity](CONFIGS[name])
    assert res.mean.hex() == mean_hex
    assert res.std_error == pytest.approx(std_error, rel=1e-13, abs=0.0)


FC_FIELDS = ("a_S_i", "a1_S_i", "sigma_SY_i", "sigma1_SY_i", "a_Y_i", "a1_Y_i")

POINTS = {
    "one": (np.array([0.25]), np.array([0.3])),
    "three": (np.array([0.25, -0.4, 1.1]), np.array([0.3, 0.05, 0.8])),
}

# (model, points): {field: [value.hex() per point]}
PINNED_FC = {
    ("cosine", "one"): {
        "a_S_i": ['0x1.2b64240ba3513p-6'],
        "a1_S_i": ['-0x1.c3fedc91d85b8p-9'],
        "sigma_SY_i": ['0x1.e53b9369ed235p-7'],
        "sigma1_SY_i": ['-0x1.6e4771c311c21p-10'],
        "a_Y_i": ['0x1.89374bc6a7efbp-7'],
        "a1_Y_i": ['0x0.0p+0'],
    },
    ("cosine", "three"): {
        "a_S_i": ['0x1.2b64240ba3514p-6', '0x1.81334509c3ba0p-9', '0x1.19b86eaf4f29ep-5'],
        "a1_S_i": ['-0x1.c3fedc91d85b7p-9', '0x1.ded2b9d2d9b24p-11', '-0x1.6df2f08601ed9p-6'],
        "sigma_SY_i": ['0x1.e53b9369ed235p-7', '0x1.3dc5298d11408p-9', '0x1.0fa20613f5650p-5'],
        "sigma1_SY_i": ['-0x1.6e4771c311c21p-10', '0x1.8b02a913e8e38p-12', '-0x1.62f591a855bacp-7'],
        "a_Y_i": ['0x1.89374bc6a7efbp-7', '0x1.0624dd2f1a9fdp-9', '0x1.0624dd2f1a9fdp-5'],
        "a1_Y_i": ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
    },
    ("synthetic", "one"): {
        "a_S_i": ['0x1.778ec649150bep-6'],
        "a1_S_i": ['0x1.e4da72d1e7980p-7'],
        "sigma_SY_i": ['0x1.21ad6593a7b83p-6'],
        "sigma1_SY_i": ['0x1.3436feeab619fp-7'],
        "a_Y_i": ['0x1.bedf2eaab4882p-7'],
        "a1_Y_i": ['0x1.7600c46c7867dp-8'],
    },
    ("synthetic", "three"): {
        "a_S_i": ['0x1.778ec649150bep-6', '0x1.26bef133f7286p-9', '0x1.6ae02d0377e65p-4'],
        "a1_S_i": ['0x1.e4da72d1e7980p-7', '0x1.fc797c7fe8da7p-10', '0x1.7f7801f6bfbc4p-6'],
        "sigma_SY_i": ['0x1.21ad6593a7b83p-6', '0x1.f73879ced249cp-10', '0x1.073766c5a0213p-4'],
        "sigma1_SY_i": ['0x1.3436feeab619fp-7', '0x1.58268134e88fcp-10', '0x1.d5dd6aff4d65dp-7'],
        "a_Y_i": ['0x1.bedf2eaab4882p-7', '0x1.ad935f6a16327p-10', '0x1.7ddbe624240ddp-5'],
        "a1_Y_i": ['0x1.7600c46c7867dp-8', '0x1.b2104429dcb25p-11', '0x1.16216a03ed87ap-7'],
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
    """A scalar and a one-point array both sum the nodes pairwise."""
    one = frozen_coeffs(model, np.array([0.25]), np.array([0.3]))
    scalar = frozen_coeffs(model, 0.25, 0.3)
    for field in FC_FIELDS:
        assert float(getattr(scalar, field)).hex() == float(getattr(one, field)[0]).hex()
