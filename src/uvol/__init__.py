"""Unbiased Monte Carlo pricing for 2-D stochastic volatility models.

The estimator simulates a Markov chain on a random renewal time grid and
multiplies the payoff by closed-form integration-by-parts weights, giving
expectations (and the spot/volatility Greeks) with no discretization bias.
"""

from .baselines import (EulerConfig, bs_delta, bs_price, euler_price,
                        euler_terminal, fd_greek)
from .chain import DegenerateCovariance, StepRecord, chain_step, proxy_density
from .cli import ConfigError, load_config
from .estimators import (EstimateResult, NonFinitePathError, Payoff, RunConfig,
                         aggregate, estimate_delta, estimate_price,
                         estimate_vega)
from .flow import (FrozenCoeffs, NonFiniteError, QuadratureError, flow,
                   flow_tangent, frozen_coeffs, simpson38)
from .model import (BuiltinModelKind, Model, ParameterError, ValidationReport,
                    make_builtin, validate_model)
from .renewal import DomainError, JumpSampler
from .rng import philox4x32
from .weights import step_weights, terminal_weights

__version__ = "0.1.0"

__all__ = [
    "BuiltinModelKind", "ConfigError", "DegenerateCovariance", "DomainError",
    "EstimateResult", "EulerConfig", "FrozenCoeffs", "JumpSampler", "Model",
    "NonFinitePathError", "NonFiniteError", "ParameterError", "Payoff",
    "QuadratureError", "RunConfig", "StepRecord", "ValidationReport",
    "aggregate", "bs_delta", "bs_price", "chain_step", "estimate_delta",
    "estimate_price", "estimate_vega", "euler_price", "euler_terminal",
    "fd_greek", "flow", "flow_tangent", "frozen_coeffs", "load_config",
    "make_builtin", "philox4x32", "proxy_density", "simpson38",
    "step_weights", "terminal_weights", "validate_model", "__version__",
]
