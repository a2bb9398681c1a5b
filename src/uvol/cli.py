"""Command line interface.

Subcommands
-----------
``uvol price|delta|vega``
    One unbiased estimate under a builtin model; optional Euler /
    finite-difference comparison row.
``uvol table``
    Reproduce a numbered reference table (parameter sweep x method set).
``uvol validate``
    Advisory model health report (ellipticity bounds, derivative handles).

Configuration comes from builtin defaults, an optional JSON file
(``--config``), and command line flags, in increasing precedence.  Exit
codes: 0 success, 2 configuration error, 3 numerical failure (including
a float overflow, e.g. of the discount factor).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baselines import EulerConfig, bs_delta, bs_price, euler_price, fd_greek
from .chain import DegenerateCovariance
from .estimators import (NonFinitePathError, Payoff, RunConfig,
                         estimate_delta, estimate_price, estimate_vega)
from .flow import NonFiniteError, QuadratureError
from .model import BuiltinModelKind, ParameterError, make_builtin, validate_model
from .renewal import DomainError, JumpSampler

__all__ = ["ConfigError", "TableSpec", "load_config", "run", "main"]


class ConfigError(ValueError):
    """Raised for unusable run configuration (unknown/missing/conflicting keys)."""


_MODEL_ALIASES = {
    "bs": "BlackScholes", "blackscholes": "BlackScholes",
    "stein": "SteinSteinAffine", "steinsteinaffine": "SteinSteinAffine",
    "cosine": "PeriodicCosine", "periodiccosine": "PeriodicCosine",
}

_DEFAULTS = {
    "model": None,
    "sigma_s": 0.25,
    "sigma1": 0.1,
    "sigma2": 0.15,
    "lambda_y": 0.5,
    "mu": 0.3,
    "sigma_y": 0.2,
    "rho": 0.6,
    "r": 0.03,
    "kappa": None,
    "payoff": "call",
    "strike": 1.5,
    "sampler": "beta",
    "rate": 0.5,
    "alpha": 0.1,
    "tau_bar": 2.0,
    "x0": 0.4,
    "y0": 0.2,
    "T": 0.5,
    "paths": 100000,
    "seed": 0,
    "threads": None,
    "discount": True,
    "panels": 8,
}

_CONFIG_KEYS = set(_DEFAULTS) | {"s0"}
_INT_KEYS = ("paths", "seed", "threads", "panels")
_FLOAT_KEYS = ("sigma_s", "sigma1", "sigma2", "lambda_y", "mu", "sigma_y", "rho",
               "r", "kappa", "strike", "rate", "alpha", "tau_bar", "x0", "y0",
               "T", "s0")

_CSV_FIELDS = [
    "table_id", "quantity", "method", "model", "payoff", "strike",
    "sigma_s", "sigma1", "sigma2", "sampler", "s0", "y0", "T", "r",
    "n_paths", "seed", "mean", "ci_lo", "ci_hi", "std_error",
    "n_jumps_mean", "seconds",
]


def _g17(x) -> str:
    return format(float(x), ".17g")


def _read_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    for key in data:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    return data


def _env_threads() -> int:
    raw = os.environ.get("UVOL_THREADS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"UVOL_THREADS must be an integer, got {raw!r}") from None


def _coerce_numbers(settings: dict):
    """Convert the numeric keys in place; name the key that does not convert."""
    for key in _INT_KEYS + _FLOAT_KEYS:
        value = settings.get(key)
        if value is None:
            continue
        try:
            settings[key] = int(value) if key in _INT_KEYS else float(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"config key {key!r} must be a number, "
                              f"got {value!r}") from None


def _merge_settings(file_cfg: dict, flag_cfg: dict) -> dict:
    merged = dict(_DEFAULTS)
    user = {}
    for src in (file_cfg, flag_cfg):
        for k, v in src.items():
            if v is not None:
                user[k] = v
    if "s0" in user and "x0" in user:
        raise ConfigError("give either 's0' or 'x0', not both")
    merged.update(user)
    _coerce_numbers(merged)
    if not isinstance(merged["discount"], bool):
        raise ConfigError(f"config key 'discount' must be true or false, "
                          f"got {merged['discount']!r}")
    if "s0" in merged:
        if not merged["s0"] > 0:
            raise ConfigError("'s0' must be positive")
        merged["x0"] = math.log(merged["s0"])
        del merged["s0"]
    if merged["model"] is None:
        raise ConfigError("missing required key 'model'")
    key = str(merged["model"]).lower()
    if key not in _MODEL_ALIASES:
        raise ConfigError(f"unknown model {merged['model']!r} "
                          f"(expected bs, stein or cosine)")
    merged["model"] = _MODEL_ALIASES[key]
    if merged["sampler"] not in ("beta", "exponential"):
        raise ConfigError(f"unknown sampler {merged['sampler']!r}")
    if merged["payoff"] not in ("call", "digital"):
        raise ConfigError(f"unknown payoff {merged['payoff']!r}")
    if merged["threads"] is None:
        merged["threads"] = _env_threads()
    return merged


def _model_kind(settings: dict) -> BuiltinModelKind:
    return BuiltinModelKind(
        tag=settings["model"],
        sigma_s=float(settings["sigma_s"]),
        sigma1=float(settings["sigma1"]),
        sigma2=float(settings["sigma2"]),
        lambda_y=float(settings["lambda_y"]),
        mu=float(settings["mu"]),
        sigma_y=float(settings["sigma_y"]),
        rho=float(settings["rho"]),
        r=float(settings["r"]),
        kappa=settings["kappa"],
    )


def _sampler(settings: dict) -> JumpSampler:
    if settings["sampler"] == "beta":
        return JumpSampler.beta_one_minus_alpha(float(settings["alpha"]),
                                                float(settings["tau_bar"]))
    return JumpSampler.exponential(float(settings["rate"]))


def _run_config(settings: dict) -> RunConfig:
    try:
        model = make_builtin(_model_kind(settings))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    payoff = Payoff(kind=settings["payoff"], strike=float(settings["strike"]))
    return RunConfig(
        model=model,
        payoff=payoff,
        sampler=_sampler(settings),
        s0=math.exp(float(settings["x0"])),
        y0=float(settings["y0"]),
        T=float(settings["T"]),
        n_paths=int(settings["paths"]),
        seed=int(settings["seed"]),
        discount=settings["discount"],
        panels=int(settings["panels"]),
        threads=int(settings["threads"]),
    )


def load_config(path: str) -> RunConfig:
    """Build a :class:`RunConfig` from defaults plus a JSON file.

    Raises :class:`ConfigError` naming the offending key when the file is
    unusable (an empty object fails on the required key ``model``).
    """
    return _run_config(_merge_settings(_read_config_file(path), {}))


def _add_common_options(p: argparse.ArgumentParser):
    g = p.add_argument_group("model")
    g.add_argument("--model", choices=["bs", "stein", "cosine"])
    g.add_argument("--sigma-s", type=float, dest="sigma_s",
                   help="constant volatility (bs)")
    g.add_argument("--sigma1", type=float)
    g.add_argument("--sigma2", type=float)
    g.add_argument("--lambda-y", type=float, dest="lambda_y")
    g.add_argument("--mu", type=float)
    g.add_argument("--sigma-y", type=float, dest="sigma_y")
    g.add_argument("--rho", type=float)
    g.add_argument("--r", type=float)
    g.add_argument("--kappa", type=float)
    g = p.add_argument_group("contract")
    g.add_argument("--payoff", choices=["call", "digital"])
    g.add_argument("--strike", type=float)
    g.add_argument("--s0", type=float)
    g.add_argument("--x0", type=float, help="initial log-spot (alternative to --s0)")
    g.add_argument("--y0", type=float)
    g.add_argument("-T", "--maturity", type=float, dest="T")
    g = p.add_argument_group("sampling")
    g.add_argument("--sampler", choices=["beta", "exponential"])
    g.add_argument("--rate", type=float, help="exponential gap rate")
    g.add_argument("--alpha", type=float, help="beta gap exponent")
    g.add_argument("--tau-bar", type=float, dest="tau_bar", help="beta gap cap")
    g.add_argument("--paths", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--threads", type=int)
    g.add_argument("--panels", type=int)
    g.add_argument("--no-discount", dest="discount", action="store_false",
                   default=None)
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--csv", help="append result rows to this CSV file")


def _add_euler_options(p: argparse.ArgumentParser):
    g = p.add_argument_group("baseline comparison")
    g.add_argument("--compare-euler", action="store_true")
    g.add_argument("--euler-steps", type=int, default=200)
    g.add_argument("--euler-paths", type=int, default=160000)
    g.add_argument("--fd-eps", type=float, default=1e-2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uvol",
        description="Unbiased Monte Carlo pricing for 2-D stochastic "
                    "volatility models on renewal time grids.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, txt in (("price", "option price"),
                      ("delta", "spot Greek d/ds0"),
                      ("vega", "variance Greek d/dy0")):
        p = sub.add_parser(name, help=f"estimate the {txt}")
        _add_common_options(p)
        _add_euler_options(p)
    p = sub.add_parser("table", help="reproduce a numbered reference table")
    p.add_argument("--id", type=int, required=True, choices=range(1, 13),
                   metavar="{1..12}")
    p.add_argument("--model", choices=["stein", "cosine"],
                   help="digital tables (10-12) only; default stein")
    p.add_argument("--paths", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int)
    p.add_argument("--euler-steps", type=int, default=200)
    p.add_argument("--euler-paths", type=int, default=160000)
    p.add_argument("--fd-eps", type=float, default=1e-2)
    p.add_argument("--csv", help="append result rows to this CSV file")
    p = sub.add_parser("validate", help="advisory model health report")
    _add_common_options(p)
    p.add_argument("--grid-min", type=float, default=-5.0)
    p.add_argument("--grid-max", type=float, default=5.0)
    p.add_argument("--grid-points", type=int, default=201)
    return parser


def _flags_dict(args: argparse.Namespace) -> dict:
    keys = _CONFIG_KEYS
    return {k: v for k, v in vars(args).items() if k in keys}


def _csv_append(path: str, rows: list):
    new = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        if new:
            w.writeheader()
        for row in rows:
            w.writerow(row)


def _result_row(quantity, method, settings, res, table_id="") -> dict:
    return {
        "table_id": table_id,
        "quantity": quantity,
        "method": method,
        "model": settings["model"],
        "payoff": settings["payoff"],
        "strike": _g17(settings["strike"]),
        "sigma_s": _g17(settings["sigma_s"]),
        "sigma1": _g17(settings["sigma1"]),
        "sigma2": _g17(settings["sigma2"]),
        "sampler": settings["sampler"],
        "s0": _g17(math.exp(float(settings["x0"]))),
        "y0": _g17(settings["y0"]),
        "T": _g17(settings["T"]),
        "r": _g17(settings["r"]),
        "n_paths": res.n_paths,
        "seed": settings["seed"],
        "mean": _g17(res.mean),
        "ci_lo": _g17(res.ci95[0]),
        "ci_hi": _g17(res.ci95[1]),
        "std_error": _g17(res.std_error),
        "n_jumps_mean": "" if math.isnan(res.n_jumps_mean) else _g17(res.n_jumps_mean),
        "seconds": _g17(res.elapsed),
    }


def _exact_result(value: float):
    from .estimators import EstimateResult
    return EstimateResult(mean=value, std_error=0.0, ci95=(value, value),
                          n_paths=0, n_jumps_mean=float("nan"), elapsed=0.0)


def _print_result(quantity: str, method: str, res):
    extra = "" if math.isnan(res.n_jumps_mean) else f"  jumps_mean={res.n_jumps_mean:.4f}"
    print(f"{quantity:<6s} {method:<12s} mean={res.mean: .8f}  "
          f"ci95=[{res.ci95[0]: .8f}, {res.ci95[1]: .8f}]  "
          f"n={res.n_paths}{extra}  {res.elapsed:.2f}s")


_ESTIMATORS = {"price": estimate_price, "delta": estimate_delta, "vega": estimate_vega}


def _euler_comparison(quantity: str, settings: dict, args) -> tuple:
    model = make_builtin(_model_kind(settings))
    payoff = Payoff(kind=settings["payoff"], strike=float(settings["strike"]))
    s0 = math.exp(float(settings["x0"]))
    ecfg = EulerConfig(n_steps=args.euler_steps, n_paths=args.euler_paths,
                       seed=int(settings["seed"]))
    if quantity == "price":
        return "euler", euler_price(model, payoff, s0, float(settings["y0"]),
                                    float(settings["T"]), ecfg)
    res = fd_greek(model, payoff, s0, float(settings["y0"]), float(settings["T"]),
                   quantity, args.fd_eps, ecfg)
    return "euler_fd", res


def _cmd_estimate(quantity: str, args: argparse.Namespace) -> int:
    file_cfg = _read_config_file(args.config) if args.config else {}
    settings = _merge_settings(file_cfg, _flags_dict(args))
    cfg = _run_config(settings)
    res = _ESTIMATORS[quantity](cfg)
    _print_result(quantity, settings["sampler"], res)
    rows = [_result_row(quantity, settings["sampler"], settings, res)]
    if args.compare_euler:
        method, eres = _euler_comparison(quantity, settings, args)
        _print_result(quantity, method, eres)
        rows.append(_result_row(quantity, method, settings, eres))
    if args.csv:
        _csv_append(args.csv, rows)
    return 0


@dataclass(frozen=True)
class TableSpec:
    """Layout of one reference table: sweep values and method columns."""

    table_id: int
    model: str
    quantity: str
    payoff: str
    sweep: tuple
    methods: tuple


def table_spec(table_id: int, model_override: Optional[str] = None) -> TableSpec:
    """Resolve a table id (1-12) into its model/quantity/sweep/methods.

    Ids 1-3 are Black-Scholes call price/delta/vega over a sigma_S sweep;
    4-6 the affine model call sweep; 7-9 the cosine model call sweep;
    10-12 digital-call price/delta/vega (model selectable, default the
    affine model, sweep includes the constant-volatility pair (0, 0.3)).
    """
    if not 1 <= table_id <= 12:
        raise ConfigError(f"table id must be in 1..12, got {table_id}")
    quantity = ("price", "delta", "vega")[(table_id - 1) % 3]
    pairs = ((0.1, 0.15), (0.2, 0.25), (0.3, 0.4), (0.4, 0.5))
    if table_id <= 3:
        if model_override:
            raise ConfigError("--model only applies to tables 10-12")
        sweep = tuple({"sigma_s": v} for v in (0.25, 0.3, 0.4, 0.6))
        methods = {"price": ("closed", "euler", "exponential", "beta"),
                   "delta": ("closed", "euler_fd", "exponential", "beta"),
                   "vega": ("closed", "exponential", "beta")}[quantity]
        return TableSpec(table_id, "BlackScholes", quantity, "call", sweep, methods)
    if table_id <= 9:
        if model_override:
            raise ConfigError("--model only applies to tables 10-12")
        model = "SteinSteinAffine" if table_id <= 6 else "PeriodicCosine"
        sweep = tuple({"sigma1": a, "sigma2": b} for a, b in pairs)
        methods = ("euler", "exponential", "beta") if quantity == "price" \
            else ("euler_fd", "exponential", "beta")
        return TableSpec(table_id, model, quantity, "call", sweep, methods)
    model = _MODEL_ALIASES[(model_override or "stein").lower()]
    if model == "BlackScholes":
        raise ConfigError("digital tables cover the stein and cosine models")
    sweep = tuple({"sigma1": a, "sigma2": b} for a, b in ((0.0, 0.3),) + pairs)
    methods = ("euler", "exponential", "beta") if quantity == "price" \
        else ("euler_fd", "exponential", "beta")
    return TableSpec(table_id, model, quantity, "digital", sweep, methods)


def _cmd_table(args: argparse.Namespace) -> int:
    spec = table_spec(args.id, args.model)
    threads = args.threads if args.threads is not None else _env_threads()
    rows = []
    print(f"table {spec.table_id}: {spec.model} {spec.payoff} {spec.quantity}  "
          f"(paths={args.paths}, seed={args.seed})")
    for point in spec.sweep:
        settings = dict(_DEFAULTS)
        settings.update(point)
        settings.update(model=spec.model, payoff=spec.payoff,
                        paths=args.paths, seed=args.seed, threads=threads)
        label = " ".join(f"{k}={v:g}" for k, v in point.items())
        cells = []
        for method in spec.methods:
            if method == "closed":
                s0 = math.exp(settings["x0"])
                if spec.quantity == "price":
                    val = bs_price(s0, settings["strike"], settings["r"],
                                   settings["T"], settings["sigma_s"])
                elif spec.quantity == "delta":
                    val = bs_delta(s0, settings["strike"], settings["r"],
                                   settings["T"], settings["sigma_s"])
                else:
                    val = 0.0  # constant sigma_S: price does not depend on y0
                res = _exact_result(val)
            elif method in ("euler", "euler_fd"):
                _, res = _euler_comparison(spec.quantity, settings, args)
            else:
                settings["sampler"] = method
                res = _ESTIMATORS[spec.quantity](_run_config(settings))
            cells.append(f"{method} {res.mean:.6f} "
                         f"[{res.ci95[0]:.6f}, {res.ci95[1]:.6f}]")
            rows.append(_result_row(spec.quantity, method, settings, res,
                                    table_id=spec.table_id))
        print(f"  {label:<24s} | " + " | ".join(cells))
    if args.csv:
        _csv_append(args.csv, rows)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    file_cfg = _read_config_file(args.config) if args.config else {}
    settings = _merge_settings(file_cfg, _flags_dict(args))
    try:
        model = make_builtin(_model_kind(settings))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    grid = np.linspace(args.grid_min, args.grid_max, args.grid_points)
    rep = validate_model(model, grid)
    print(f"model {settings['model']}  kappa={model.kappa:.6g}  "
          f"grid [{args.grid_min:g}, {args.grid_max:g}] x {args.grid_points}")
    print(f"  sigma_S^2 in [{rep.sigma_S_sq_min:.6g}, {rep.sigma_S_sq_max:.6g}]  "
          f"bounds {'ok' if rep.sigma_S_ok else 'VIOLATED'}")
    print(f"  sigma_Y^2 in [{rep.sigma_Y_sq_min:.6g}, {rep.sigma_Y_sq_max:.6g}]  "
          f"bounds {'ok' if rep.sigma_Y_ok else 'VIOLATED'}")
    print(f"  derivative handles: max rel err {rep.deriv_max_rel_err:.3g}  "
          f"{'ok' if rep.derivatives_ok else 'INCONSISTENT'}")
    for msg in rep.messages:
        print(f"  warning: {msg}")
    print("ok" if rep.ok else "advisory warnings above")
    return 0


def run(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command in ("price", "delta", "vega"):
            return _cmd_estimate(args.command, args)
        if args.command == "table":
            return _cmd_table(args)
        return _cmd_validate(args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonFinitePathError, DegenerateCovariance, QuadratureError,
            NonFiniteError, DomainError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
