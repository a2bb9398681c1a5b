"""Command line interface.

Subcommands
-----------
``uvol price|delta|vega``
    One unbiased estimate under a builtin model; optional Euler /
    finite-difference comparison row.
``uvol table``
    Reproduce a numbered reference table (parameter sweep x method set).
``uvol validate``
    Advisory model health report (ellipticity bounds, derivative handles,
    declared shapes).

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
from dataclasses import MISSING, dataclass, fields
from typing import Optional

import numpy as np

from .baselines import EulerConfig, bs_delta, bs_price, euler_price, fd_bump, fd_greek
from .chain import DegenerateCovariance
from .estimators import (EstimateResult, NonFinitePathError, Payoff, RunConfig,
                         estimate_delta, estimate_price, estimate_vega)
from .flow import NonFiniteError, QuadratureError
from .model import (BuiltinModelKind, Model, ParameterError, make_builtin,
                    validate_model)
from .renewal import DomainError, JumpSampler

__all__ = ["ConfigError", "TableSpec", "load_config", "run", "main"]


class ConfigError(ValueError):
    """Raised for unusable run configuration (unknown/missing/conflicting keys)."""


_MODEL_ALIASES = {
    "bs": "BlackScholes", "blackscholes": "BlackScholes",
    "stein": "SteinSteinAffine", "steinsteinaffine": "SteinSteinAffine",
    "cosine": "PeriodicCosine", "periodiccosine": "PeriodicCosine",
}

# the builtin model's parameters: every BuiltinModelKind field but the tag
_MODEL_FIELDS = tuple(f for f in fields(BuiltinModelKind) if f.default is not MISSING)

_DEFAULTS = {
    "model": None,
    **{f.name: f.default for f in _MODEL_FIELDS},
    "payoff": "call",
    "strike": 1.5,
    "sampler": "beta",
    "rate": 0.5,
    "alpha": 0.1,
    "tau_bar": 2.0,
    "s0": math.exp(0.4),  # x0 = 0.4
    "y0": 0.2,
    "T": 0.5,
    "paths": 100000,
    "seed": 0,
    "threads": None,
    "discount": True,
}

_CONFIG_KEYS = set(_DEFAULTS) | {"x0"}
_INT_KEYS = ("paths", "seed", "threads")
_FLOAT_KEYS = tuple(f.name for f in _MODEL_FIELDS) + (
    "strike", "rate", "alpha", "tau_bar", "x0", "y0", "T", "s0")

_SAMPLERS = ("exponential", "beta")
_BASELINES = {"price": "euler", "delta": "euler_fd", "vega": "euler_fd"}

_CSV_FIELDS = [
    "table_id", "quantity", "method", "model", "payoff", "strike",
    "sigma_s", "sigma1", "sigma2", "sampler", "s0", "y0", "T", "r",
    "n_paths", "seed", "mean", "ci_lo", "ci_hi", "std_error",
    "n_jumps_mean", "seconds", "control_z1", "control_z2",
]


def _float_text(x) -> str:
    """The shortest text that parses back to the same double."""
    return repr(float(x))


def _read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from None
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
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"UVOL_THREADS must be an integer >= 1, got {raw!r}")
    return threads


def _coerce_numbers(settings: dict):
    """Convert the numeric keys in place; name the key that does not convert.
    A JSON string or boolean is not a number, whatever its text."""
    for key in _INT_KEYS + _FLOAT_KEYS:
        value = settings.get(key)
        if value is None:
            continue
        try:
            if isinstance(value, (bool, str)) or (key in _INT_KEYS
                                                  and not float(value).is_integer()):
                raise TypeError
            settings[key] = int(value) if key in _INT_KEYS else float(value)
        except (TypeError, ValueError, OverflowError):
            rule = " with no fractional part" if key in _INT_KEYS else ""
            raise ConfigError(f"config key {key!r} must be a number{rule}, "
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
    if "x0" in merged:  # s0 is the one key kept, so a given s0 keeps its bits
        merged["s0"] = math.exp(merged.pop("x0"))
    if not merged["s0"] > 0:
        raise ConfigError("'s0' must be positive")
    if merged["model"] is None:
        raise ConfigError("missing required key 'model'")
    key = str(merged["model"]).lower()
    if key not in _MODEL_ALIASES:
        raise ConfigError(f"unknown model {merged['model']!r} "
                          f"(expected bs, stein or cosine)")
    merged["model"] = _MODEL_ALIASES[key]
    if merged["sampler"] not in _SAMPLERS:
        raise ConfigError(f"unknown sampler {merged['sampler']!r}")
    if merged["payoff"] not in ("call", "digital"):
        raise ConfigError(f"unknown payoff {merged['payoff']!r}")
    if merged["threads"] is None:
        merged["threads"] = _env_threads()
    return merged


def _model(settings: dict) -> Model:
    kind = BuiltinModelKind(settings["model"],
                            **{f.name: settings[f.name] for f in _MODEL_FIELDS})
    try:
        return make_builtin(kind)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _sampler(settings: dict) -> JumpSampler:
    try:
        if settings["sampler"] == "beta":
            return JumpSampler.beta_one_minus_alpha(settings["alpha"],
                                                    settings["tau_bar"])
        return JumpSampler.exponential(settings["rate"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _run_config(settings: dict) -> RunConfig:
    return RunConfig(
        model=_model(settings),
        payoff=Payoff(kind=settings["payoff"], strike=settings["strike"]),
        sampler=_sampler(settings),
        s0=settings["s0"],
        y0=settings["y0"],
        T=settings["T"],
        n_paths=settings["paths"],
        seed=settings["seed"],
        discount=settings["discount"],
        threads=settings["threads"],
    )


def load_config(path: str) -> RunConfig:
    """Build a :class:`RunConfig` from defaults plus a JSON file.

    Raises :class:`ConfigError` naming the offending key when the file is
    unusable (an empty object fails on the required key ``model``).
    """
    return _run_config(_merge_settings(_read_config_file(path), {}))


def _add_model_options(p: argparse.ArgumentParser):
    g = p.add_argument_group("model")
    g.add_argument("--model", choices=["bs", "stein", "cosine"])
    for f in _MODEL_FIELDS:
        g.add_argument("--" + f.name.replace("_", "-"), type=float, dest=f.name)
    p.add_argument("--config", help="JSON config file (flags override it)")


def _add_contract_options(p: argparse.ArgumentParser):
    g = p.add_argument_group("contract")
    g.add_argument("--payoff", choices=["call", "digital"])
    g.add_argument("--strike", type=float)
    g.add_argument("--s0", type=float)
    g.add_argument("--x0", type=float, help="initial log-spot (alternative to --s0)")
    g.add_argument("--y0", type=float)
    g.add_argument("-T", "--maturity", type=float, dest="T")
    g.add_argument("--no-discount", dest="discount", action="store_false",
                   default=None)
    g = p.add_argument_group("sampling")
    g.add_argument("--sampler", choices=["beta", "exponential"])
    g.add_argument("--rate", type=float, help="exponential gap rate")
    g.add_argument("--alpha", type=float, help="beta gap exponent")
    g.add_argument("--tau-bar", type=float, dest="tau_bar", help="beta gap cap")


def _add_run_options(p: argparse.ArgumentParser):
    """The run and baseline options; returns the baseline group."""
    g = p.add_argument_group("run")
    g.add_argument("--paths", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--threads", type=int)
    g.add_argument("--csv", help="append result rows to this CSV file")
    g = p.add_argument_group("baseline comparison")
    g.add_argument("--euler-steps", type=int, default=200)
    g.add_argument("--euler-paths", type=int, default=160000)
    g.add_argument("--fd-eps", type=float, default=1e-2)
    return g


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
        _add_model_options(p)
        _add_contract_options(p)
        _add_run_options(p).add_argument("--compare-euler", action="store_true")
    p = sub.add_parser("table", help="reproduce a numbered reference table")
    p.add_argument("--id", type=int, required=True, choices=range(1, 13),
                   metavar="{1..12}")
    p.add_argument("--model", choices=["stein", "cosine"],
                   help="digital tables (10-12) only; default stein")
    _add_run_options(p)
    p = sub.add_parser("validate", help="advisory model health report")
    _add_model_options(p)
    p.add_argument("--grid-min", type=float, default=-5.0)
    p.add_argument("--grid-max", type=float, default=5.0)
    p.add_argument("--grid-points", type=int, default=201)
    return parser


def _flags_dict(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS}


def _csv_is_new(path: str) -> bool:
    """Whether ``path`` still needs a header; refuse a path that cannot be
    appended to and a file with other columns, before any estimate runs.
    Creates nothing."""
    if os.path.isdir(path):
        raise ConfigError(f"CSV path {path} is a directory")
    if not os.path.exists(path):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"CSV path {path}: no directory {folder}")
        if not os.access(folder, os.W_OK):
            raise ConfigError(f"CSV path {path}: directory {folder} is not writable")
        return True
    if not os.access(path, os.W_OK):
        raise ConfigError(f"CSV file {path} is not writable")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
    except OSError as exc:
        raise ConfigError(f"cannot read CSV file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"CSV file {path} is not UTF-8: {exc}") from None
    if header not in (None, _CSV_FIELDS):
        raise ConfigError(f"CSV file {path} has other columns than this "
                          f"version writes; append to a new file")
    return header is None


def _csv_append(path: str, rows: list):
    new = _csv_is_new(path)
    with open(path, "a", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        if new:
            w.writeheader()
        for row in rows:
            w.writerow(row)


def _float_text_or_blank(x) -> str:
    return "" if math.isnan(x) else _float_text(x)


def _result_row(quantity, method, settings, res, table_id="") -> dict:
    return {
        "table_id": table_id,
        "quantity": quantity,
        "method": method,
        "model": settings["model"],
        "payoff": settings["payoff"],
        "strike": _float_text(settings["strike"]),
        "sigma_s": _float_text(settings["sigma_s"]),
        "sigma1": _float_text(settings["sigma1"]),
        "sigma2": _float_text(settings["sigma2"]),
        "sampler": settings["sampler"],
        "s0": _float_text(settings["s0"]),
        "y0": _float_text(settings["y0"]),
        "T": _float_text(settings["T"]),
        "r": _float_text(settings["r"]),
        "n_paths": res.n_paths,
        "seed": settings["seed"],
        "mean": _float_text(res.mean),
        "ci_lo": _float_text(res.ci95[0]),
        "ci_hi": _float_text(res.ci95[1]),
        "std_error": _float_text(res.std_error),
        "n_jumps_mean": _float_text_or_blank(res.n_jumps_mean),
        "seconds": _float_text(res.elapsed),
        "control_z1": _float_text_or_blank(res.control_z[0]),
        "control_z2": _float_text_or_blank(res.control_z[1]),
    }


def _print_result(quantity: str, method: str, res):
    extra = "" if math.isnan(res.n_jumps_mean) else f"  jumps_mean={res.n_jumps_mean:.4f}"
    z1, z2 = res.control_z
    if not (math.isnan(z1) and math.isnan(z2)):
        extra += f"  control_z=[{z1:.2f}, {z2:.2f}]"
    print(f"{quantity:<6s} {method:<12s} mean={res.mean: .8f}  "
          f"ci95=[{res.ci95[0]: .8f}, {res.ci95[1]: .8f}]  "
          f"n={res.n_paths}{extra}  {res.elapsed:.2f}s")


_ESTIMATORS = {"price": estimate_price, "delta": estimate_delta, "vega": estimate_vega}

# constant sigma_S: the price does not depend on y0, so the exact Vega is 0
_CLOSED_FORMS = {"price": bs_price, "delta": bs_delta, "vega": lambda *_: 0.0}


def _baseline_config(quantity: str, methods: tuple, points: list,
                     args) -> Optional[EulerConfig]:
    """Refuse a CSV with other columns and bad baseline options before any
    simulation; the baseline's settings when ``methods`` holds it.  Every
    point of ``points`` (each a settings dict) runs with the first one's
    seed."""
    if args.csv:
        _csv_is_new(args.csv)
    if _BASELINES[quantity] not in methods:
        return None
    for settings in points if quantity != "price" else ():
        try:
            fd_bump(quantity, settings["s0"], settings["y0"], args.fd_eps)
        except ParameterError as exc:
            raise ConfigError(f"--fd-eps {args.fd_eps!r}: {exc}") from None
    return EulerConfig(n_steps=args.euler_steps, n_paths=args.euler_paths,
                       seed=points[0]["seed"])


def _job(method: str, settings: dict) -> tuple:
    """The settings one method runs with and its checked :class:`RunConfig`
    (``None`` for the closed form); the estimator takes the sampler
    ``method`` names."""
    if method in _SAMPLERS:
        settings = dict(settings, sampler=method)
    return settings, None if method == "closed" else _run_config(settings)


def _result(quantity: str, method: str, job: tuple, ecfg: Optional[EulerConfig],
            fd_eps: float, table_id="") -> tuple:
    """The result of one method on its :func:`_job` and its CSV row: the
    Black-Scholes closed form, the Euler baseline, or the estimator."""
    settings, cfg = job
    if method == "closed":
        value = _CLOSED_FORMS[quantity](settings["s0"], settings["strike"],
                                        settings["r"], settings["T"],
                                        settings["sigma_s"])
        res = EstimateResult(mean=value, std_error=0.0, ci95=(value, value),
                             n_paths=0, n_jumps_mean=math.nan, elapsed=0.0)
    elif method == "euler":
        res = euler_price(cfg.model, cfg.payoff, cfg.s0, cfg.y0, cfg.T, ecfg)
    elif method == "euler_fd":
        res = fd_greek(cfg.model, cfg.payoff, cfg.s0, cfg.y0, cfg.T,
                       quantity, fd_eps, ecfg)
    else:
        res = _ESTIMATORS[quantity](cfg)
    return res, _result_row(quantity, method, settings, res, table_id)


def _cmd_estimate(quantity: str, args: argparse.Namespace) -> int:
    file_cfg = _read_config_file(args.config) if args.config else {}
    settings = _merge_settings(file_cfg, _flags_dict(args))
    methods = (settings["sampler"],) + (
        (_BASELINES[quantity],) if args.compare_euler else ())
    ecfg = _baseline_config(quantity, methods, [settings], args)
    rows = []
    for method in methods:
        res, row = _result(quantity, method, _job(method, settings), ecfg, args.fd_eps)
        _print_result(quantity, method, res)
        rows.append(row)
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
    if model_override and table_id <= 9:
        raise ConfigError("--model only applies to tables 10-12")
    pairs = ((0.1, 0.15), (0.2, 0.25), (0.3, 0.4), (0.4, 0.5))
    methods = (_BASELINES[quantity],) + _SAMPLERS
    if table_id <= 3:
        sweep = tuple({"sigma_s": v} for v in (0.25, 0.3, 0.4, 0.6))
        methods = ("closed",) + (_SAMPLERS if quantity == "vega" else methods)
        return TableSpec(table_id, "BlackScholes", quantity, "call", sweep, methods)
    if table_id <= 9:
        model = "SteinSteinAffine" if table_id <= 6 else "PeriodicCosine"
        sweep = tuple({"sigma1": a, "sigma2": b} for a, b in pairs)
        return TableSpec(table_id, model, quantity, "call", sweep, methods)
    model = _MODEL_ALIASES[(model_override or "stein").lower()]
    if model == "BlackScholes":
        raise ConfigError("digital tables cover the stein and cosine models")
    sweep = tuple({"sigma1": a, "sigma2": b} for a, b in ((0.0, 0.3),) + pairs)
    return TableSpec(table_id, model, quantity, "digital", sweep, methods)


def _cmd_table(args: argparse.Namespace) -> int:
    spec = table_spec(args.id, args.model)
    run_flags = dict(_flags_dict(args), model=spec.model, payoff=spec.payoff)
    points = [_merge_settings(run_flags, point) for point in spec.sweep]
    ecfg = _baseline_config(spec.quantity, spec.methods, points, args)
    # every cell's config is checked before the header is printed
    jobs = [[_job(method, settings) for method in spec.methods] for settings in points]
    rows = []
    print(f"table {spec.table_id}: {spec.model} {spec.payoff} {spec.quantity}  "
          f"(paths={points[0]['paths']}, seed={points[0]['seed']})")
    for point, point_jobs in zip(spec.sweep, jobs):
        label = " ".join(f"{k}={v:g}" for k, v in point.items())
        cells = []
        for method, job in zip(spec.methods, point_jobs):
            res, row = _result(spec.quantity, method, job, ecfg, args.fd_eps,
                               table_id=spec.table_id)
            cells.append(f"{method} {res.mean:.6f} "
                         f"[{res.ci95[0]:.6f}, {res.ci95[1]:.6f}]")
            rows.append(row)
        print(f"  {label:<24s} | " + " | ".join(cells))
    if args.csv:
        _csv_append(args.csv, rows)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    file_cfg = _read_config_file(args.config) if args.config else {}
    settings = _merge_settings(file_cfg, _flags_dict(args))
    model = _model(settings)
    if args.grid_points < 1:
        raise ConfigError(f"--grid-points must be >= 1, got {args.grid_points}")
    if not (math.isfinite(args.grid_min) and math.isfinite(args.grid_max)):
        raise ConfigError("--grid-min and --grid-max must be finite, got "
                          f"{args.grid_min} and {args.grid_max}")
    try:
        grid = np.linspace(args.grid_min, args.grid_max, args.grid_points)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"--grid-points {args.grid_points} is too many: {exc}") from None
    rep = validate_model(model, grid)
    print(f"model {settings['model']}  kappa={model.kappa:.6g}  "
          f"grid [{args.grid_min:g}, {args.grid_max:g}] x {args.grid_points}")
    print(f"  sigma_S^2 in [{rep.sigma_S_sq_min:.6g}, {rep.sigma_S_sq_max:.6g}]  "
          f"bounds {'ok' if rep.sigma_S_ok else 'VIOLATED'}")
    print(f"  sigma_Y^2 in [{rep.sigma_Y_sq_min:.6g}, {rep.sigma_Y_sq_max:.6g}]  "
          f"bounds {'ok' if rep.sigma_Y_ok else 'VIOLATED'}")
    print(f"  derivative handles: max rel err {rep.deriv_max_rel_err:.3g}  "
          f"{'ok' if rep.derivatives_ok else 'INCONSISTENT'}")
    print(f"  declared shapes: {'ok' if rep.declarations_ok else 'CONTRADICTED'}")
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
