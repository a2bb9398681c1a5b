# Command line interface: argument/config handling, exit codes, CSV output,
# table layouts, and the validate report.

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import uvol
from uvol.cli import (_CONFIG_KEYS, _CSV_FIELDS, ConfigError, TableSpec,
                      load_config, run, table_spec)
from uvol import baselines, cli, estimators
from uvol.estimators import estimate_price


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Exit codes and basic dispatch


@pytest.mark.parametrize("module", ["uvol", "uvol.cli"])
def test_module_run_prints_no_warning(module):
    # warnings are errors here: the package must not import the CLI module
    # before ``-m`` runs it
    env = dict(os.environ)
    src = str(Path(uvol.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", module, "price", "--model", "bs",
         "--paths", "2000"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("price")


def test_package_loads_the_cli_names_lazily():
    assert uvol.ConfigError is ConfigError
    assert uvol.load_config is load_config
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        uvol.nope


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2
    assert "usage" in capsys.readouterr().err


def test_price_smoke(capsys):
    code = run(["price", "--model", "bs", "--paths", "200", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "price" in out
    assert "mean=" in out
    assert "ci95=" in out


def test_missing_model_is_config_error(capsys):
    assert run(["price", "--paths", "50"]) == 2
    assert "model" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run(["price", "--model", "bs", "--frobnicate"]) == 2


def test_degenerate_correlation_is_numerical_error(capsys):
    code = run(["price", "--model", "bs", "--rho", "0.99999999999999994",
                "--paths", "50", "--seed", "0"])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical error:" in err


# ---------------------------------------------------------------------------
# JSON configuration


def test_config_file_drives_run(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": "bs", "paths": 150, "seed": 4})
    assert run(["price", "--config", cfg]) == 0
    assert "n=150" in capsys.readouterr().out


def test_flags_override_config_file(tmp_path):
    cfg = write_config(tmp_path, {"model": "bs", "paths": 120,
                                  "strike": 1.2, "seed": 4})
    out = tmp_path / "rows.csv"
    assert run(["price", "--config", cfg, "--strike", "1.4",
                "--csv", str(out)]) == 0
    (row,) = read_rows(out)
    assert float(row["strike"]) == 1.4   # flag wins
    assert row["n_paths"] == "120"       # file value kept


@pytest.mark.parametrize("data, fragment", [
    ({}, "model"),
    ({"model": "bs", "volatility": 0.3}, "unknown config key"),
    ({"model": "quartic"}, "unknown model"),
    ({"model": "bs", "sampler": "gamma"}, "unknown sampler"),
    ({"model": "bs", "payoff": "asian"}, "unknown payoff"),
    ({"model": "bs", "s0": -2.0}, "positive"),
    ([1, 2], "JSON object"),
    ({"model": "stein", "strike": "abc"}, "'strike' must be a number"),
    ({"model": "stein", "paths": [1]}, "'paths' must be a number"),
    ({"model": "stein", "s0": "abc"}, "'s0' must be a number"),
    ({"model": "stein", "discount": "false"}, "'discount' must be true or false"),
    ({"model": "bs", "paths": True}, "'paths' must be a number"),
    ({"model": "bs", "strike": True}, "'strike' must be a number"),
    ({"model": "bs", "paths": 2000.9}, "'paths' must be a number with no fractional"),
    ({"model": "bs", "seed": 1.5}, "'seed' must be a number with no fractional"),
    ({"model": "bs", "threads": 1.9}, "'threads' must be a number with no fractional"),
    ({"model": "bs", "strike": "1.4", "paths": 2000}, "'strike' must be a number"),
    ({"model": "bs", "paths": "2000"}, "'paths' must be a number"),
])
def test_bad_config_contents(tmp_path, capsys, data, fragment):
    cfg = write_config(tmp_path, data)
    assert run(["price", "--config", cfg]) == 2
    assert fragment in capsys.readouterr().err


def test_config_file_must_exist(tmp_path, capsys):
    assert run(["price", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_config_file_must_be_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["price", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


# a UTF-16 byte-order mark, then a byte no UTF-8 text holds
NOT_UTF8 = b"\xff\xfe{\x00\xc3("


@pytest.mark.parametrize("command", [["price"], ["validate"]])
def test_config_file_must_be_utf8(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(NOT_UTF8)
    assert run(command + ["--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert f"config file {path} is not UTF-8" in err


def test_s0_and_x0_conflict(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": "bs", "s0": 1.5})
    assert run(["price", "--config", cfg, "--x0", "0.4"]) == 2
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["price", "--model", "stein", "--paths", "10"],
    ["table", "--id", "1", "--paths", "10"],
])
def test_bad_thread_variable_is_config_error(monkeypatch, capsys, argv):
    for value in ("abc", "0", "-3"):
        monkeypatch.setenv("UVOL_THREADS", value)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"UVOL_THREADS must be an integer >= 1, got {value!r}" in err


@pytest.mark.parametrize("bad", [
    {"sampler": "exponential", "rate": 0.0},
    {"alpha": 1.5},
    {"tau_bar": -1.0},
])
def test_bad_sampler_parameters_are_config_errors(tmp_path, capsys, bad):
    flags = [a for k, v in bad.items() for a in ("--" + k.replace("_", "-"), str(v))]
    assert run(["price", "--model", "stein", "--paths", "10"] + flags) == 2
    path = write_config(tmp_path, {"model": "stein", "paths": 10, **bad})
    assert run(["price", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "numerical" not in err


@pytest.mark.parametrize("y0", ["nan", "inf"])
def test_non_finite_y0_is_config_error(capsys, y0):
    assert run(["price", "--model", "stein", "--paths", "10", "--y0", y0]) == 2
    assert "y0 must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--x0", "710"], ["--r", "-1420"]])
def test_float_overflow_is_numerical_error(capsys, flags):
    # exp(x0) and the discount factor exp(-r*T) overflow a double
    assert run(["price", "--model", "stein", "--paths", "10"] + flags) == 3
    assert "numerical error:" in capsys.readouterr().err


# an overflow inside a chain step or weight, or in the payoff's moments
_OVERFLOWS = [
    ["vega", "--y0", "1e154"],
    ["price", "--y0", "1e308"],
    ["price", "--r", "1e10"],
    ["price", "--lambda-y", "1e308"],
]


@pytest.mark.parametrize("argv", _OVERFLOWS)
def test_overflowing_weights_are_numerical_errors_without_warnings(capsys, argv):
    """Exit 3 with one line and no RuntimeWarning, never a confident zero.
    No warning is issued at all, so ``python -W error`` exits 3 the same way."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = run(argv + ["--model", "stein", "--paths", "100"])
    out = capsys.readouterr()
    assert code == 3 and not seen
    assert out.out == "" and out.err.startswith("numerical error:")
    assert out.err.count("\n") == 1


def test_grids_held_at_the_round_cap_are_numerical_errors(capsys):
    """Every gap of this sampler underflows to zero and is redrawn, so the
    path never reaches T: one line naming the round cap, exit 3."""
    argv = ["price", "--model", "bs", "--sampler", "beta", "--alpha", "0.999999999",
            "-T", "1e-6", "--paths", "1"]
    assert run(argv) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("numerical error: the renewal grids of 1 of 1 paths")
    assert "within 10000 rounds" in out.err


def test_horizon_beyond_the_jump_cap_is_config_error(capsys):
    start = time.perf_counter()
    assert run(["price", "--model", "stein", "-T", "9319", "--paths", "64"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "T = 9319.0" in err and "mean gaps of 0.9474" in err


# wrong-typed values for any config key; none spell a large number, so runs stay small
_WRONG_VALUES = st.one_of(
    st.none(), st.booleans(),
    st.text(alphabet=st.characters(exclude_categories=("Nd", "No", "Nl")), max_size=6),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=1),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 0.5]),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["price", "delta", "vega"]),
       overrides=st.dictionaries(st.sampled_from(sorted(_CONFIG_KEYS)),
                                 _WRONG_VALUES, min_size=1, max_size=3))
def test_fuzzed_config_exits_cleanly(command, overrides):
    """Bad config values end in exit code 0, 2 or 3, never a traceback."""
    data = {"model": "stein", "paths": 64, "seed": 1}
    data.update(overrides)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(data))
        assert run([command, "--config", str(path)]) in (0, 2, 3)


def test_bad_model_parameters_are_config_errors(capsys):
    # rho outside (-1, 1) is caught at model construction
    assert run(["price", "--model", "bs", "--rho", "1.5",
                "--paths", "10"]) == 2
    assert "error:" in capsys.readouterr().err


def test_load_config_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, {"model": "stein", "paths": 250,
                                              "seed": 7, "x0": 0.0}))
    assert cfg.n_paths == 250
    assert cfg.seed == 7
    assert cfg.s0 == pytest.approx(1.0, rel=1e-15)
    assert cfg.T == 0.5
    assert cfg.discount is True
    assert cfg.sampler.kind == "beta"
    assert cfg.payoff.kind == "call"
    assert cfg.payoff.strike == 1.5


def test_load_config_accepts_s0(tmp_path):
    cfg = load_config(write_config(tmp_path, {"model": "bs", "s0": 2.0}))
    assert cfg.s0 == pytest.approx(2.0, rel=1e-15)


def test_s0_reaches_the_run_exactly(tmp_path, monkeypatch):
    # s0 is stored as given, not passed through log and exp
    seen = []
    monkeypatch.setitem(cli._ESTIMATORS, "price",
                        lambda cfg: seen.append(cfg.s0) or estimate_price(cfg))
    out = tmp_path / "rows.csv"
    path = write_config(tmp_path, {"model": "bs", "s0": 1.1, "paths": 20})
    assert run(["price", "--model", "bs", "--s0", "3", "--paths", "20",
                "--csv", str(out)]) == 0
    assert run(["price", "--config", path, "--csv", str(out)]) == 0
    assert seen == [3.0, 1.1]
    # 17 significant digits round-trip doubles exactly
    assert [float(row["s0"]) for row in read_rows(out)] == [3.0, 1.1]
    assert load_config(path).s0 == 1.1


def test_csv_floats_read_as_given(tmp_path):
    out = tmp_path / "rows.csv"
    assert run(["price", "--model", "bs", "--s0", "1.1", "--paths", "20",
                "--csv", str(out)]) == 0
    (row,) = read_rows(out)
    assert row["s0"] == "1.1"


def test_x0_is_exponentiated_once(tmp_path):
    path = write_config(tmp_path, {"model": "bs", "x0": 0.4})
    assert load_config(path).s0 == math.exp(0.4)


def test_load_config_raises_config_error(tmp_path):
    with pytest.raises(ConfigError, match="model"):
        load_config(write_config(tmp_path, {}))


# ---------------------------------------------------------------------------
# CSV output


def test_csv_roundtrip_matches_in_process_estimate(tmp_path, monkeypatch):
    monkeypatch.delenv("UVOL_THREADS", raising=False)
    cfg_path = write_config(tmp_path, {"model": "bs", "paths": 400,
                                       "seed": 3, "strike": 1.2})
    out = tmp_path / "rows.csv"
    assert run(["price", "--config", cfg_path, "--csv", str(out)]) == 0
    (row,) = read_rows(out)
    res = estimate_price(load_config(cfg_path))
    # 17 significant digits round-trip doubles exactly
    assert float(row["mean"]) == res.mean
    assert float(row["std_error"]) == res.std_error
    assert int(row["n_paths"]) == res.n_paths


def test_csv_append_keeps_single_header(tmp_path):
    out = tmp_path / "rows.csv"
    for seed in ("1", "2"):
        assert run(["price", "--model", "bs", "--paths", "60",
                    "--seed", seed, "--csv", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(_CSV_FIELDS)
    assert len(lines) == 3
    assert sum(1 for ln in lines if ln.startswith("table_id")) == 1


def test_control_z_flags_collapsed_weights(tmp_path, capsys):
    # ~15 jumps a path: the price weight averages ~0 against a known mean of 1
    out = tmp_path / "rows.csv"
    assert run(["price", "--model", "stein", "--sampler", "beta", "--alpha", "0.5",
                "--tau-bar", "1", "-T", "5", "--paths", "20000",
                "--csv", str(out)]) == 0
    line = capsys.readouterr().out
    z1 = float(line.split("control_z=[")[1].split(",")[0])
    (row,) = read_rows(out)
    assert float(row["control_z1"]) == pytest.approx(z1, abs=0.005)
    assert abs(z1) > 20.0
    assert row["control_z2"] != ""


@pytest.mark.parametrize("argv", [
    ["price", "--model", "bs", "--paths", "60"],
    ["table", "--id", "1", "--paths", "60"],
])
def test_csv_with_other_columns_is_not_appended_to(tmp_path, capsys, monkeypatch, argv):
    out = tmp_path / "rows.csv"
    old = ",".join(_CSV_FIELDS[:-2]) + "\n"  # a file from before the z-score columns
    out.write_text(old)

    def no_simulation(*args):
        raise AssertionError("the refusal must come before any simulation")

    monkeypatch.setattr(estimators, "_chunk_partials", no_simulation)
    assert run(argv + ["--csv", str(out)]) == 2
    assert "other columns" in capsys.readouterr().err
    assert out.read_text() == old


@pytest.mark.parametrize("argv", [
    ["price", "--model", "bs", "--paths", "100"],
    ["table", "--id", "1", "--paths", "60"],
])
@pytest.mark.parametrize("target, message", [
    ("missing/x.csv", "no directory"),
    (".", "is a directory"),
])
def test_csv_path_that_cannot_be_written_is_refused_first(tmp_path, capsys, monkeypatch,
                                                          argv, target, message):
    def no_simulation(*args):
        raise AssertionError("the refusal must come before any simulation")

    monkeypatch.setattr(estimators, "_chunk_partials", no_simulation)
    assert run(argv + ["--csv", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["price", "--model", "bs", "--paths", "60"],
    ["table", "--id", "1", "--paths", "60"],
])
def test_csv_that_is_not_utf8_is_refused_first(tmp_path, capsys, monkeypatch, argv):
    out = tmp_path / "rows.csv"
    out.write_bytes(NOT_UTF8)

    def no_simulation(*args):
        raise AssertionError("the refusal must come before any simulation")

    monkeypatch.setattr(estimators, "_chunk_partials", no_simulation)
    assert run(argv + ["--csv", str(out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == ""  # no table header either
    assert f"CSV file {out} is not UTF-8" in err and len(err.strip().splitlines()) == 1
    assert out.read_bytes() == NOT_UTF8


@pytest.mark.parametrize("exists", [True, False])
def test_csv_path_without_write_permission_is_refused(tmp_path, capsys, monkeypatch,
                                                      exists):
    out = tmp_path / "rows.csv"
    if exists:
        out.write_text("")
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    assert run(["price", "--model", "bs", "--paths", "100", "--csv", str(out)]) == 2
    assert "not writable" in capsys.readouterr().err
    assert out.exists() == exists


def test_no_discount_scales_mean(tmp_path):
    means = {}
    for label, extra in (("disc", []), ("nodisc", ["--no-discount"])):
        out = tmp_path / f"{label}.csv"
        assert run(["price", "--model", "bs", "--paths", "300", "--seed", "2",
                    "--strike", "1.2", "--csv", str(out)] + extra) == 0
        (row,) = read_rows(out)
        means[label] = float(row["mean"])
    assert means["nodisc"] == pytest.approx(
        means["disc"] * math.exp(0.03 * 0.5), rel=1e-12)


def test_compare_euler_adds_baseline_row(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = run(["price", "--model", "bs", "--paths", "200", "--seed", "1",
                "--compare-euler", "--euler-steps", "20",
                "--euler-paths", "2000", "--csv", str(out)])
    assert code == 0
    assert "euler" in capsys.readouterr().out
    rows = read_rows(out)
    assert [r["method"] for r in rows] == ["beta", "euler"]
    # the baseline row reports its own wall time
    assert all(float(r["seconds"]) > 0 for r in rows)
    # and no control z-scores, which only the weighted estimator has
    assert rows[0]["control_z1"] != "" and rows[1]["control_z1"] == ""


@pytest.mark.parametrize("argv", [
    ["price", "--euler-steps", "0"],
    ["price", "--euler-paths", "0"],
    ["delta", "--fd-eps", "0"],
    ["vega", "--fd-eps", "-0.01"],
    ["delta", "--fd-eps", "1e-320"],  # s0 + eps == s0
    ["vega", "--fd-eps", "1e-320"],  # y0 + eps == y0
    ["vega", "--fd-eps", "inf"],
    ["price", "--seed", "-1"],
    ["price", "--seed", "18446744073709551616"],  # 2**64 would draw as seed 0
])
def test_bad_euler_options_are_refused_before_the_estimate(capsys, monkeypatch, argv):
    def no_simulation(*args):
        raise AssertionError("the refusal must come before any simulation")

    monkeypatch.setattr(estimators, "_chunk_partials", no_simulation)
    monkeypatch.setattr(baselines, "euler_terminal", no_simulation)
    assert run(argv[:1] + ["--model", "bs", "--paths", "60", "--compare-euler"]
               + argv[1:]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


def test_fd_eps_is_not_checked_for_price(capsys):
    # only the finite-difference Greeks use the bump size
    assert run(["price", "--model", "bs", "--paths", "60", "--compare-euler",
                "--euler-steps", "5", "--euler-paths", "200", "--fd-eps", "0"]) == 0


def test_compare_euler_fd_for_delta(tmp_path):
    out = tmp_path / "rows.csv"
    assert run(["delta", "--model", "bs", "--paths", "200", "--seed", "1",
                "--compare-euler", "--euler-steps", "20",
                "--euler-paths", "2000", "--csv", str(out)]) == 0
    rows = read_rows(out)
    assert [r["method"] for r in rows] == ["beta", "euler_fd"]
    assert all(float(r["seconds"]) > 0 for r in rows)


# ---------------------------------------------------------------------------
# Tables


def test_table_spec_quantity_cycle():
    quantities = [table_spec(i).quantity for i in range(1, 13)]
    assert quantities == ["price", "delta", "vega"] * 4


def test_table_spec_models_and_payoffs():
    assert table_spec(1).model == "BlackScholes"
    assert table_spec(5).model == "SteinSteinAffine"
    assert table_spec(8).model == "PeriodicCosine"
    assert all(table_spec(i).payoff == "call" for i in range(1, 10))
    assert all(table_spec(i).payoff == "digital" for i in (10, 11, 12))


def test_table_spec_sweeps():
    spec = table_spec(1)
    assert spec.sweep == tuple({"sigma_s": v} for v in (0.25, 0.3, 0.4, 0.6))
    spec = table_spec(4)
    assert spec.sweep[0] == {"sigma1": 0.1, "sigma2": 0.15}
    assert len(spec.sweep) == 4
    # digital tables prepend the constant-volatility pair
    spec = table_spec(10)
    assert spec.model == "SteinSteinAffine"
    assert spec.sweep[0] == {"sigma1": 0.0, "sigma2": 0.3}
    assert len(spec.sweep) == 5


def test_table_spec_methods():
    assert table_spec(1).methods == ("closed", "euler", "exponential", "beta")
    assert table_spec(2).methods == ("closed", "euler_fd", "exponential", "beta")
    assert table_spec(3).methods == ("closed", "exponential", "beta")
    assert table_spec(6).methods == ("euler_fd", "exponential", "beta")


def test_table_spec_model_override():
    assert table_spec(11, "cosine").model == "PeriodicCosine"
    with pytest.raises(ConfigError, match="10-12"):
        table_spec(2, "stein")
    with pytest.raises(ConfigError, match="stein and cosine"):
        table_spec(10, "bs")
    with pytest.raises(ConfigError, match="1..12"):
        table_spec(0)


def test_table_spec_is_frozen():
    assert isinstance(table_spec(1), TableSpec)
    with pytest.raises(AttributeError):
        table_spec(1).model = "other"


def test_table_cli_rejects_override_for_call_tables(capsys):
    assert run(["table", "--id", "1", "--model", "stein"]) == 2
    assert "10-12" in capsys.readouterr().err


@pytest.mark.parametrize("table_id", ["3", "4"])
def test_table_refuses_a_bad_config_before_its_header(capsys, monkeypatch, table_id):
    def no_simulation(*args):
        raise AssertionError("the refusal must come before any simulation")

    monkeypatch.setattr(estimators, "_chunk_partials", no_simulation)
    assert run(["table", "--id", table_id, "--paths", "0", "--euler-paths", "100",
                "--euler-steps", "2"]) == 2
    captured = capsys.readouterr()
    assert "n_paths must be >= 1" in captured.err and captured.out == ""


def test_table_vega_csv(tmp_path, capsys):
    out = tmp_path / "table3.csv"
    code = run(["table", "--id", "3", "--paths", "300", "--seed", "0",
                "--csv", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "table 3: BlackScholes call vega" in stdout
    rows = read_rows(out)
    assert len(rows) == 12  # 4 sweep points x 3 methods
    assert {r["quantity"] for r in rows} == {"vega"}
    assert {r["table_id"] for r in rows} == {"3"}
    closed = [r for r in rows if r["method"] == "closed"]
    assert len(closed) == 4
    for r in closed:
        # constant volatility: the exact Vega in y0 is zero
        assert float(r["mean"]) == 0.0
        assert r["n_paths"] == "0"
        assert r["n_jumps_mean"] == ""
    mc = [r for r in rows if r["method"] != "closed"]
    assert all(int(r["n_paths"]) == 300 for r in mc)


def test_table_cell_equals_the_estimate_command(tmp_path):
    table, single = tmp_path / "table.csv", tmp_path / "single.csv"
    assert run(["table", "--id", "4", "--paths", "400", "--seed", "5",
                "--euler-paths", "100", "--euler-steps", "2",
                "--csv", str(table)]) == 0
    assert run(["price", "--model", "stein", "--sigma1", "0.1", "--sigma2", "0.15",
                "--sampler", "beta", "--paths", "400", "--seed", "5",
                "--csv", str(single)]) == 0
    (cell,) = [r for r in read_rows(table) if r["method"] == "beta"
               and (float(r["sigma1"]), float(r["sigma2"])) == (0.1, 0.15)]
    (row,) = read_rows(single)
    for key in ("mean", "std_error", "ci_lo", "ci_hi", "sampler"):
        assert cell[key] == row[key]


def test_table_baseline_cell_equals_the_compare_euler_row(tmp_path):
    table, single = tmp_path / "table.csv", tmp_path / "single.csv"
    euler = ["--paths", "100", "--seed", "2", "--euler-paths", "500",
             "--euler-steps", "5"]
    assert run(["table", "--id", "2", "--csv", str(table)] + euler) == 0
    assert run(["delta", "--model", "bs", "--sigma-s", "0.25", "--compare-euler",
                "--csv", str(single)] + euler) == 0
    (cell,) = [r for r in read_rows(table) if r["method"] == "euler_fd"
               and float(r["sigma_s"]) == 0.25]
    row = read_rows(single)[1]
    assert row["method"] == "euler_fd"
    for key in ("mean", "std_error", "ci_lo", "ci_hi", "n_paths", "sampler"):
        assert cell[key] == row[key]


# ---------------------------------------------------------------------------
# validate


def test_validate_healthy_model(capsys):
    assert run(["validate", "--model", "bs"]) == 0
    out = capsys.readouterr().out
    assert "model BlackScholes" in out
    assert "sigma_S^2 in" in out
    assert "derivative handles" in out
    assert out.strip().endswith("ok")


def test_validate_reports_bound_violations(capsys):
    # the affine volatility crosses zero on the default wide grid
    assert run(["validate", "--model", "stein"]) == 0
    out = capsys.readouterr().out
    assert "VIOLATED" in out
    assert out.strip().endswith("advisory warnings above")


@pytest.mark.parametrize("flag", [["--csv", "v.csv"], ["--paths", "5"],
                                  ["--rate", "0"], ["--no-discount"]])
def test_validate_rejects_flags_it_does_not_read(tmp_path, monkeypatch, capsys, flag):
    monkeypatch.chdir(tmp_path)
    assert run(["validate", "--model", "bs"] + flag) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("points", ["0", "-3"])
def test_validate_needs_a_grid_point(capsys, points):
    assert run(["validate", "--model", "bs", "--grid-points", points]) == 2
    assert "--grid-points" in capsys.readouterr().err


def test_validate_refuses_a_grid_numpy_cannot_size(capsys):
    # numpy refuses this many points before it allocates anything
    assert run(["validate", "--model", "bs", "--grid-points", str(10 ** 20)]) == 2
    assert "--grid-points" in capsys.readouterr().err


@pytest.mark.parametrize("bound", [["--grid-min", "nan"], ["--grid-max", "inf"],
                                   ["--grid-min=-inf"]])
def test_validate_needs_finite_grid_bounds(capsys, bound):
    assert run(["validate", "--model", "bs", *bound]) == 2
    captured = capsys.readouterr()
    assert "--grid-min and --grid-max must be finite" in captured.err
    assert "VIOLATED" not in captured.out


def test_validate_narrow_grid_is_clean(capsys):
    assert run(["validate", "--model", "stein", "--grid-min", "0.5",
                "--grid-max", "1.5", "--grid-points", "21"]) == 0
    out = capsys.readouterr().out
    assert "VIOLATED" not in out
    assert out.strip().endswith("ok")
