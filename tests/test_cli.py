# Command line interface: argument/config handling, exit codes, CSV output,
# table layouts, and the validate report.

import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uvol.cli import (_CONFIG_KEYS, _CSV_FIELDS, ConfigError, TableSpec,
                      load_config, run, table_spec)
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


def test_s0_and_x0_conflict(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": "bs", "s0": 1.5})
    assert run(["price", "--config", cfg, "--x0", "0.4"]) == 2
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["price", "--model", "stein", "--paths", "10"],
    ["table", "--id", "1", "--paths", "10"],
])
def test_bad_thread_variable_is_config_error(monkeypatch, capsys, argv):
    monkeypatch.setenv("UVOL_THREADS", "abc")
    assert run(argv) == 2
    assert "UVOL_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["bs", "stein", "cosine"])
def test_zero_panels_is_config_error(capsys, model):
    assert run(["price", "--model", model, "--panels", "0", "--paths", "10"]) == 2
    assert "panels" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--x0", "710"], ["--r", "-1420"]])
def test_float_overflow_is_numerical_error(capsys, flags):
    # exp(x0) and the discount factor exp(-r*T) overflow a double
    assert run(["price", "--model", "stein", "--paths", "10"] + flags) == 3
    assert "numerical error:" in capsys.readouterr().err


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


def test_validate_narrow_grid_is_clean(capsys):
    assert run(["validate", "--model", "stein", "--grid-min", "0.5",
                "--grid-max", "1.5", "--grid-points", "21"]) == 0
    out = capsys.readouterr().out
    assert "VIOLATED" not in out
    assert out.strip().endswith("ok")
