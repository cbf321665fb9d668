"""End-to-end tests of the command line interface."""

import csv
import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nbinar
from nbinar import (
    ModelParams,
    Series,
    TransitionTable,
    estimation,
    selftest,
    simulate,
    thinning,
    transition_prob,
    transition_table,
    write_series,
)
from nbinar import cli
from nbinar.cli import main
from nbinar.montecarlo import CSV_COLUMNS, ESTIMATORS, _fit_row

from conftest import check_suite, suite_result

P_HAND = ModelParams(0.5, 2.0, 1.0)
BASE = ["--alpha", "0.5", "--mu", "2", "--r", "1"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_transition_prints_hand_values(capsys):
    code, out = run(capsys, ["transition", *BASE, "--i", "1", "--j", "1"])
    assert code == 0
    assert out.strip() == "0.25"
    code, out = run(capsys, ["transition", *BASE, "--i", "0", "--j", "0"])
    assert code == 0
    assert out.strip() == "0.5"


def test_transition_prints_15_significant_digits(capsys):
    code, out = run(capsys, ["transition", *BASE, "--i", "4", "--j", "7",
                             "--h", "2"])
    assert code == 0
    assert out.strip() == f"{transition_prob(P_HAND, 4, 7, 2):.15g}"


def test_transition_rejects_bad_params(capsys):
    code = main(["transition", "--alpha", "1.5", "--mu", "2", "--r", "1",
                 "--i", "0", "--j", "0"])
    assert code == 2
    assert main(["transition", *BASE, "--i", "0", "--j", "0", "--h", "0"]) == 2


def test_transition_where_alpha_h_underflows(capsys):
    # 0.5^1100 underflows to 0; the cell is then the innovation law's, 2/9
    code, out = run(capsys, ["transition", *BASE, "--i", "1", "--j", "1", "--h", "1100"])
    assert code == 0
    assert out.strip() == "0.222222222222222"


def test_transition_where_q_tilde_underflows_exits_2(capsys):
    code = main(["transition", "--alpha", "1e-300", "--mu", "1e300", "--r", "1e-300",
                 "--i", "3", "--j", "7"])
    assert code == 2
    assert "q_tilde_h" in capsys.readouterr().err


def test_transition_table_csv(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, _ = run(capsys, ["transition", *BASE, "--table", "40",
                           "--out", str(out_path)])
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 41
    got = float(rows[1]["1"])
    assert abs(got - 0.25) <= 1e-15
    total = sum(float(rows[3][str(j)]) for j in range(41))
    assert total + float(rows[3]["tail_mass"]) == pytest.approx(1.0, abs=1e-12)


def test_transition_table_past_the_cell_budget_exits_2(tmp_path, capsys):
    out_path = tmp_path / "big.csv"
    assert main(["transition", *BASE, "--table", "5001", "--out", str(out_path)]) == 2
    assert "cell budget" in capsys.readouterr().err
    assert not out_path.exists()
    # a table of 10^24 cells is refused as cleanly, before its rows are formed
    assert main(["transition", *BASE, "--table", str(10**12), "--out", str(out_path)]) == 2
    assert "cell budget" in capsys.readouterr().err
    assert not out_path.exists()


def test_transition_table_at_tiny_r_holds_no_nan(tmp_path, capsys):
    # the row kernel's forward run lost r at r = 1e-15 and wrote NaN in every row
    out_path = tmp_path / "tiny.csv"
    code, _ = run(capsys, ["transition", "--alpha", "0.5", "--mu", "2", "--r", "1e-15",
                           "--table", "60", "--out", str(out_path)])
    assert code == 0
    assert "nan" not in out_path.read_text().lower()


def test_transition_table_two_step_matches_squared_one_step(tmp_path, capsys):
    # the h=2 table equals the square of the h=1 law; square on a buffered
    # window so probability does not leak at the crop boundary
    big, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(["transition", *BASE, "--table", "180", "--out", str(big)]) == 0
    assert main(["transition", *BASE, "--table", "80", "--h", "2",
                 "--out", str(two)]) == 0
    capsys.readouterr()

    def load(path, j_max):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        return np.array([[float(r[str(j)]) for j in range(j_max + 1)]
                         for r in rows])

    one = load(big, 180)
    square = (one @ one)[:81, :81]
    assert np.max(np.abs(square - load(two, 80))) <= 1e-8


def test_simulate_deterministic_and_sidecar(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["simulate", *BASE, "--n", "200", "--seed", "7"]
    assert main([*argv, "--out", str(a)]) == 0
    assert main([*argv, "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    meta = json.loads((tmp_path / "a.txt.meta.json").read_text())
    assert meta["seed"] == 7 and meta["n"] == 200
    assert meta["alpha"] == 0.5


def test_simulate_rejects_bad_alpha(tmp_path):
    code = main(["simulate", "--alpha", "1.5", "--mu", "2", "--r", "1",
                 "--n", "50", "--seed", "1", "--out", str(tmp_path / "x.txt")])
    assert code == 2
    dest = tmp_path / "empty.txt"
    assert main(["simulate", *BASE, "--n", "0", "--seed", "1", "--out", str(dest)]) == 2
    assert not dest.exists()


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    dest = tmp_path / "x.txt"
    assert main(["simulate", *BASE, "--n", "50", "--seed", "-1", "--out", str(dest)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not dest.exists()


def test_simulate_too_wide_to_sample_exits_2(tmp_path, capsys):
    dest = tmp_path / "a.txt"
    code = main(["simulate", "--alpha", "0.5", "--mu", "1e300", "--r", "1",
                 "--n", "10", "--seed", "1", "--out", str(dest)])
    assert code == 2
    assert "Poisson sampler refused" in capsys.readouterr().err
    assert not dest.exists()


def test_simulate_past_the_int64_counts_exits_2(tmp_path, capsys):
    # the marginal NB(1e-3, 1e300) has its 1 - 1e-12 quantile far past 2^63, so
    # no table is built; numpy's Poisson sampler refuses the innovations'
    # gamma means past int64
    dest = tmp_path / "s.txt"
    code = main(["simulate", "--alpha", "1e-300", "--mu", "1e300", "--r", "1e-3",
                 "--n", "200", "--seed", "3", "--out", str(dest)])
    assert code == 2
    assert "too wide to sample" in capsys.readouterr().err
    assert not dest.exists()


def test_import_and_cml_fit_leave_scipy_optimize_out():
    # importing it costs some 0.14 s, and its L-BFGS-B ran on a BLAS thread
    # pool; a fresh interpreter imports the package and the CLI and fits once
    src = Path(nbinar.__file__).resolve().parents[1]
    code = ("import sys, numpy, nbinar, nbinar.cli; "
            "nbinar.cml_fit(nbinar.Series(numpy.array([1, 2, 0, 3, 2, 2, 1, 0, 1, 4]))); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_simulate_io_failure(tmp_path):
    dest = tmp_path / "no" / "such" / "dir" / "x.txt"
    code = main(["simulate", *BASE, "--n", "50", "--seed", "1",
                 "--out", str(dest)])
    assert code == 3


def test_estimate_cls_hand_series(tmp_path, capsys):
    series_path = tmp_path / "s.txt"
    write_series(series_path, Series(np.array([1, 2, 1, 2, 1])))
    code, out = run(capsys, ["estimate", "--in", str(series_path),
                             "--method", "cls"])
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "cls"
    assert doc["estimates"]["alpha_hat"] == -1.0
    assert doc["estimates"]["mu_eps_hat"] == 3.0
    assert "out-of-range" in doc["flags"]


def test_estimate_cls_var_heavy_counts(tmp_path, capsys):
    # a series with mean ~1e6: the predicted covariance is evaluated at
    # the estimates without summing over the marginal pmf
    series_path = tmp_path / "s.txt"
    write_series(series_path, simulate(ModelParams(0.5, 1e6, 0.5), 2000,
                                       np.random.default_rng(1)))
    code, out = run(capsys, ["estimate", "--in", str(series_path),
                             "--method", "cls-var"])
    assert code == 0
    doc = json.loads(out)
    assert doc["flags"] == ["ok"]
    assert np.all(np.isfinite(doc["predicted_cov"]["sigma_vars"]))


def test_estimate_writes_report_file(tmp_path, capsys):
    series_path = tmp_path / "s.txt"
    write_series(series_path, Series(simulate(P_HAND, 400,
                                              np.random.default_rng(3)).values))
    report_path = tmp_path / "report.json"
    code, _ = run(capsys, ["estimate", "--in", str(series_path),
                           "--method", "cls-var", "--out", str(report_path)])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["method"] == "cls-var"
    assert "sigma_g2_hat" in doc["estimates"]
    assert "predicted_cov" in doc


def test_estimate_known_means_mode(tmp_path, capsys):
    series_path = tmp_path / "s.txt"
    write_series(series_path, Series(simulate(P_HAND, 400,
                                              np.random.default_rng(4)).values))
    code, out = run(capsys, ["estimate", "--in", str(series_path),
                             "--method", "cls-var", "--known-alpha", "0.5",
                             "--known-mueps", "1.0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["residual_mode"] == "known-means"
    assert doc["alpha_used"] == 0.5 and doc["mu_eps_used"] == 1.0


def test_estimate_cml_smoke(tmp_path, capsys):
    series_path = tmp_path / "s.txt"
    write_series(series_path, Series(simulate(P_HAND, 300,
                                              np.random.default_rng(5)).values))
    code, out = run(capsys, ["estimate", "--in", str(series_path),
                             "--method", "cml"])
    assert code == 0
    doc = json.loads(out)
    assert "loglik" in doc
    assert doc["convergence"]["converged"] in (True, False)
    assert doc["convergence"]["n_iter"] >= 1
    assert set(doc["init"]) == {"alpha", "mu", "r"}


# flags a report adds about its predicted covariance; every other flag is
# the fit's own and also appears in the Monte Carlo row
COV_FLAGS = ("cov-requires-r", "cov-unavailable")


@pytest.mark.parametrize("values", [
    simulate(P_HAND, 300, np.random.default_rng(5)).values,
    np.array([1, 2] * 15),  # alpha_hat = -1: out-of-range, r-undefined
])
def test_estimate_reports_agree_with_mc_rows(tmp_path, capsys, values):
    series = Series(values)
    series_path = tmp_path / "s.txt"
    write_series(series_path, series)
    for method in ESTIMATORS:
        code, out = run(capsys, ["estimate", "--in", str(series_path),
                                 "--method", method])
        assert code == 0
        doc = json.loads(out)
        row = _fit_row(method, series, len(series) - 1, 0)
        for field in CSV_COLUMNS[3:-1]:
            want = row[field] if math.isfinite(row[field]) else None
            assert doc["estimates"].get(field) == want, (method, field)
        fit_flags = [f for f in doc["flags"] if f not in COV_FLAGS] or ["ok"]
        assert ";".join(fit_flags) == row["flags"], method
    # no covariance is predicted for the likelihood fit yet
    assert doc["predicted_cov"] is None and doc["flags"][-1] == "cov-unavailable"


def test_estimate_cml_reports_fit_flags(tmp_path, capsys, monkeypatch):
    series = simulate(P_HAND, 300, np.random.default_rng(5))
    series_path = tmp_path / "s.txt"
    write_series(series_path, series)
    fit = estimation.cml_fit(series)
    monkeypatch.setattr(estimation, "cml_fit", lambda s: dataclasses.replace(
        fit, converged=False, n_underflow=2))
    code, out = run(capsys, ["estimate", "--in", str(series_path), "--method", "cml"])
    assert code == 0
    doc = json.loads(out)
    assert doc["flags"] == ["non-converged", "underflow", "cov-unavailable"]
    assert doc["convergence"]["n_underflow"] == 2 and doc["predicted_cov"] is None
    assert _fit_row("cml", series, len(series) - 1, 0)["flags"] == "non-converged;underflow"


def test_estimate_known_mueps_alone_is_rejected(tmp_path):
    series_path = tmp_path / "s.txt"
    write_series(series_path, simulate(P_HAND, 100, np.random.default_rng(6)))
    argv = ["estimate", "--in", str(series_path), "--method", "cls-var"]
    assert main([*argv, "--known-mueps", "1.0"]) == 2
    assert main([*argv, "--known-alpha", "0.5"]) == 2
    # known means outside the parameter domain: alpha in (0, 1), mu_eps > 0
    for alpha, mu_eps in (("nan", "1"), ("1.5", "1"), ("0.5", "-3")):
        assert main([*argv, "--known-alpha", alpha, "--known-mueps", mu_eps]) == 2


def test_parser_built_once_runs_each_command_as_if_alone(tmp_path, capsys, monkeypatch):
    series_path = tmp_path / "s.txt"
    write_series(series_path, simulate(P_HAND, 400, np.random.default_rng(4)))
    estimate = ["estimate", "--in", str(series_path), "--method", "cls-var"]
    sequence = [[*estimate, "--known-alpha", "0.5", "--known-mueps", "1.0"],
                estimate,
                ["transition", "--alpha", "1.5", "--mu", "2", "--r", "1",
                 "--i", "0", "--j", "0"],
                ["transition", *BASE, "--i", "1", "--j", "1"]]
    assert cli._parser() is cli._parser() and cli.build_parser() is not cli.build_parser()
    in_sequence = [run(capsys, argv) for argv in sequence]
    assert [code for code, _ in in_sequence] == [0, 0, 2, 0]
    assert json.loads(in_sequence[0][1])["residual_mode"] == "known-means"
    assert json.loads(in_sequence[1][1])["residual_mode"] == "estimated-means"
    assert in_sequence[3][1].strip() == "0.25"
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
    assert [run(capsys, argv) for argv in sequence] == in_sequence


def test_cached_parser_calls_the_current_command_function(monkeypatch):
    cli._parser()  # built before the name is rebound
    monkeypatch.setattr(cli, "cmd_selftest", lambda args: 7)
    assert main(["selftest"]) == 7


# refusals made before any work runs: argv, exit code and part of the message;
# each argv names the files that ``refusal_files`` writes
REFUSALS = [
    pytest.param(["transition", *BASE, "--table", "5"], 2, "--table requires --out",
                 id="table-without-out"),
    pytest.param(["transition", *BASE], 2, "provide --i and --j, or --table J",
                 id="transition-without-a-cell"),
    # qbar_h = (1 - alpha) mu / (r + (1 - alpha) mu) rounds to 0, whose log the
    # kernel took: "math domain error"
    pytest.param(["transition", "--alpha", "0.5", "--mu", "1e-200", "--r", "1e200", "--i", "2",
                  "--j", "2"], 2, "qbar_h", id="qbar-underflows"),
    pytest.param(["estimate", "--in", "{series}", "--method", "cls", "--known-alpha", "0.5",
                  "--known-mueps", "1"], 2, "apply to --method cls-var only",
                 id="known-means-with-cls"),
    pytest.param(["estimate", "--in", "{nine}", "--method", "cml"], 2,
                 "at least 10 observations", id="cml-on-9-observations"),
    pytest.param(["estimate", "--in", "{empty}", "--method", "cls"], 3, "is empty",
                 id="empty-series-file"),
    pytest.param(["estimate", "--in", "{no_x}", "--method", "cls"], 3, "column named 'x'",
                 id="csv-without-x"),
    pytest.param(["estimate", "--in", "{abc}", "--method", "cls"], 3, "column named 'x'",
                 id="text-without-x"),
    pytest.param(["estimate", "--in", "{past_int64}", "--method", "cls"], 3, "int64 range",
                 id="count-past-int64"),
    pytest.param(["mc", "--config", "{array}"], 2, "must be an object",
                 id="config-not-an-object"),
    pytest.param(["mc", "--config", "{missing}"], 3, "cannot read config",
                 id="missing-config"),
    pytest.param(["mc", "--config", "{not_json}"], 2, "not valid JSON",
                 id="config-not-json"),
    pytest.param(["mc", "--config", "{no_output}"], 2, "must set output_path",
                 id="config-without-output-path"),
]


@pytest.fixture
def refusal_files(tmp_path):
    config = {"alpha": 0.5, "mu": 2.0, "r": 1.0, "n_grid": [50], "replicates": 2,
              "estimators": ["cls"], "master_seed": 1}
    files = {"series": "1\n2\n1\n2\n1\n", "nine": "".join(f"{v}\n" for v in range(9)),
             "empty": "", "no_x": "t,y\n0,1\n1,2\n", "abc": "abc\n1\n2\n",
             "past_int64": "1\n9223372036854775808\n3\n",
             "array": "[1, 2]", "not_json": "{alpha: 0.5",
             "no_output": json.dumps(config)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in [*files, "missing"]}


@pytest.mark.parametrize("argv, code, message", REFUSALS)
def test_refusals_exit_with_a_message(capsys, monkeypatch, tmp_path, refusal_files,
                                      argv, code, message):
    monkeypatch.chdir(tmp_path)
    assert main([arg.format(**refusal_files) for arg in argv]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(refusal_files.keys() - {"missing"})


def test_estimate_cls_var_outside_the_domain_is_cov_unavailable(tmp_path, capsys):
    # alpha_hat = -0.31 with r_hat = 8.7: no covariance at a point outside the domain
    series_path = tmp_path / "s.txt"
    write_series(series_path, Series(np.array([5, 12, 8, 0, 11, 10, 12, 2, 1, 12, 0, 8])))
    code, out = run(capsys, ["estimate", "--in", str(series_path), "--method", "cls-var"])
    assert code == 0
    doc = json.loads(out)
    assert doc["estimates"]["alpha_hat"] < 0 and doc["estimates"]["r_hat"] > 0
    assert doc["flags"] == ["out-of-range", "cov-unavailable"]
    assert doc["predicted_cov"] is None


@pytest.mark.parametrize("method", ["cls", "yw", "cls-var"])
def test_fit_row_of_a_constant_series_is_degenerate(method):
    row = _fit_row(method, Series(np.full(30, 4)), 29, 0)
    assert row["flags"] == "degenerate"
    assert all(math.isnan(row[field]) for field in CSV_COLUMNS[3:-1])


def test_estimate_constant_series_exit_code(tmp_path):
    series_path = tmp_path / "c.txt"
    series_path.write_text("4\n4\n4\n4\n4\n")
    assert main(["estimate", "--in", str(series_path), "--method", "yw"]) == 4


def test_estimate_missing_file_exit_code(tmp_path):
    missing = tmp_path / "nope.txt"
    assert main(["estimate", "--in", str(missing), "--method", "cls"]) == 3


def test_estimate_malformed_file_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1\ntwo\n3\n")
    assert main(["estimate", "--in", str(bad), "--method", "cls"]) == 3


@pytest.mark.parametrize("values", [
    # counts near 4e9, where an int64 pair code i (max j + 1) + j wraps
    [4 * 10**9 + d for d in (0, 1, -1, 2, 0, 3, -2, 1, 0, 2, -1)],
    # counts near 1e9: about 1e10 mixture terms
    [10**9 + d for d in (0, 5, -3, 2, 7, -1, 4, 0, 6, -2, 3)],
], ids=["near-4e9", "near-1e9"])
def test_estimate_cml_over_the_work_budget_exits_2(tmp_path, capsys, values):
    path = tmp_path / "series.txt"
    path.write_text("".join(f"{v}\n" for v in values))
    assert main(["estimate", "--in", str(path), "--method", "cml"]) == 2
    err = capsys.readouterr().err
    assert "mixture terms" in err and "budget" in err and "Traceback" not in err


def test_mc_subcommand_round_trip(tmp_path, capsys):
    base = tmp_path / "mc"
    config = {"alpha": 0.5, "mu": 2.0, "r": 1.0, "n_grid": [50],
              "replicates": 2, "estimators": ["cls", "yw"], "master_seed": 11,
              "output_path": str(base)}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["mc", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "mc.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2  # header + replicates x estimators
    first = (tmp_path / "mc.csv").read_bytes()
    assert main(["mc", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "mc.csv").read_bytes() == first
    doc = json.loads((tmp_path / "mc.json").read_text())
    assert {b["estimator"] for b in doc["blocks"]} == {"cls", "yw"}


def test_mc_schema_violation_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"alpha": 0.5}))
    assert main(["mc", "--config", str(cfg_path)]) == 2
    # a fractional seed is refused, not truncated
    cfg_path.write_text(json.dumps({
        "alpha": 0.5, "mu": 2.0, "r": 1.0, "n_grid": [50], "replicates": 2,
        "estimators": ["cls"], "master_seed": 1.5,
        "output_path": str(tmp_path / "mc")}))
    assert main(["mc", "--config", str(cfg_path)]) == 2
    # a boolean mean is refused, not read as 1
    cfg_path.write_text(json.dumps({
        "alpha": 0.5, "mu": True, "r": 1.0, "n_grid": [50], "replicates": 2,
        "estimators": ["cls"], "master_seed": 1,
        "output_path": str(tmp_path / "mc")}))
    assert main(["mc", "--config", str(cfg_path)]) == 2
    # repeated estimators or sample sizes are refused, not run twice
    for repeated in ({"estimators": ["cls", "cls"]}, {"n_grid": [50, 50]}):
        cfg_path.write_text(json.dumps({
            "alpha": 0.5, "mu": 2.0, "r": 1.0, "n_grid": [50], "replicates": 2,
            "estimators": ["cls"], "master_seed": 1,
            "output_path": str(tmp_path / "mc"), **repeated}))
        assert main(["mc", "--config", str(cfg_path)]) == 2
    # a non-list estimators field and a path that is not a non-empty string are
    # refused before anything runs or is written
    for bad in ({"estimators": 5}, {"output_path": 7}, {"output_path": ""}):
        cfg_path.write_text(json.dumps({
            "alpha": 0.5, "mu": 2.0, "r": 1.0, "n_grid": [50], "replicates": 2,
            "estimators": ["cls"], "master_seed": 1,
            "output_path": str(tmp_path / "mc"), **bad}))
        assert main(["mc", "--config", str(cfg_path)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("name", selftest.SUITES)
def test_selftest_suite(name):
    check_suite(name)


def test_selftest_passes(capsys, monkeypatch):
    # the command runs each suite from the session's cache, not a second time
    monkeypatch.setattr(selftest, "SUITES", {
        name: functools.partial(suite_result, name) for name in selftest.SUITES})
    code, out = run(capsys, ["selftest"])
    assert code == 0
    assert "FAIL" not in out
    for name in selftest.SUITES:
        assert f"PASS {name}: " in out
    # the reported row-sum gap is the maximum over every grid triple and h
    gap = max(float(np.abs(1.0 - transition_table(p, None, h).probs[:21].sum(axis=1)).max())
              for p in selftest.PARAM_GRID for h in (1, 2, 5))
    assert f"max |1 - row sum| {gap:.3e};" in out


def test_selftest_suite_fails_on_a_nan_residual(monkeypatch):
    # the NaN comes after finite residuals, where max() would drop it
    real = selftest.g_central_moments

    def nan_variance_at_alpha_07(p):
        mean, m2, m3, m4 = real(p)
        return mean, math.nan if p.alpha == 0.7 else m2, m3, m4

    monkeypatch.setattr(selftest, "g_central_moments", nan_variance_at_alpha_07)
    ok, detail = selftest.SUITES["stationary-variance-identity"]()
    assert not ok and "residual nan" in detail


def test_selftest_h_fold_suite_fails_on_a_scaled_alpha_h(monkeypatch):
    # h_fold with alpha^h scaled by 1 + 1e-9: the paper's beta_h form and the
    # alpha^h that odot_to_star recovers catch it, and so does the semigroup
    real = thinning.h_fold

    def scaled(p, h):
        return real(ModelParams(p.alpha * (1.0 + 1e-9) ** (1.0 / h), p.mu, p.r), h)

    monkeypatch.setattr(thinning, "h_fold", scaled)
    monkeypatch.setattr(selftest, "h_fold", scaled)
    ok, detail = selftest.SUITES["h-fold-bridge-and-semigroup"]()
    bridge, semigroup = map(float, re.findall(r"(?:bridge|semigroup) (\S+)", detail))
    assert not ok and bridge > 1e-13 and semigroup > 1e-12


def test_selftest_transition_law_fails_on_rows_summing_above_one(monkeypatch):
    # rows scaled by 1 + 1e-6 sum above 1, where tail_mass reads 0
    real = selftest.transition_table

    def inflated(p, max_state=None, h=1):
        table = real(p, max_state, h)
        if max_state is None:  # the row-sum arm's tables, not the Chapman-Kolmogorov ones
            table = TransitionTable(table.h, table.max_state, table.probs * (1.0 + 1e-6))
            assert (table.tail_mass[:21] == 0.0).all()
        return table

    monkeypatch.setattr(selftest, "transition_table", inflated)
    ok, detail = selftest.SUITES["transition-law"]()
    gap = float(re.search(r"row sum\| (\S+);", detail).group(1))
    assert not ok and gap > 1e-9
    assert float(re.search(r"Chapman-Kolmogorov (\S+);", detail).group(1)) <= 1e-8


@pytest.mark.parametrize("corrupt", ["nan", "indefinite"])
def test_selftest_covariance_suite_fails_on_a_corrupted_matrix(monkeypatch, corrupt):
    # sigma_alpha_mu at alpha = 0.7, the last grid triple, with a NaN entry or
    # its off-diagonal scaled by 10, which leaves it symmetric but indefinite
    real = selftest.predicted_cov

    def corrupted(p):
        cov = real(p)
        if p.alpha == 0.7:
            mat = cov.sigma_alpha_mu.copy()
            if corrupt == "nan":
                mat[1, 1] = math.nan
            else:
                mat[0, 1] *= 10.0
                mat[1, 0] *= 10.0
            cov = dataclasses.replace(cov, sigma_alpha_mu=mat)
        return cov

    monkeypatch.setattr(selftest, "predicted_cov", corrupted)
    ok, detail = selftest.SUITES["covariance-structure"]()
    lowest = float(re.search(r"\|entry\| (\S+) ", detail).group(1))
    assert not ok and not lowest >= -1e-12
    assert math.isnan(lowest) == (corrupt == "nan")


def test_selftest_mutation_hook_fails(capsys):
    code, out = run(capsys, ["selftest", "--mutate"])
    assert code == 1
    fail, summary = out.splitlines()
    assert fail.startswith("FAIL functional-equation: ")
    assert summary == "selftest: FAILED suites: functional-equation"
