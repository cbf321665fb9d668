"""Tests for the replicated simulate-estimate experiment driver."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nbinar import (
    MCConfig,
    ModelParams,
    ParameterError,
    estimation,
    montecarlo,
    run_experiment,
)
from nbinar.montecarlo import (
    CSV_COLUMNS,
    ESTIMATORS,
    EmptyReportError,
    _worker_count,
    jsonable,
    summarize,
    true_values,
)

from conftest import PARAM_TRIPLES

P_HAND = ModelParams(0.5, 2.0, 1.0)


def small_config(**overrides):
    base = dict(params=P_HAND, n_grid=(50,), replicates=2,
                estimators=("cls", "yw"), master_seed=123)
    base.update(overrides)
    return MCConfig(**base)


def test_config_validation():
    with pytest.raises(ParameterError):
        small_config(replicates=1)
    with pytest.raises(ParameterError):
        small_config(n_grid=(5,))
    with pytest.raises(ParameterError):
        small_config(n_grid=())
    with pytest.raises(ParameterError):
        small_config(estimators=("cls", "bogus"))
    with pytest.raises(ParameterError):
        small_config(estimators=())
    with pytest.raises(ParameterError):
        small_config(master_seed=-1)
    # built directly, a config checks its integer fields as ``from_dict`` does:
    # a fraction, a boolean or a string fails instead of being truncated or
    # failing later inside the run
    for bad in ({"replicates": 2.5}, {"n_grid": (50.7,)}, {"master_seed": 1.5},
                {"replicates": "3"}, {"master_seed": True},
                # every other field is checked too: a list, a model, a path
                {"estimators": 5}, {"n_grid": 50}, {"params": (0.5, 2.0, 1.0)},
                {"output_path": 7}, {"output_path": ""}):
        with pytest.raises(ParameterError):
            small_config(**bad)
    cfg = small_config(n_grid=(np.int64(50), 60.0), replicates=2.0, master_seed=1.0)
    assert (cfg.n_grid, cfg.replicates, cfg.master_seed) == ((50, 60), 2, 1)
    assert all(type(v) is int for v in (*cfg.n_grid, cfg.replicates, cfg.master_seed))


def test_config_from_dict_schema():
    doc = {"alpha": 0.5, "mu": 2.0, "r": 1.0, "n_grid": [50],
           "replicates": 2, "estimators": ["cls"], "master_seed": 7}
    cfg = MCConfig.from_dict(doc)
    assert cfg.params.alpha == 0.5 and cfg.n_grid == (50,)
    with pytest.raises(ParameterError):
        MCConfig.from_dict({k: v for k, v in doc.items() if k != "mu"})
    with pytest.raises(ParameterError):
        MCConfig.from_dict({**doc, "unexpected": 1})
    # integer fields are not coerced: fractions, booleans and strings fail
    for bad in ({"master_seed": 1.5}, {"replicates": 2.9}, {"n_grid": [10.7]},
                {"master_seed": True}, {"replicates": "3"}, {"n_grid": ["50"]},
                {"n_grid": 50},
                # a repeated entry would count each series twice in its block
                {"estimators": ["cls", "cls"]}, {"n_grid": [50, 50]},
                # a non-list estimators field, and a path that is not a
                # non-empty string
                {"estimators": 5}, {"output_path": 7}, {"output_path": ""}):
        with pytest.raises(ParameterError):
            MCConfig.from_dict({**doc, **bad})
    assert MCConfig.from_dict({**doc, "replicates": 2.0}).replicates == 2
    # nor are the real fields: booleans and strings fail, integers are numbers
    for bad in ({"mu": True}, {"alpha": "0.5"}, {"r": "1"}, {"r": None}, {"mu": [2.0]}):
        with pytest.raises(ParameterError):
            MCConfig.from_dict({**doc, **bad})
    assert MCConfig.from_dict({**doc, "mu": 2}).params.mu == 2.0
    round_trip = MCConfig.from_dict({**cfg.to_dict()})
    assert round_trip == cfg


def test_true_values():
    t = true_values(P_HAND)
    assert_allclose([t["mu_eps"], t["sigma_g2"], t["sigma_eps2"], t["sigma2"]],
                    [1.0, 1.25, 2.0, 6.0], rtol=1e-13)


def test_run_experiment_bookkeeping():
    report = run_experiment(small_config())
    assert len(report.rows) == 4  # 2 replicates x 2 estimators
    for est in ("cls", "yw"):
        sub = [r for r in report.rows if r["estimator"] == est]
        assert len(sub) == 2
        assert sorted(r["replicate"] for r in sub) == [0, 1]
    assert {b["estimator"] for b in report.blocks} == {"cls", "yw"}
    assert all(b["replicates"] == 2 for b in report.blocks)
    assert len(report.gaps) == 1 and report.gaps[0]["n"] == 50
    assert set(CSV_COLUMNS) - {"flags"} <= set(report.rows[0].keys()) | {"estimator", "n", "replicate"}


def test_run_experiment_reproducible():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    assert json.dumps(jsonable(a.rows)) == json.dumps(jsonable(b.rows))
    assert json.dumps(jsonable(a.to_dict())) == json.dumps(jsonable(b.to_dict()))
    c = run_experiment(small_config(master_seed=124))
    assert json.dumps(jsonable(c.rows)) != json.dumps(jsonable(a.rows))


def test_run_experiment_parallel_matches_sequential(monkeypatch, tmp_path):
    # compare the serialized artifacts; in-memory NaN fields defeat ==.
    # n = 50 and 80 run simulate's loop; n = 400 its table, which each worker
    # process keeps for its next series
    sequential = run_experiment(
        small_config(n_grid=(50, 80, 400), replicates=3,
                     output_path=str(tmp_path / "seq")))
    monkeypatch.setenv("NBINAR_THREADS", "2")
    parallel = run_experiment(
        small_config(n_grid=(50, 80, 400), replicates=3,
                     output_path=str(tmp_path / "par")))
    assert (tmp_path / "seq.csv").read_bytes() == (tmp_path / "par.csv").read_bytes()

    def doc(report):
        return json.dumps(jsonable({"truth": report.truth,
                                    "blocks": report.blocks,
                                    "gaps": report.gaps}))

    assert doc(sequential) == doc(parallel)


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("NBINAR_THREADS", raising=False)
    assert _worker_count() == 1
    monkeypatch.setenv("NBINAR_THREADS", "3")
    assert _worker_count() == 3
    monkeypatch.setenv("NBINAR_THREADS", "0")
    assert _worker_count() >= 1
    monkeypatch.setenv("NBINAR_THREADS", "abc")
    with pytest.raises(ParameterError):
        _worker_count()
    monkeypatch.setenv("NBINAR_THREADS", "-2")
    with pytest.raises(ParameterError):
        _worker_count()


def test_run_experiment_clamps_workers(monkeypatch):
    # a stand-in pool records the worker count and maps in this process, so
    # an oversized NBINAR_THREADS starts no process
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    monkeypatch.setenv("NBINAR_THREADS", str(10**6))
    run_experiment(small_config(n_grid=(50, 80), replicates=3))  # 6 tasks
    run_experiment(small_config(replicates=3))  # 3 tasks
    monkeypatch.setenv("NBINAR_THREADS", "1")
    run_experiment(small_config(replicates=3))
    assert seen == [4, 3]


def test_registry_calls_estimators_at_replaceable_names(monkeypatch):
    # the fits look the estimation functions up when called, so one replaced
    # at montecarlo's name (or at estimation.cml_fit) is the one that runs
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    for name in ("cls_means", "yw_means", "cls_variances", "predicted_cov"):
        spy(montecarlo, name)
    spy(estimation, "cml_fit")
    run_experiment(small_config(estimators=ESTIMATORS))
    assert set(calls) == {"cls_means", "yw_means", "cls_variances", "predicted_cov",
                          "cml_fit"}


def test_run_experiment_writes_outputs(tmp_path):
    base = tmp_path / "mc"
    report = run_experiment(small_config(output_path=str(base)))
    csv_path, json_path = base.with_suffix(".csv"), base.with_suffix(".json")
    assert csv_path.exists() and json_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    doc = json.loads(json_path.read_text())
    assert doc["config"]["master_seed"] == report.config.master_seed
    assert len(doc["blocks"]) == 2


def test_run_experiment_cml_row_fields():
    cfg = small_config(estimators=("cml",), n_grid=(60,))
    report = run_experiment(cfg)
    for row in report.rows:
        assert math.isfinite(row["alpha_hat"])
        assert math.isfinite(row["mu_hat"]) and math.isfinite(row["r_hat"])


def synthetic_rows(values, est="cls", n=1):
    rows = []
    for rep, (a, m) in enumerate(values):
        rows.append({"estimator": est, "n": n, "replicate": rep,
                     "alpha_hat": a, "mu_eps_hat": m, "mu_hat": m,
                     "sigma_g2_hat": math.nan, "sigma_eps2_hat": math.nan,
                     "r_hat": math.nan, "flags": "ok"})
    return rows


def test_summarize_hand_arithmetic():
    truth = {"alpha": 2.0, "mu_eps": 2.0, "mu": 2.0}
    blocks, _ = summarize(synthetic_rows([(1.0, 1.0), (3.0, 3.0)]), truth)
    block = blocks[0]
    assert_allclose([block["bias"]["alpha_hat"], block["bias"]["mu_eps_hat"]],
                    [0.0, 0.0], atol=1e-15)
    assert_allclose(block["scaled_error_cov"],
                    [[2.0, 2.0], [2.0, 2.0]], rtol=1e-14)


def test_summarize_identical_estimates_zero_cov():
    truth = {"alpha": 2.0, "mu_eps": 2.0, "mu": 2.0}
    blocks, _ = summarize(synthetic_rows([(1.5, 2.5), (1.5, 2.5)]), truth)
    assert_allclose(blocks[0]["scaled_error_cov"],
                    [[0.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_summarize_single_value_quantiles():
    truth = {"alpha": 2.0, "mu_eps": 2.0, "mu": 2.0}
    blocks, _ = summarize(synthetic_rows([(1.5, 2.5), (1.5, 2.5)]), truth)
    q = blocks[0]["quantiles"]["alpha_hat"]
    assert q["0.25"] == q["0.5"] == q["0.75"] == 1.5


def test_summarize_all_failed_raises():
    rows = synthetic_rows([(1.0, 1.0), (3.0, 3.0)])
    for row in rows:
        row["flags"] = "degenerate"
    with pytest.raises(EmptyReportError):
        summarize(rows, {"alpha": 2.0, "mu_eps": 2.0, "mu": 2.0})


def test_summarize_excludes_failed_replicates():
    rows = synthetic_rows([(1.0, 1.0), (3.0, 3.0), (9.0, 9.0)])
    rows[2]["flags"] = "degenerate"
    blocks, _ = summarize(rows, {"alpha": 2.0, "mu_eps": 2.0, "mu": 2.0})
    assert blocks[0]["included"] == 2 and blocks[0]["excluded"] == 1
    assert blocks[0]["flag_counts"] == {"degenerate": 1, "ok": 2}
    assert_allclose(blocks[0]["mean"]["alpha_hat"], 2.0, rtol=1e-15)


def test_consistency_trend_across_n():
    # mean absolute error of alpha shrinks along the n grid for both
    # regression estimators, at every parameter triple
    for alpha, mu, r in PARAM_TRIPLES:
        cfg = MCConfig(params=ModelParams(alpha, mu, r),
                       n_grid=(500, 2000, 8000), replicates=150,
                       estimators=("cls", "yw"), master_seed=20250815)
        report = run_experiment(cfg)
        for est in ("cls", "yw"):
            errs = []
            for n in cfg.n_grid:
                sub = [row["alpha_hat"] for row in report.rows
                       if row["estimator"] == est and row["n"] == n]
                errs.append(float(np.mean(np.abs(np.array(sub) - alpha))))
            assert errs[0] > errs[1] > errs[2], (est, alpha, errs)
        if math.isclose(alpha, 0.5):
            cls_mean = [b for b in report.blocks
                        if b["estimator"] == "cls" and b["n"] == 8000]
            yw_mean = [b for b in report.blocks
                       if b["estimator"] == "yw" and b["n"] == 8000]
            gap = abs(cls_mean[0]["mean"]["alpha_hat"]
                      - yw_mean[0]["mean"]["alpha_hat"])
            assert gap < 0.01


def test_jsonable_replaces_non_finite():
    doc = jsonable({"a": math.nan, "b": [math.inf, 1.0],
                    "c": np.array([1.5, 2.5]), "d": np.int64(3)})
    assert doc == {"a": None, "b": [None, 1.0], "c": [1.5, 2.5], "d": 3}
