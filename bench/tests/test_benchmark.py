"""Tests of the benchmark itself: sampler, oracles, checks and harness.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracles  # noqa: E402
import run  # noqa: E402
import sampler  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MC_SMALL = workloads.MCSizes(n_grid=(500,), replicates=20)
CML_SMALL = workloads.CMLSizes(length=301, pool=1, max_range=(100, 10**6),
                               distinct_range=(0, 10**6))
CLI_SMALL = workloads.CLISizes(length=500, pool=1, simulate_n=500, table=40,
                               oracle_inner=200)


# ------------------------------------------------------------------ sampler
@pytest.mark.parametrize("alpha,mu,r", [(0.5, 2.0, 1.0), (0.3, 5.0, 2.0)])
def test_sampler_matches_mean_variance_and_lag1_autocorrelation(alpha, mu, r):
    reps, n = 400, 500
    x = sampler.sample_paths(alpha, mu, r, n, reps, np.random.default_rng(11)).astype(float)
    # one statistic per independent path, so the spread across paths is the
    # standard error of their average
    means = x.mean(axis=1)
    variances = x.var(axis=1)
    d = x - mu
    acf = (d[:, :-1] * d[:, 1:]).mean(axis=1) / (mu + mu * mu / r)
    for stat, target in ((means, mu), (variances, mu + mu * mu / r), (acf, alpha)):
        se = stat.std(ddof=1) / math.sqrt(reps)
        # the per-path variance is biased by O(1/n) through the autocorrelation
        assert abs(stat.mean() - target) < 5 * se + 4 * target / n


def test_sampler_is_a_function_of_the_seed():
    a = sampler.sample_paths(0.9, 50.0, 0.5, 200, 3, np.random.default_rng(5))
    b = sampler.sample_paths(0.9, 50.0, 0.5, 200, 3, np.random.default_rng(5))
    assert np.array_equal(a, b)
    c = sampler.conditioned_paths(0.9, 50.0, 0.5, 200, 2, (100, 400), (50, 80),
                                  np.random.default_rng(5))
    assert c.shape == (2, 200)
    assert ((c.max(axis=1) >= 100) & (c.max(axis=1) <= 400)).all()
    assert all(50 <= np.unique(path[:-1]).size <= 80 for path in c)


# ------------------------------------------------------------------ oracles
def test_oracle_closed_form_value():
    oracles.self_check()


def test_oracle_rows_are_distributions():
    one = oracles.transition_rows(0.9, 50.0, 0.5, np.arange(0, 60, 7), 4000)
    assert np.allclose(one.sum(axis=1), 1.0, atol=1e-9)
    two = oracles.transition_rows_h(0.5, 2.0, 1.0, np.arange(5), 150, 2, 300)
    assert np.allclose(two.sum(axis=1), 1.0, atol=1e-12)


def test_regression_oracles_on_a_known_line():
    x = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9])
    fit = oracles.cls(x)
    slope, intercept = np.polyfit(x[:-1], x[1:], 1)
    assert fit["alpha_hat"] == pytest.approx(slope, rel=1e-12)
    assert fit["mu_eps_hat"] == pytest.approx(intercept, rel=1e-12)


# ---------------------------------------------------- workloads and checks
def _fresh(cls, sizes, tmp_path):
    w = cls(7, tmp_path, sizes)
    w.setup()
    return w


def test_mc_study_passes_and_its_checks_catch_corruption(tmp_path):
    w = _fresh(workloads.MCStudy, MC_SMALL, tmp_path)
    report = w.op(0)
    assert w.check(w.collect(0, report)) == []

    def corrupted(mutate):
        rows = [dict(r) for r in report.rows]
        mutate(rows)
        return w.check(w.collect(0, dataclasses.replace(report, rows=rows)))

    def shift(field, est, delta):
        def mutate(rows):
            for r in rows:
                if r["estimator"] == est:
                    r[field] += delta
        return mutate

    assert corrupted(shift("alpha_hat", "cls", 0.25))
    assert corrupted(shift("mu_eps_hat", "yw", 0.5))
    assert corrupted(shift("sigma_eps2_hat", "cls-var", 2.0))
    assert corrupted(lambda rows: rows.pop())
    assert corrupted(lambda rows: rows[0].update(flags="degenerate"))


def test_cml_heavy_passes_and_its_checks_catch_corruption(tmp_path):
    w = _fresh(workloads.CMLHeavy, CML_SMALL, tmp_path)
    record = w.collect(0, w.op(0))
    assert w.check(record) == []
    assert w.check({**record, "loglik": record["loglik"] + 1e-3})
    assert w.check({**record, "converged": False})
    assert w.check({**record, "n_underflow": 1})
    truth = w._oracle_loglik(0, workloads.HEAVY)
    params = (0.9, 50.0, 0.5)
    assert w.check({**record, "params": params, "loglik": truth - 1.0})


def _cli_record(w, k, corrupt=None):
    codes = w.op(k)
    if corrupt is not None:
        codes = corrupt(w, codes) or codes
    return w.check(w.collect(k, codes))


def _edit_report(method, edit):
    def corrupt(w, codes):
        path = Path(w._out(f"report-{method}.json"))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return corrupt


def _edit_table(w, codes):
    path = Path(w._out("table.csv"))
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _negative_simulated_value(w, codes):
    path = Path(w._out("simulated.txt"))
    path.write_text("-1\n" + path.read_text().split("\n", 1)[1])


def test_cli_files_passes_and_its_checks_catch_corruption(tmp_path):
    w = _fresh(workloads.CLIFiles, CLI_SMALL, tmp_path)
    assert _cli_record(w, 0) == []

    def scale(field, factor):
        return lambda doc: doc["estimates"].__setitem__(field, doc["estimates"][field] * factor)

    assert _cli_record(w, 1, _edit_report("cls", scale("alpha_hat", 1 + 1e-6)))
    assert _cli_record(w, 1, _edit_report("yw", scale("mu_hat", 1 + 1e-6)))
    assert _cli_record(w, 1, _edit_report("cls-var", scale("sigma_eps2_hat", 1 + 1e-6)))
    assert _cli_record(w, 1, _edit_report("cml", lambda d: d.update(loglik=d["loglik"] + 1e-3)))
    assert _cli_record(w, 1, _edit_table)
    assert _cli_record(w, 1, _negative_simulated_value)
    assert _cli_record(w, 1, lambda w, codes: {**codes, "transition": 2})


# ------------------------------------------------------------------ harness
@pytest.mark.parametrize("name,sizes", [("mc_study", MC_SMALL), ("cml_heavy", CML_SMALL),
                                        ("cli_files", CLI_SMALL)])
def test_each_workload_runs_once_at_reduced_size(name, sizes, tmp_path):
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    result, failures, _, _ = run.run_workload(name, 3, 0.0, False, 0.0, sizes, tmp_path)
    assert failures == [] and result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1
    assert set(result["metrics"]) == {m["name"] for m in run.SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(tmp_path):
    result, failures, tracer, _ = run.run_workload("cli_files", 3, 0.0, True, 0.0,
                                                CLI_SMALL, tmp_path)
    assert failures == [] and result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in run.SPEC["per_layer"]}
    assert result["metrics"]["process.transition_rows.calls"]["value"] > 0
    names = {s[0] for s in tracer.spans}
    assert {"op", "cli.estimate", "estimation.cml_fit", "process.transition_rows"} <= names
    # every span closed, and parents precede their children
    assert all(end >= start > 0 for _, start, end, _ in tracer.spans)
    assert all(parent < i for i, (*_, parent) in enumerate(tracer.spans))


def test_missing_function_is_reported_absent_not_zero(monkeypatch):
    import nbinar.cli
    monkeypatch.delattr(nbinar.cli, "cmd_transition")
    metrics = spans.layer_metrics(spans.Tracer(), 1)
    assert "cli.transition.self_s" not in metrics
    assert metrics["cli.estimate.self_s"] == 0.0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc_study",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
