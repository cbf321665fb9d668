"""Acceptance gate: one test per stated criterion, at the stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion; each test also prints its measured margin.  Criteria 1, 3, 8 and
12 run their `nbinar selftest` suite from `nbinar.selftest.SUITES`, the only
implementation of those invariants.
"""

import math

import numpy as np
import pytest

from nbinar import (
    MCConfig,
    ModelParams,
    h_fold,
    joint_pgf,
    loglik,
    nb_pgf,
    nb_pmf,
    run_experiment,
    simulate,
    thin_conditional_pmf,
    transition_prob,
)
from nbinar.selftest import _worst
from nbinar.thinning import odot_pgf

from conftest import (
    PARAM_TRIPLES,
    S_GRID,
    check_suite,
    geometric_transition_reference,
    models,
    tv_to_pmf,
)

P_HAND = ModelParams(0.5, 2.0, 1.0)


@pytest.fixture(scope="module")
def mc_means_report():
    cfg = MCConfig(params=P_HAND, n_grid=(5000,), replicates=1000,
                   estimators=("cls", "yw"), master_seed=20250901)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def mc_gap_report():
    cfg = MCConfig(params=P_HAND, n_grid=(500, 2000, 8000), replicates=200,
                   estimators=("cls", "yw"), master_seed=20250902)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def mc_vars_report():
    cfg = MCConfig(params=P_HAND, n_grid=(10_000,), replicates=1000,
                   estimators=("cls-var",), master_seed=20250903)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def mc_cml_report():
    cfg = MCConfig(params=P_HAND, n_grid=(2000,), replicates=100,
                   estimators=("cml",), master_seed=20250904)
    return run_experiment(cfg)


def test_criterion_01_functional_equation():
    check_suite("functional-equation", "criterion 1")


def test_criterion_02_thinning_pmf_convolution_oracle():
    worst = 0.0
    for p in models():
        for h in (1, 2, 3):
            hp = h_fold(p, h)
            ratio = (1.0 - hp.beta_h) * hp.theta
            base = np.empty(16)
            base[0] = 1.0 - hp.beta_h
            for k in range(1, 16):
                base[k] = hp.beta_h * (1.0 - ratio) * ratio ** (k - 1)
            conv = np.array([1.0])
            for x in range(6):
                if x > 0:
                    conv = np.convolve(conv, base)
                closed = np.array([thin_conditional_pmf(p, x, h, k)
                                   for k in range(16)])
                got = np.zeros(16)
                got[:min(16, conv.size)] = conv[:16]
                worst = _worst(worst, *np.abs(closed - got))
    print(f"criterion 2: max thinning pmf deviation {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_03_transition_law():
    check_suite("transition-law", "criterion 3")


def test_criterion_04_geometric_marginal_specialization():
    worst = 0.0
    for alpha, mu, _ in PARAM_TRIPLES:
        p = ModelParams(alpha, mu, 1.0)
        for h in (1, 2, 3, 4):
            for i in range(16):
                for j in range(16):
                    want = geometric_transition_reference(alpha, mu, h, i, j)
                    worst = _worst(worst, abs(transition_prob(p, i, j, h) - want))
    print(f"criterion 4: max deviation from geometric reference {worst:.3e}")
    assert worst <= 1e-13


def test_criterion_05_stationarity_and_autocorrelation():
    rng = np.random.default_rng(20250815)
    x = simulate(P_HAND, 200_000, rng).values
    marg = P_HAND.marginal()
    tv = tv_to_pmf(x, lambda k: nb_pmf(marg, k))
    xc = x - x.mean()
    denom = float(np.sum(xc * xc))
    lag1 = float(np.sum(xc[:-1] * xc[1:])) / denom
    lag2 = float(np.sum(xc[:-2] * xc[2:])) / denom
    print(f"criterion 5: TV {tv:.4f}, lag1 {lag1:.4f}, lag2 {lag2:.4f}")
    assert tv < 0.01
    assert abs(lag1 - 0.5) < 0.02
    assert abs(lag2 - 0.25) < 0.02


def test_criterion_06_time_reversibility():
    for p in models():
        for s1 in S_GRID:
            for s2 in S_GRID:
                assert joint_pgf(p, s1, s2) == joint_pgf(p, s2, s1)
    rng = np.random.default_rng(20250815)
    x = simulate(P_HAND, 100_000, rng).values
    kmax = 15
    counts = np.zeros((kmax + 1, kmax + 1))
    mask = (x[:-1] <= kmax) & (x[1:] <= kmax)
    np.add.at(counts, (x[:-1][mask], x[1:][mask]), 1.0)
    tv = 0.5 * float(np.abs(counts - counts.T).sum() / counts.sum())
    print(f"criterion 6: symmetry exact, empirical transition-count TV {tv:.4f}")
    assert tv < 0.02


def test_criterion_07_moving_average_truncation():
    from nbinar import ma_sample

    rng = np.random.default_rng(20250815)
    draws = ma_sample(P_HAND, 50, rng, size=100_000)
    marg, innov = P_HAND.marginal(), P_HAND.innovation()
    tv = tv_to_pmf(draws, lambda k: nb_pmf(marg, k))

    s = 0.5
    residuals = []
    for J in (0, 1, 2, 5, 10, 20, 50):
        product = nb_pgf(innov, s)
        for j in range(1, J + 1):
            hj = h_fold(P_HAND, j)
            product *= nb_pgf(innov, odot_pgf(hj.beta_h, hj.theta, s))
        residuals.append(abs(product - nb_pgf(marg, s)))
    decreasing = all(a > b for a, b in zip(residuals, residuals[1:]))
    print(f"criterion 7: TV at J=50 {tv:.4f}, pgf residuals {residuals}")
    assert tv < 0.015
    assert decreasing


def test_criterion_08_h_fold_semigroup_and_bridges():
    check_suite("h-fold-bridge-and-semigroup", "criterion 8")


def test_criterion_09_cls_yw_consistency_and_clt(mc_means_report,
                                                 mc_gap_report):
    blocks = {b["estimator"]: b for b in mc_means_report.blocks}
    medians = [g["quantiles"]["0.5"] for g in mc_gap_report.gaps]
    upper = [g["quantiles"]["0.75"] for g in mc_gap_report.gaps]
    pair = (blocks["cls"], blocks["yw"])
    worst = {"alpha": _worst(*(abs(b["mean"]["alpha_hat"] - 0.5) for b in pair)),
             "mu_eps": _worst(*(abs(b["mean"]["mu_eps_hat"] - 1.0) for b in pair)),
             "cov": _worst(*(b["max_relative_deviation"] for b in pair))}
    print(f"criterion 9: |alpha bias| {worst['alpha']:.4f}, "
          f"|mu_eps bias| {worst['mu_eps']:.4f}, "
          f"cov max rel dev {worst['cov']:.4f}, "
          f"sqrt(n) gap medians {medians}, 0.75 quantiles {upper}")
    assert worst["alpha"] < 0.02
    assert worst["mu_eps"] < 0.04
    assert worst["cov"] <= 0.20
    assert [g["n"] for g in mc_gap_report.gaps] == [500, 2000, 8000]
    # At n = 2000 the gap's law jumps from 0.0022 (0.4 quantile) to 0.0068
    # (median), so a 200-replicate median can land on either side of the
    # jump: resampling 200 of 1000 replicates per n, the strict median
    # ordering held in 88-90 % of draws, the 0.75 quantiles' ordering and
    # medians[0] > medians[2] in all of them.
    assert medians[0] > medians[2]
    assert upper[0] > upper[1] > upper[2]


def test_criterion_10_variance_cls_clt(mc_vars_report):
    block = mc_vars_report.blocks[0]
    sg2_mean = block["mean"]["sigma_g2_hat"]
    se2_mean = block["mean"]["sigma_eps2_hat"]
    rel_dev = block["max_relative_deviation"]
    r_median = block["quantiles"]["r_hat"]["0.5"]
    print(f"criterion 10: mean sigma_G^2 {sg2_mean:.4f}, "
          f"mean sigma_eps^2 {se2_mean:.4f}, cov max rel dev {rel_dev:.4f}, "
          f"r_hat median {r_median:.4f}")
    assert abs(sg2_mean - 1.25) <= 0.1 * 1.25
    assert abs(se2_mean - 2.0) <= 0.1 * 2.0
    assert rel_dev <= 0.25
    assert 0.8 <= r_median <= 1.25


def test_criterion_11_cml_recovery(mc_cml_report):
    truth = {"alpha_hat": 0.5, "mu_hat": 2.0, "r_hat": 1.0}
    margins = {}
    for field, target in truth.items():
        vals = np.array([row[field] for row in mc_cml_report.rows])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        margins[field] = (abs(float(vals.mean()) - target), 3.0 * se)
        assert margins[field][0] <= margins[field][1], (field, margins[field])

    wins = 0
    up = ModelParams(0.7, 2.0, 1.0)
    down = ModelParams(0.3, 2.0, 1.0)
    for rep in range(100):
        rng = np.random.default_rng(
            np.random.SeedSequence(20250905, spawn_key=(2000, rep)))
        series = simulate(P_HAND, 2001, rng)
        if loglik(series, P_HAND) > max(loglik(series, up),
                                        loglik(series, down)):
            wins += 1
    print(f"criterion 11: |bias| vs 3 SE {margins}, "
          f"loglik wins {wins}/100")
    assert wins >= 95


def test_criterion_12_stationary_variance_decomposition():
    check_suite("stationary-variance-identity", "criterion 12")
