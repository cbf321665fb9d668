"""Tests for moment estimators, likelihood, and asymptotic covariances."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from nbinar import (
    DegenerateSeriesError,
    ModelParams,
    ParameterError,
    Series,
    cls_means,
    cls_variances,
    cml_fit,
    g_central_moments,
    loglik,
    nb_central_moments,
    predicted_cov,
    simulate,
    transition_prob,
    yw_means,
)
from nbinar import distributions, estimation
from nbinar.estimation import _evaluate, _pairs

from conftest import WIDE_TRIPLES, models, mp_g_moments, mp_nb_moments, mp_relative_error

P_HAND = ModelParams(0.5, 2.0, 1.0)
HAND_SERIES = Series(np.array([1, 2, 1, 2, 1]))


def q_objective(x, alpha, mu_eps):
    prev, curr = x[:-1], x[1:]
    return float(np.sum((curr - alpha * prev - mu_eps) ** 2))


def s_objective(x, alpha, mu_eps, sg2, se2):
    prev, curr = x[:-1], x[1:]
    u2 = (curr - alpha * prev - mu_eps) ** 2
    return float(np.sum((u2 - sg2 * prev - se2) ** 2))


def test_cls_means_hand_values():
    est = cls_means(HAND_SERIES)
    assert_allclose([est.alpha_hat, est.mu_eps_hat, est.mu_hat],
                    [-1.0, 3.0, 1.5], rtol=1e-14)
    assert est.n == 4
    assert not est.in_range
    assert est.method == "cls"


def test_cls_means_compact_form_equivalence():
    # the ratio form and the mean-difference form give the same intercept
    rng = np.random.default_rng(12)
    x = simulate(P_HAND, 1500, rng).values.astype(float)
    prev, curr = x[:-1], x[1:]
    n = prev.size
    den = n * np.sum(prev ** 2) - np.sum(prev) ** 2
    alpha = (n * np.sum(prev * curr) - np.sum(prev) * np.sum(curr)) / den
    ratio_form = (np.sum(curr) * np.sum(prev ** 2)
                  - np.sum(prev) * np.sum(prev * curr)) / den
    compact_form = float(np.mean(curr) - alpha * np.mean(prev))
    est = cls_means(Series(x))
    assert_allclose(est.mu_eps_hat, ratio_form, rtol=1e-12)
    assert_allclose(est.mu_eps_hat, compact_form, rtol=1e-12)
    assert_allclose(est.alpha_hat, alpha, rtol=1e-13)


def test_cls_means_first_order_optimality():
    rng = np.random.default_rng(77)
    x = simulate(P_HAND, 400, rng).values.astype(float)
    est = cls_means(Series(x))
    best = q_objective(x, est.alpha_hat, est.mu_eps_hat)
    for da in (-1e-3, 0.0, 1e-3):
        for dm in (-1e-3, 0.0, 1e-3):
            if da == dm == 0.0:
                continue
            assert best <= q_objective(x, est.alpha_hat + da,
                                       est.mu_eps_hat + dm)


def test_cls_means_degenerate_and_short():
    with pytest.raises(DegenerateSeriesError):
        cls_means(Series(np.array([4, 4, 4, 4])))
    with pytest.raises(ParameterError):
        cls_means(Series(np.array([1, 2])))


def test_cls_means_consistency_single_run():
    rng = np.random.default_rng(2025)
    est = cls_means(simulate(P_HAND, 5000, rng))
    assert abs(est.alpha_hat - 0.5) < 0.05
    assert abs(est.mu_eps_hat - 1.0) < 0.1
    assert est.in_range


def test_yw_means_hand_values():
    est = yw_means(HAND_SERIES)
    assert_allclose([est.alpha_hat, est.mu_eps_hat, est.mu_hat],
                    [-0.8, 2.52, 1.4], rtol=1e-14)
    assert est.method == "yw"
    assert not est.in_range


def test_yw_means_degenerate():
    with pytest.raises(DegenerateSeriesError):
        yw_means(Series(np.array([4, 4, 4, 4])))


def test_yw_means_near_independence():
    rng = np.random.default_rng(8)
    est = yw_means(simulate(ModelParams(1e-9, 2.0, 1.0), 20_000, rng))
    assert abs(est.alpha_hat) < 0.02


def test_yw_close_to_cls_on_long_series():
    rng = np.random.default_rng(4)
    series = simulate(P_HAND, 8000, rng)
    a = cls_means(series).alpha_hat
    b = yw_means(series).alpha_hat
    assert abs(a - b) < 0.01


def test_cls_variances_single_run_ranges():
    rng = np.random.default_rng(515)
    series = simulate(P_HAND, 10_000, rng)
    v = cls_variances(series)
    assert abs(v.sigma_g2_hat - 1.25) < 0.2
    assert abs(v.sigma_eps2_hat - 2.0) < 0.3
    assert abs(v.sigma2_hat - 6.0) < 0.8
    assert v.r_defined and 0.7 < v.r_hat < 1.4
    assert v.residual_mode == "estimated-means"


def test_cls_variances_optimality():
    rng = np.random.default_rng(21)
    x = simulate(P_HAND, 600, rng).values.astype(float)
    series = Series(x)
    m = cls_means(series)
    v = cls_variances(series)
    assert v.means == m
    best = s_objective(x, m.alpha_hat, m.mu_eps_hat,
                       v.sigma_g2_hat, v.sigma_eps2_hat)
    for dg in (-1e-3, 0.0, 1e-3):
        for de in (-1e-3, 0.0, 1e-3):
            if dg == de == 0.0:
                continue
            assert best <= s_objective(x, m.alpha_hat, m.mu_eps_hat,
                                       v.sigma_g2_hat + dg,
                                       v.sigma_eps2_hat + de)


def test_cls_variances_known_means_close_to_estimated():
    # the residual modes agree to well within the sampling error of the
    # variance estimators themselves
    n = 2000
    sigma_vars = predicted_cov(P_HAND).sigma_vars
    se_g = math.sqrt(sigma_vars[0, 0] / n)
    se_e = math.sqrt(sigma_vars[1, 1] / n)
    for rep in range(60):
        rng = np.random.default_rng(1000 + rep)
        series = simulate(P_HAND, n, rng)
        est = cls_variances(series)
        known = cls_variances(series, known_alpha=0.5, known_mu_eps=1.0)
        assert known.residual_mode == "known-means"
        assert abs(known.sigma_g2_hat - est.sigma_g2_hat) <= 2.0 * se_g
        assert abs(known.sigma_eps2_hat - est.sigma_eps2_hat) <= 2.0 * se_e
    # known means outside the parameter domain are refused, not used
    for bad in ({"known_alpha": math.nan}, {"known_alpha": 1.5}, {"known_mu_eps": -3.0}):
        with pytest.raises(ParameterError):
            cls_variances(series, **{"known_alpha": 0.5, "known_mu_eps": 1.0, **bad})


def test_cls_variances_two_sigma2_routes_agree():
    rng = np.random.default_rng(62)
    v = cls_variances(simulate(P_HAND, 3000, rng))
    assert_allclose(v.sigma2_hat, v.sigma2_hat_formula_a, rtol=1e-12)


def test_cls_variances_minimal_and_underdispersed():
    v3 = cls_variances(Series(np.array([0, 2, 5])))
    assert math.isfinite(v3.sigma_g2_hat) and math.isfinite(v3.sigma_eps2_hat)
    assert not v3.r_defined and math.isnan(v3.r_hat)
    flat = cls_variances(Series(np.array([0, 3, 0, 3, 0, 3, 0])))
    assert not flat.r_defined and math.isnan(flat.r_hat)


def test_innovation_moment_bookkeeping():
    # the dispersion identity behind the moment estimator of the shape:
    # var(eps) - mean(eps) = mean(eps)^2 / r
    for p in models():
        mean_eps, var_eps, _, _ = nb_central_moments(p.innovation())
        assert_allclose(var_eps - mean_eps, mean_eps ** 2 / p.r, rtol=1e-13)


def test_predicted_cov_hand_matrices():
    cov = predicted_cov(P_HAND)
    assert_allclose(cov.sigma_means,
                    np.array([[64.5, -84.0], [-84.0, 240.0]]) / 36.0,
                    rtol=1e-12)
    assert_allclose(cov.sigma_alpha_mu,
                    np.array([[64.5, 90.0], [90.0, 648.0]]) / 36.0,
                    rtol=1e-12)
    assert_allclose(cov.sigma_vars,
                    np.array([[84.0, -108.0], [-108.0, 225.0]]), rtol=1e-12)


def sigma_means_oracle(p):
    # the displayed central-moment form for (alpha_hat, mu_eps_hat), with
    # c2 = mu sigma_G^2 + sigma_eps^2 the mean conditional variance
    mu = p.mu
    _, s2, m3x, _ = nb_central_moments(p.marginal())
    _, sg2, _, _ = g_central_moments(p)
    _, se2, _, _ = nb_central_moments(p.innovation())
    c2 = mu * sg2 + se2
    s4 = s2 * s2
    s11 = (sg2 * m3x + c2 * s2) / s4
    s12 = -(mu * sg2 * m3x + mu * c2 * s2 - sg2 * s4) / s4
    s22 = (mu * mu * sg2 * m3x + mu * mu * c2 * s2 + se2 * s4 - mu * sg2 * s4) / s4
    return np.array([[s11, s12], [s12, s22]])


def sigma_vars_oracle(p):
    # independent route: quadratic-in-state residual variance against the
    # raw moments of the marginal, all in closed form
    mx, m2x, m3x, m4x = nb_central_moments(p.marginal())
    ex1 = mx
    ex2 = m2x + mx ** 2
    ex3 = m3x + 3 * mx * m2x + mx ** 3
    ex4 = m4x + 4 * mx * m3x + 6 * mx ** 2 * m2x + mx ** 4
    _, sg2, _, mg4 = g_central_moments(p)
    _, se2, _, me4 = nb_central_moments(p.innovation())
    c2 = 2 * sg2 ** 2
    c1 = mg4 + 4 * sg2 * se2 - 3 * sg2 ** 2
    c0 = me4 - se2 ** 2
    erx = [c2 * ex2 + c1 * ex1 + c0,
           c2 * ex3 + c1 * ex2 + c0 * ex1,
           c2 * ex4 + c1 * ex3 + c0 * ex2]
    sigma1 = np.array([[erx[2], erx[1]], [erx[1], erx[0]]])
    phi_inv = np.linalg.inv(np.array([[ex2, ex1], [ex1, 1.0]]))
    return phi_inv @ sigma1 @ phi_inv.T


def test_predicted_cov_vars_matches_moment_oracle():
    for p in models() + [ModelParams(*t) for t in WIDE_TRIPLES]:
        cov = predicted_cov(p)
        assert_allclose(cov.sigma_means, sigma_means_oracle(p), rtol=1e-9)
        assert_allclose(cov.sigma_vars, sigma_vars_oracle(p), rtol=1e-9)


def mp_predicted_cov(alpha, mu, r):
    # both sandwiches Phi^{-1} Sigma Phi^{-T} in mpmath, over raw moments
    mx = mp_nb_moments(r, mu)
    _, sg2, _, g_m4 = mp_g_moments(alpha, mu, r)
    _, se2, _, e_m4 = mp_nb_moments(r, (1 - alpha) * mu)
    e1 = mx[0]
    ex = [1, e1, mx[1] + e1 ** 2, mx[2] + 3 * e1 * mx[1] + e1 ** 3,
          mx[3] + 4 * e1 * mx[2] + 6 * e1 ** 2 * mx[1] + e1 ** 4]
    phi_inv = mpmath.matrix([[ex[2], ex[1]], [ex[1], 1]]) ** -1
    out = []
    for c2, c1, c0 in ((0, sg2, se2),
                       (2 * sg2 ** 2, g_m4 + 4 * sg2 * se2 - 3 * sg2 ** 2,
                        e_m4 - se2 ** 2)):
        v = [c2 * ex[m + 2] + c1 * ex[m + 1] + c0 * ex[m] for m in range(3)]
        sandwich = phi_inv * mpmath.matrix([[v[2], v[1]], [v[1], v[0]]]) * phi_inv.T
        out.append([[sandwich[i, j] for j in range(2)] for i in range(2)])
    return out


@pytest.mark.parametrize("triple", [(0.5, 1e3, 1e4), (0.5, 1e3, 1e-3)])
def test_predicted_cov_matches_mpmath_at_large_mu(triple):
    # Measured worst entry: 1.9e-16 relative.  The hand-expanded sigma_means
    # and the raw-moment sigma_vars were 8.4e-11 and 1.7e-10 off at
    # (0.5, 1e3, 1e-3), and sigma_vars 2.5e-13 off at (0.5, 1e3, 1e4).
    cov = predicted_cov(ModelParams(*triple))
    with mpmath.workdps(50):
        want_means, want_vars = mp_predicted_cov(*(mpmath.mpf(v) for v in triple))
        assert mp_relative_error(cov.sigma_means, want_means) < 2e-15
        assert mp_relative_error(cov.sigma_vars, want_vars) < 2e-15


def test_loglik_hand_value_and_additivity():
    assert_allclose(loglik(Series(np.array([1, 1])), P_HAND),
                    math.log(0.25), rtol=1e-13)
    got = loglik(Series(np.array([1, 1, 2])), P_HAND)
    want = (math.log(transition_prob(P_HAND, 1, 1))
            + math.log(transition_prob(P_HAND, 1, 2)))
    assert_allclose(got, want, rtol=1e-13)


def test_loglik_far_transition_matches_mpmath():
    # P(400 | 0) at a tiny innovation mean is about exp(-2.1e3), far below the
    # smallest double, and its log is still exact: the innovation NB(1, 0.005) pmf
    p = ModelParams(0.5, 0.01, 1.0)
    with mpmath.workdps(30):
        m = (1 - mpmath.mpf(p.alpha)) * mpmath.mpf(p.mu)
        want = float(400 * mpmath.log(m / (1 + m)) - mpmath.log(1 + m))
    value = loglik(Series(np.array([0, 400])), p)
    assert math.isfinite(value) and value < -2000.0
    assert_allclose(value, want, rtol=1e-14)


@pytest.mark.parametrize("block", [distributions.PAIR_BLOCK, 4])
def test_loglik_where_beta_underflows_is_the_sum_of_transition_probs(monkeypatch, block):
    # at alpha = 5e-324, beta = alpha q rounds to 0 and only the N = 0 term of
    # each transition is left; summing every N there gave +0.509.  With blocks
    # of 4 terms the longer pairs have pieces with no N = 0 term
    monkeypatch.setattr(distributions, "PAIR_BLOCK", block)
    x = np.array([3, 4, 5, 2, 6, 1, 0, 3])
    for alpha in (5e-324, 1e-322):
        p = ModelParams(alpha, 2.0, 1.0)
        want = sum(math.log(transition_prob(p, i, j)) for i, j in zip(x[:-1], x[1:]))
        assert_allclose(want, -16.205053290948, rtol=1e-12)
        assert_allclose(loglik(Series(x), p), want, rtol=1e-14)
        value, grad, hess, _ = _evaluate(*_pairs(x), p, True)
        assert_allclose(value, want, rtol=1e-14)
        assert np.isfinite(grad).all() and np.isfinite(hess).all()


def test_loglik_and_score_are_the_same_summed_in_blocks_and_pieces(monkeypatch):
    # with blocks of 4 terms, several pairs share a block and long pairs are
    # split into pieces, which are merged again per pair; with a budget of 20
    # kept terms, the first blocks are built once and the rest at each evaluation
    series = Series(np.array([0, 7, 3, 12, 12, 5, 30, 0, 2, 9, 40, 38]))
    p = ModelParams(0.7, 4.0, 2.5)
    want = _evaluate(*_pairs(series.values), p, True)
    monkeypatch.setattr(distributions, "PAIR_BLOCK", 4)
    for kept in (distributions.PAIR_TERMS_KEPT, 20):
        monkeypatch.setattr(distributions, "PAIR_TERMS_KEPT", kept)
        pairs, counts = _pairs(series.values)
        assert len(pairs.blocks) > 3 and pairs.piece_pair.size > counts.size
        assert 0 < len(pairs.kept) <= len(pairs.blocks)
        assert (len(pairs.kept) < len(pairs.blocks)) == (kept == 20)
        for _ in range(2):  # the kept blocks serve every evaluation
            got = _evaluate(pairs, counts, p, True)
            assert_allclose(got[0], want[0], rtol=1e-14)
            assert_allclose(got[1], want[1], rtol=1e-12)


def test_loglik_memory_stays_within_the_kept_terms_budget():
    # 5.6e6 mixture terms: keeping each one's N and log-factorials would take
    # 134 MB; the kept 349,525 take 8.4 MB, and the blocks formed at each
    # evaluation about 2 MB
    p = ModelParams(0.9, 3e3, 5.0)
    series = simulate(p, 2000, np.random.default_rng(2))
    tracemalloc.start()
    try:
        value = loglik(series, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(value)
    assert peak < 12e6


@pytest.mark.parametrize("x", [
    np.random.default_rng(7).integers(0, 6, size=400),
    np.array([3, 5]),
    # counts near 4e9, where an int64 pair code i (max j + 1) + j would wrap
    np.array([4_000_000_003, 0, 4_000_000_001, 2, 4_000_000_003, 0, 1, 4_000_000_001, 2]),
], ids=["random", "length-2", "near-4e9"])
def test_pairs_are_numpy_uniques_distinct_transitions(x):
    pairs, counts = _pairs(Series(x).values)
    want, want_counts = np.unique(np.column_stack([x[:-1], x[1:]]), axis=0,
                                  return_counts=True)
    assert_array_equal(pairs.i, want[:, 0])
    assert_array_equal(pairs.j, want[:, 1])
    assert_array_equal(counts, want_counts)


@pytest.mark.parametrize("triple", [(0.5, 2.0, 1.0), (0.9, 50.0, 0.5), (0.95, 10.0, 5.0)])
def test_loglik_score_matches_central_differences(triple):
    series = simulate(ModelParams(*triple), 300, np.random.default_rng(41))
    pairs, counts = _pairs(series.values)
    # at a point off the optimum, so that no coordinate of the score is near 0
    alpha, mu, r = triple[0] * 0.9, triple[1] * 1.2, triple[2] * 0.8
    t = np.array([math.log(alpha / (1.0 - alpha)), math.log(mu), math.log(r)])

    def at(t):
        return loglik(series, ModelParams(1.0 / (1.0 + math.exp(-t[0])),
                                          math.exp(t[1]), math.exp(t[2])))

    value, score, _, _ = _evaluate(pairs, counts, ModelParams(alpha, mu, r), True)
    h = 1e-5
    central = [(at(t + h * e) - at(t - h * e)) / (2.0 * h) for e in np.eye(3)]
    # the differences carry about 1e-16 |loglik| / h of rounding and h^2 of truncation
    assert_allclose(score, central, rtol=1e-6, atol=1e-9 * abs(value))


@pytest.mark.parametrize("triple", [(0.5, 2.0, 1.0), (0.9, 50.0, 0.5), (0.7, 20.0, 300.0),
                                    (0.5, 2.0, 0.05)],
                         ids=["hand", "heavy", "asymptotic-r", "small-r"])
def test_loglik_hessian_matches_central_differences_of_the_score(triple):
    # Louis' identity, at each series' generating triple; r = 300 takes the
    # asymptotic forms of log Gamma, psi and psi' (r >= 100)
    p = ModelParams(*triple)
    pairs, counts = _pairs(simulate(p, 300, np.random.default_rng(43)).values)
    t = np.array([math.log(p.alpha / (1.0 - p.alpha)), math.log(p.mu), math.log(p.r)])

    def score_at(t):
        return _evaluate(pairs, counts, estimation._box_params(t), True)[1]

    _, _, hess, _ = _evaluate(pairs, counts, p, True)
    h = 1e-5
    central = np.array([(score_at(t + h * e) - score_at(t - h * e)) / (2.0 * h)
                        for e in np.eye(3)])
    assert_array_equal(hess, hess.T)
    assert_allclose(hess, central, rtol=1e-6, atol=1e-8 * np.abs(hess).max())


def test_cml_fit_cannot_worsen_truth_start():
    rng = np.random.default_rng(300)
    series = simulate(P_HAND, 500, rng)
    fit = cml_fit(series, init=P_HAND)
    assert fit.loglik >= loglik(series, P_HAND) - 1e-6
    assert fit.converged


@pytest.mark.parametrize("series", [
    simulate(P_HAND, 500, np.random.default_rng(300)),
    simulate(P_HAND, 2000, np.random.default_rng(818)),
    Series(np.array([1, 2] * 15)),
    Series(np.array([3] * 50)),
], ids=["seed-300", "seed-818", "box-edge", "constant"])
def test_cml_fit_reports_a_value_it_computed_and_counts_what_it_computed(monkeypatch, series):
    calls = []

    def counted(pairs, counts, p, score):
        calls.append((p, score))
        return _evaluate(pairs, counts, p, score)

    monkeypatch.setattr(estimation, "_evaluate", counted)
    fit = cml_fit(series)
    assert fit.n_eval == len(calls)
    # the search evaluated the estimate with its score, and the fit does not
    # evaluate it again for its value, which is the same bit for bit
    assert (fit.params, True) in calls and calls[-1] != (fit.params, False)
    assert fit.loglik == loglik(series, fit.params)


def test_cml_fit_smoke_recovery():
    rng = np.random.default_rng(818)
    fit = cml_fit(simulate(P_HAND, 2000, rng))
    assert fit.converged
    assert abs(fit.params.alpha - 0.5) < 0.1
    assert abs(fit.params.mu - 2.0) < 0.4
    assert 0.6 < fit.params.r < 1.6
    assert fit.n_iter <= 500


@pytest.mark.parametrize("seed, size, max_eval", [(300, 500, 15), (818, 2000, 12)])
def test_cml_fit_stops_at_a_maximum_by_its_decrement_rule(seed, size, max_eval):
    # L-BFGS-B took 35 and 15 evaluations on these series
    series = simulate(P_HAND, size, np.random.default_rng(seed))
    fit = cml_fit(series)
    assert fit.converged and fit.n_eval <= max_eval
    t = np.array([math.log(fit.params.alpha / (1.0 - fit.params.alpha)),
                  math.log(fit.params.mu), math.log(fit.params.r)])
    assert np.all(np.abs(t) < estimation._SEARCH_BOX)  # every coordinate is free
    value, grad, hess, _ = _evaluate(*_pairs(series.values), fit.params, True)
    assert value == fit.loglik
    np.linalg.cholesky(-hess)  # -H is positive definite
    assert grad @ np.linalg.solve(-hess, grad) <= estimation._DECREMENT_TOL * abs(value)


def test_cml_fit_optimum_outside_search_box_is_not_converged():
    # the likelihood rises as alpha -> 0, and the search ends on the face
    # logit alpha = -30
    fit = cml_fit(Series(np.array([1, 2] * 15)))
    assert fit.params.alpha < 1e-13
    assert not fit.converged
    assert "outside the search box" in fit.message


def test_cml_fit_constant_series_falls_back_to_default_init():
    fit = cml_fit(Series(np.array([3] * 50)))
    assert fit.init.alpha == 0.5
    assert fit.init.mu == 3.0
    assert fit.init.r == 1.0


def test_cml_fit_shape_recovery_across_replicates():
    r_hats = []
    for rep in range(20):
        rng = np.random.default_rng(5000 + rep)
        fit = cml_fit(simulate(P_HAND, 2000, rng))
        r_hats.append(fit.params.r)
    assert 0.7 <= float(np.median(r_hats)) <= 1.4
