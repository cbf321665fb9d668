"""Tests for the expectation-thinning operator and its h-fold composition."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nbinar import (
    AltParams,
    ModelParams,
    ParameterError,
    g_central_moments,
    g_pgf,
    g_pmf,
    h_fold,
    odot_to_star,
    star_to_odot,
    thin_conditional_pmf,
    thin_sample,
)
from nbinar.thinning import odot_pgf

from conftest import (
    S_GRID,
    WIDE_TRIPLES,
    check_suite,
    models,
    mp_g_moments,
    mp_relative_error,
)


def g_pmf_closed(beta, theta, k):
    # mixture form: point mass at 0 plus a shifted geometric component
    if k == 0:
        return 1.0 - beta
    ratio = (1.0 - beta) * theta
    return beta * (1.0 - ratio) * ratio ** (k - 1)


def test_h_fold_where_q_tilde_underflows_raises():
    # r / (r + (1 - alpha) mu) = 1e-600 rounds to 0, and the kernel takes
    # log q as -log1p(qbar / q)
    with pytest.raises(ParameterError, match="q_tilde_h"):
        h_fold(ModelParams(1e-300, 1e300, 1e-300), 1)


@pytest.mark.parametrize("p, h", [
    (ModelParams(0.5, 1e-200, 1e200), 1),  # (1 - alpha) mu / r = 5e-401 rounds to 0
    (ModelParams(5e-324, 5e-324, 1.0), 1),  # 5e-324, a subnormal of one bit
    (ModelParams(0.5, 5e-324, 1e-15), 50),  # 4.9e-309, subnormal at h = 50 only
])
def test_h_fold_where_qbar_is_below_the_smallest_normal_double_raises(p, h):
    # the kernels take log qbar_h
    with pytest.raises(ParameterError, match=r"qbar_h .* smallest normal double"):
        h_fold(p, h)


def test_star_to_odot_hand_values():
    a = star_to_odot(ModelParams(0.5, 2.0, 1.0))
    assert_allclose([a.beta, a.theta], [0.25, 2.0 / 3.0], rtol=1e-15)
    assert a.r == 1.0


def test_odot_to_star_hand_values():
    p = odot_to_star(AltParams(0.25, 2.0 / 3.0, 1.0))
    assert_allclose([p.alpha, p.mu, p.r], [0.5, 2.0, 1.0], rtol=1e-14)


def test_reparameterization_round_trip():
    for p in models():
        back = odot_to_star(star_to_odot(p))
        assert_allclose([back.alpha, back.mu, back.r],
                        [p.alpha, p.mu, p.r], rtol=1e-14)


@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(min_value=0.01, max_value=0.99),
       mu=st.floats(min_value=0.05, max_value=20.0),
       r=st.floats(min_value=0.1, max_value=10.0))
def test_reparameterization_round_trip_wide_domain(alpha, mu, r):
    p = ModelParams(alpha, mu, r)
    back = odot_to_star(star_to_odot(p))
    assert_allclose([back.alpha, back.mu, back.r], [alpha, mu, r], rtol=5e-14)


def test_round_trip_other_direction():
    for beta in (0.05, 0.3, 0.7):
        for theta in (0.1, 0.5, 0.9):
            a = AltParams(beta, theta, 2.0)
            back = star_to_odot(odot_to_star(a))
            assert_allclose([back.beta, back.theta], [beta, theta], rtol=1e-13)


def test_g_pmf_hand_values():
    p = ModelParams(0.5, 2.0, 1.0)
    assert_allclose(g_pmf(p, 0), 0.75, rtol=1e-15)
    # beta = 0.25, (1-beta)theta = 0.5: P(G=2) = 0.25 * 0.5 * 0.5
    assert_allclose(g_pmf(p, 2), 0.0625, rtol=1e-14)


def test_g_pmf_matches_mixture_form_and_normalizes():
    for p in models():
        a = star_to_odot(p)
        got = np.array([g_pmf(p, k) for k in range(400)])
        want = np.array([g_pmf_closed(a.beta, a.theta, k) for k in range(400)])
        assert_allclose(got, want, rtol=1e-13)
        assert abs(got.sum() - 1.0) <= 1e-12


def test_g_pmf_geometric_marginal_reduction():
    # for r = 1 the weights collapse to (alpha q) q qbar^{k-1} with
    # q = 1 / (1 + (1-alpha) mu)
    for alpha in (0.2, 0.5, 0.8):
        for mu in (0.5, 2.0, 6.0):
            p = ModelParams(alpha, mu, 1.0)
            q = 1.0 / (1.0 + (1.0 - alpha) * mu)
            assert_allclose(g_pmf(p, 0), 1.0 - alpha * q, rtol=1e-14)
            for k in range(1, 12):
                want = (alpha * q) * q * (1.0 - q) ** (k - 1)
                assert_allclose(g_pmf(p, k), want, rtol=1e-13)


def test_g_pgf_two_closed_forms_agree():
    for p in models():
        a = star_to_odot(p)
        for s in S_GRID:
            assert_allclose(g_pgf(p, s), odot_pgf(a.beta, a.theta, s), rtol=1e-14)


def test_g_pgf_series_oracle():
    p = ModelParams(0.5, 2.0, 1.0)
    k = np.arange(300)
    pmf = np.array([g_pmf(p, int(j)) for j in k])
    for s in (0.0, 0.4, 0.9):
        assert_allclose(g_pgf(p, s), float(np.sum(pmf * s ** k)), rtol=1e-12)
    assert g_pgf(p, 1.0) == 1.0


def test_g_central_moments_hand_values():
    got = g_central_moments(ModelParams(0.5, 2.0, 1.0))
    assert_allclose(got, [0.5, 1.25, 4.5, 26.5625], rtol=1e-13)


def test_g_central_moments_match_brute_force():
    for p in models():
        a = star_to_odot(p)
        ratio = (1.0 - a.beta) * a.theta
        kmax = max(60, int(math.log(1e-22) / math.log(ratio)) + 2)
        k = np.arange(kmax + 1, dtype=float)
        pmf = np.array([g_pmf_closed(a.beta, a.theta, int(j)) for j in k])
        mean = float(np.sum(pmf * k))
        want = [mean] + [float(np.sum(pmf * (k - mean) ** j)) for j in (2, 3, 4)]
        assert_allclose(g_central_moments(p), want, rtol=1e-10)
        assert_allclose(mean, p.alpha, rtol=1e-12)  # thinning preserves the mean


def mp_thin_pmf(alpha, mu, r, x, h, k):
    # the thinning law in mpmath: Binomial(x, alpha^h q) survivors N, each
    # adding a NegBinomial(N, q) number of extras, q = q_tilde_h
    ah = alpha ** h
    q = r / (r + (1 - ah) * mu)
    b = ah * q
    total = mpmath.mpf(0)
    for n in range(min(x, k) + 1):
        extras = (1 if k == 0 else 0) if n == 0 else \
            mpmath.binomial(k - 1, k - n) * q ** n * (1 - q) ** (k - n)
        total += mpmath.binomial(x, n) * b ** n * (1 - b) ** (x - n) * extras
    return total


@pytest.mark.parametrize("triple", WIDE_TRIPLES)
def test_g_law_and_thinning_pmf_match_mpmath_on_wide_domain(triple):
    # Forming q_tilde as 1 - (1 - beta) theta cancels where q_tilde is small
    # (r << mu): at (0.5, 1e3, 1e-3) that put E[G] and g_pmf 4.2e-11 and the
    # thinning pmf 1.0e-10 off, and the raw-moment route put Var(G) 8.4e-11
    # off.  Measured now: moments within 2.4e-16, g_pmf within 1.7e-13
    # (k = 40 at (0.99, 1e3, 1e4), the power bt^39), thinning pmf within
    # 1.1e-14 at k <= 1.  Past k = 1 the kernel sums k log(1 - q_tilde_h) in
    # logs, about -540 at k = 40 and (0.99, 1, 1e4), whose rounding alone is
    # 1.2e-13 absolute; measured there: 7.7e-14.
    p = ModelParams(*triple)
    alpha, mu, r = (mpmath.mpf(v) for v in triple)
    with mpmath.workdps(50):
        assert mp_relative_error(g_central_moments(p), mp_g_moments(alpha, mu, r)) < 2e-15
        ks = (0, 1, 2, 5, 40)
        assert mp_relative_error([g_pmf(p, k) for k in ks],
                                 [mp_thin_pmf(alpha, mu, r, 1, 1, k) for k in ks]) < 1e-12
        for thin_ks, rtol in (((0, 1), 1e-13), ((2, 5, 40), 2e-13)):
            cases = [(x, h, k) for x in (1, 3) for h in (1, 2) for k in thin_ks]
            assert mp_relative_error([thin_conditional_pmf(p, *c) for c in cases],
                                     [mp_thin_pmf(alpha, mu, r, *c) for c in cases]) < rtol


def test_g_variance_binomial_limit():
    # mu -> 0 sends theta -> 0 and the operator to binomial thinning
    p = ModelParams(0.4, 1e-8, 2.0)
    _, m2, _, _ = g_central_moments(p)
    assert abs(m2 - 0.4 * 0.6) < 1e-6


def test_h_fold_hand_values():
    p = ModelParams(0.5, 2.0, 1.0)
    h2 = h_fold(p, 2)
    assert_allclose(h2.alpha_h, 0.25, rtol=1e-15)
    assert_allclose(h2.q_tilde_h, 0.4, rtol=1e-14)
    assert_allclose(h2.beta_h, 0.1, rtol=1e-14)
    assert_allclose(h2.theta, 2.0 / 3.0, rtol=1e-15)
    h1 = h_fold(p, 1)
    a = star_to_odot(p)
    assert_allclose([h1.alpha_h, h1.beta_h], [0.5, a.beta], rtol=1e-14)


def test_h_fold_bridge_identities():
    check_suite("h-fold-bridge-and-semigroup")


def test_h_fold_semigroup_via_pgf_composition():
    check_suite("h-fold-bridge-and-semigroup")


def test_h_fold_beta_decreases_to_zero():
    for p in models():
        betas = [h_fold(p, h).beta_h for h in range(1, 40)]
        assert all(b1 > b2 > 0.0 for b1, b2 in zip(betas, betas[1:]))
    deep = h_fold(ModelParams(0.5, 2.0, 1.0), 400)
    assert deep.beta_h < 1e-100


def test_h_fold_deep_h_fallback_continuity():
    # deep into the tail (h log alpha near -30) the bridge product alpha^h q_h
    # still agrees with the log1p form of the quotient
    p = ModelParams(0.5, 2.0, 1.0)
    for h in (40, 43, 44, 50):
        hp = h_fold(p, h)
        alpha_h = 0.5 ** h
        q_h = 1.0 / (1.0 + (1.0 - alpha_h) * 2.0)
        direct = math.exp(h * math.log(0.5) + math.log1p(-p.theta)
                          - math.log1p(-p.theta * alpha_h))
        assert_allclose(hp.beta_h, alpha_h * q_h, rtol=1e-12)
        assert_allclose(hp.beta_h, direct, rtol=1e-12)


@pytest.mark.parametrize("alpha", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("mu", [1.0, 1e3])
@pytest.mark.parametrize("r", [1e-3, 1.0, 1e4])
def test_h_fold_beta_h_matches_mpmath(alpha, mu, r):
    # beta_h = alpha^h (1 - theta) / (1 - theta alpha^h) at 50 digits; where
    # theta is near 1 (r << mu) a log1p(-theta) form is 6e-11 relative off
    p = ModelParams(alpha, mu, r)
    with mpmath.workdps(50):
        a, theta = mpmath.mpf(alpha), mpmath.mpf(mu) / (mpmath.mpf(mu) + mpmath.mpf(r))
        for h in (1, 2, 5):
            want = a**h * (1 - theta) / (1 - theta * a**h)
            assert mp_relative_error(h_fold(p, h).beta_h, want) <= 1e-14, h


def test_thin_conditional_pmf_hand_values():
    p = ModelParams(0.5, 2.0, 1.0)
    assert_allclose(thin_conditional_pmf(p, 1, 1, 0), 0.75, rtol=1e-14)
    assert_allclose(thin_conditional_pmf(p, 1, 1, 3), 0.03125, rtol=1e-13)
    # x = 0 thins to the zero distribution
    assert thin_conditional_pmf(p, 0, 1, 0) == 1.0
    assert thin_conditional_pmf(p, 0, 1, 5) == 0.0


def conv_g_reference(alpha, mu, x, k):
    # geometric-marginal conditional law written with binomial weights
    q = 1.0 / (1.0 + (1.0 - alpha) * mu)
    aq = alpha * q
    if k == 0:
        return (1.0 - aq) ** x
    total = 0.0
    for i in range(1, min(k, x) + 1):
        a_term = math.comb(x, i) * aq ** i * (1.0 - aq) ** (x - i)
        b_term = math.comb(k - 1, i - 1) * q ** i * (1.0 - q) ** (k - i)
        total += a_term * b_term
    return total


def test_thin_conditional_pmf_geometric_reference():
    for alpha, mu in [(0.3, 1.5), (0.5, 2.0), (0.7, 4.0)]:
        p = ModelParams(alpha, mu, 1.0)
        for x in range(1, 7):
            for k in range(0, 13):
                want = conv_g_reference(alpha, mu, x, k)
                assert_allclose(thin_conditional_pmf(p, x, 1, k), want,
                                rtol=1e-13, atol=1e-300)


def test_thin_sample_zero_input():
    rng = np.random.default_rng(5)
    p = ModelParams(0.5, 2.0, 1.0)
    assert all(thin_sample(p, 0, rng) == 0 for _ in range(50))


def test_thin_sample_distribution():
    check_suite("sampler-law")


def test_thin_sample_mean_clt_bound():
    rng = np.random.default_rng(99)
    p = ModelParams(0.5, 2.0, 1.0)
    x = 10
    draws = np.array([thin_sample(p, x, rng) for _ in range(20_000)])
    var = x * g_central_moments(p)[1]
    assert abs(draws.mean() - 0.5 * x) < 5.0 * math.sqrt(var / draws.size)


def test_invalid_model_params():
    with pytest.raises(ParameterError):
        ModelParams(0.0, 2.0, 1.0)
    with pytest.raises(ParameterError):
        ModelParams(1.0, 2.0, 1.0)
    with pytest.raises(ParameterError):
        ModelParams(0.5, -1.0, 1.0)
    with pytest.raises(ParameterError):
        ModelParams(0.5, 2.0, 0.0)
    with pytest.raises(ParameterError):
        h_fold(ModelParams(0.5, 2.0, 1.0), 0)
