"""Tests for the negative binomial primitives and the oracles' kernel coefficients."""

import math

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nbinar import (
    AltParams,
    ModelParams,
    NBParams,
    ParameterError,
    Series,
    h_fold,
    log_gamma,
    nb_central_moments,
    nb_pgf,
    nb_pmf,
    nb_pmf_vector,
    nb_sample,
    nb_support_bound,
    simulate,
    transition_prob,
)
from nbinar.distributions import _digamma_shift, _log_gamma_shift, _trigamma, _trigamma_shift
from nbinar.process import ma_sample, transition_rows
from conftest import check_suite, coeff_A, coeff_B_split

NB_GRID = [NBParams(r, mu) for r in (0.5, 1.0, 2.5) for mu in (0.5, 2.0, 5.0)]


def nb_pmf_brute(params, kmax):
    # independent route: forward recurrence pmf(k) = pmf(k-1) * theta * (k-1+r) / k
    theta = params.mu / (params.mu + params.r)
    out = np.empty(kmax + 1)
    out[0] = (1.0 - theta) ** params.r
    for k in range(1, kmax + 1):
        out[k] = out[k - 1] * theta * (k - 1 + params.r) / k
    return out


def test_log_gamma_matches_mpmath():
    mpmath.mp.dps = 40
    for z in np.logspace(-1.0, math.log10(500.0), 40):
        want = float(mpmath.loggamma(z))
        assert abs(log_gamma(z) - want) <= 1e-13 * max(1.0, abs(want))


def test_nb_pmf_hand_values():
    # NB(1, 2) is geometric with theta = 2/3
    p = NBParams(1.0, 2.0)
    assert_allclose(nb_pmf(p, 0), 1.0 / 3.0, rtol=1e-14)
    assert_allclose(nb_pmf(p, 3), (1.0 / 3.0) * (2.0 / 3.0) ** 3, rtol=1e-14)


def test_nb_pmf_matches_recurrence():
    for params in NB_GRID + [NBParams(2.5, 4.0)]:
        want = nb_pmf_brute(params, 60)
        got = np.array([nb_pmf(params, k) for k in range(61)])
        assert_allclose(got, want, rtol=1e-12)


def test_nb_pmf_vector_consistent_and_normalized():
    for params in NB_GRID:
        kmax = nb_support_bound(params, 1e-15)
        vec = nb_pmf_vector(params, kmax)
        assert vec.shape == (kmax + 1,)
        assert_allclose(vec, [nb_pmf(params, k) for k in range(kmax + 1)], rtol=1e-14)
        assert abs(vec.sum() - 1.0) <= 1e-12


def nb_pmf_mpmath(params, k):
    """P(X = k) at 50 digits, with q = r / (r + mu) and 1 - q = mu / (r + mu)."""
    with mpmath.workdps(50):
        r, mu = mpmath.mpf(params.r), mpmath.mpf(params.mu)
        return float(mpmath.binomial(k + r - 1, k) * (r / (r + mu)) ** r * (mu / (r + mu)) ** k)


def test_nb_pmf_matches_mpmath_where_theta_nears_one():
    # theta = mu / (mu + r) comes within 1e-11 of 1 here; log(1 - theta)
    # formed as log1p(-theta) was 4.5e-9 relative off at (r, mu) = (10, 1e8)
    for r in (1e-3, 0.5, 1.0, 10.0):
        for mu in (1.0, 1e3, 1e6, 1e8):
            params = NBParams(r, mu)
            vec = nb_pmf_vector(params, 40)
            for k in (0, 1, 5, 40):
                want = nb_pmf_mpmath(params, k)
                assert_allclose(nb_pmf(params, k), want, rtol=1e-13)
                assert_allclose(vec[k], want, rtol=1e-13)


@pytest.mark.parametrize("r", [1e4, 1e8, 1e12, 1e14])
def test_nb_pmf_matches_mpmath_at_large_r(r):
    # log Gamma(k + r) - log Gamma(r) formed as a difference of two log Gammas
    # left these 2.2e-11 off at r = 1e4 and 0.34 off at 1e14
    params = NBParams(r, 1.0)
    vec = nb_pmf_vector(params, 7)
    for k in range(8):
        want = nb_pmf_mpmath(params, k)
        assert_allclose(nb_pmf(params, k), want, rtol=1e-13)
        assert_allclose(vec[k], want, rtol=1e-13)


# (r, mu) across the wide domain: pmf(0) underflows at the first two, the
# pmf ratio past the mode exceeds theta at the third, and the fourth has a
# bound in the tens of millions
NB_WIDE = [NBParams(r, mu) for r, mu in (
    (1e4, 1e3), (1e3, 2e3), (1e4, 2e3), (0.5, 1e6), (1e-3, 1e-3), (1e-3, 1e6),
    (1e4, 1e-3), (1e4, 1e6))]


def test_nb_support_bound_captures_tail():
    for params in NB_GRID + NB_WIDE:
        for tol in (1e-9, 1e-12):
            kmax = nb_support_bound(params, tol)
            if params in NB_GRID:
                assert nb_pmf_vector(params, kmax).sum() >= 1.0 - tol
                # the bound is not absurdly loose
                mean, var, _, _ = nb_central_moments(params)
                assert kmax <= 20.0 * (mean + 10.0 * math.sqrt(var)) + 200.0
            # P(X > kmax) from scipy, without summing up to 2e10 pmf terms,
            # and the exact tail quantile lies within 1% below the bound
            p_success = params.r / (params.mu + params.r)
            assert scipy.stats.nbinom.sf(kmax, params.r, p_success) <= tol
            assert kmax <= 1.01 * scipy.stats.nbinom.isf(tol, params.r, p_success) + 1


def test_nb_pgf_series_oracle():
    params = NBParams(2.0, 3.0)
    s = 0.5
    pmf = nb_pmf_vector(params, 200)
    want = float(np.sum(pmf * s ** np.arange(201)))
    assert_allclose(nb_pgf(params, s), want, rtol=1e-12)
    assert nb_pgf(params, 1.0) == 1.0
    assert_allclose(nb_pgf(params, 0.0), nb_pmf(params, 0), rtol=1e-14)


def test_nb_pgf_two_closed_forms_agree():
    for params in NB_GRID:
        theta = params.mu / (params.mu + params.r)
        for s in np.linspace(0.0, 1.0, 21):
            alt = ((1.0 - theta) / (1.0 - theta * s)) ** params.r
            assert_allclose(nb_pgf(params, s), alt, rtol=1e-14)


def test_nb_pmf_is_coeff_B_at_real_index():
    # pmf(k) = B_r^{(k+r)}(1-theta), the real-indexed kernel at l = r
    for params in NB_GRID:
        theta = params.mu / (params.mu + params.r)
        for k in range(0, 40):
            want = coeff_B_split(k + params.r, params.r, 1.0 - theta, theta)
            assert_allclose(nb_pmf(params, k), want, rtol=1e-13)


def test_nb_central_moments_hand_values():
    # NB(1, 2): variance 6, third central 30, fourth central 330
    mean, m2, m3, m4 = nb_central_moments(NBParams(1.0, 2.0))
    assert_allclose([mean, m2, m3, m4], [2.0, 6.0, 30.0, 330.0], rtol=1e-13)


def test_nb_central_moments_match_brute_force():
    for params in NB_GRID:
        kmax = nb_support_bound(params, 1e-18)
        pmf = nb_pmf_vector(params, kmax)
        k = np.arange(kmax + 1, dtype=float)
        mean = float(np.sum(pmf * k))
        want = [mean] + [float(np.sum(pmf * (k - mean) ** j)) for j in (2, 3, 4)]
        assert_allclose(nb_central_moments(params), want, rtol=1e-10)


def test_nb_moments_overdispersed():
    for params in NB_GRID:
        mean, m2, _, m4 = nb_central_moments(params)
        assert m2 > mean  # overdispersion
        assert m4 >= m2 ** 2  # Jensen


def test_nb_sample_distribution():
    check_suite("sampler-law")


def test_nb_sample_mean_clt_bound():
    rng = np.random.default_rng(7)
    params = NBParams(3.0, 5.0)
    draws = nb_sample(params, rng, size=200_000)
    var = 5.0 * (1.0 + 5.0 / 3.0)
    assert abs(draws.mean() - 5.0) < 5.0 * math.sqrt(var / draws.size)


def test_nb_sample_tiny_mean_degenerates_to_zero():
    rng = np.random.default_rng(3)
    draws = nb_sample(NBParams(1.0, 1e-9), rng, size=2000)
    assert np.all(draws == 0)


@pytest.mark.parametrize("r, mu, size", [(1.0, 1e300, None), (1.0, 1e19, 3),
                                         (1e-300, 1e300, None)])
def test_nb_sample_refused_gamma_mean_raises_parameter_error(r, mu, size):
    # numpy's Poisson sampler refuses a mean above about 9.2e18, and an infinite one
    with pytest.raises(ParameterError, match="Poisson sampler refused"):
        nb_sample(NBParams(r, mu), np.random.default_rng(1), size=size)


def test_nb_sample_scalar_mode():
    rng = np.random.default_rng(11)
    value = nb_sample(NBParams(1.0, 2.0), rng)
    assert isinstance(value, int) and value >= 0


def test_coeff_A_hand_values():
    assert_allclose(coeff_A(1, 1, 0.25), 0.25, rtol=1e-15)
    assert_allclose(coeff_A(5, 0, 0.3), 0.7 ** 5, rtol=1e-14)
    assert_allclose(coeff_A(2, 1, 0.5), 0.5, rtol=1e-14)


def test_coeff_A_matches_binomial_pmf():
    for n in (1, 4, 9):
        for y in (0.2, 0.5, 0.8):
            for i in range(n + 1):
                want = math.comb(n, i) * y ** i * (1.0 - y) ** (n - i)
                assert_allclose(coeff_A(n, i, y), want, rtol=1e-13)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=60),
       y=st.floats(min_value=0.01, max_value=0.99))
def test_coeff_A_rows_sum_to_one(n, y):
    total = sum(coeff_A(n, i, y) for i in range(n + 1))
    assert abs(total - 1.0) <= 1e-12


def test_coeff_B_hand_values():
    # B_1^{(2)}(0.5) = C(1,0) 0.5 * 0.5 = 0.25
    assert_allclose(coeff_B_split(2.0, 1.0, 0.5, 0.5), 0.25, rtol=1e-14)
    # l = n collapses to y^n
    assert_allclose(coeff_B_split(4.0, 4.0, 0.3, 0.7), 0.3 ** 4, rtol=1e-13)


def test_coeff_B_integer_reduction():
    for n in range(1, 21):
        for l in range(1, n + 1):
            for y in (0.2, 0.5, 0.8):
                want = math.comb(n - 1, l - 1) * y ** l * (1.0 - y) ** (n - l)
                assert_allclose(coeff_B_split(float(n), float(l), y, 1.0 - y), want, rtol=1e-13)


def test_domain_errors():
    params = NBParams(1.0, 2.0)
    with pytest.raises(ParameterError):
        nb_pmf(params, -1)
    with pytest.raises(ParameterError):
        nb_pgf(params, 1.5)
    with pytest.raises(ParameterError):
        NBParams(0.0, 2.0)
    with pytest.raises(ParameterError):
        NBParams(1.0, -2.0)


P_HAND = ModelParams(0.5, 2.0, 1.0)


# The public entry points refuse a value that is not a number of its kind,
# which int() or float() would read: a bool as 0 or 1, a string as its
# number, a fraction as its integer part.
@pytest.mark.parametrize("call", [
    lambda: ModelParams(0.5, True, 1),
    lambda: NBParams(True, 2.0),
    lambda: AltParams(0.5, 0.5, True),
    lambda: simulate(P_HAND, True, np.random.default_rng(0)),
    lambda: h_fold(P_HAND, True),
    lambda: transition_prob(P_HAND, True, 1),
    lambda: Series(np.array([True, False])),
    lambda: nb_pgf(NBParams(1.0, 2.0), "0.5"),
    lambda: ModelParams("0.5", 2, 1),
    lambda: transition_rows(P_HAND, [1.7], 3),
], ids=["ModelParams-bool", "NBParams-bool", "AltParams-bool", "simulate-bool",
        "h_fold-bool", "transition_prob-bool", "Series-bool", "nb_pgf-str",
        "ModelParams-str", "transition_rows-fraction"])
def test_non_numbers_raise_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("r", [0.5, 99.0, 100.0, 1e4, 7e9])
def test_log_gamma_and_digamma_differences_match_mpmath(r):
    # the likelihood takes log Gamma(x + r) and psi(x + r) only in differences
    # over x; at large r those keep their digits.  Below r = 100 psi is taken
    # directly, and its differences keep the absolute error of psi itself
    x = np.array([0.0, 1.0, 3.0, 50.0, 1e3, 1e5])
    got = _log_gamma_shift(x, r)[1:] - _log_gamma_shift(x, r)[0]
    got_psi = _digamma_shift(x, r)[1:] - _digamma_shift(x, r)[0]
    with mpmath.workdps(40):
        want = [float(mpmath.loggamma(v + r) - mpmath.loggamma(r)) for v in x[1:]]
        want_psi = [float(mpmath.digamma(v + r) - mpmath.digamma(r)) for v in x[1:]]
    assert_allclose(got, want, rtol=2e-14)
    assert_allclose(got_psi, want_psi, rtol=2e-14, atol=4e-15)
    # and psi', which the likelihood's Hessian takes in differences too
    got_psi1 = _trigamma_shift(x, r)[1:] - _trigamma_shift(x, r)[0]
    with mpmath.workdps(40):
        want_psi1 = [float(mpmath.polygamma(1, v + r) - mpmath.polygamma(1, r)) for v in x[1:]]
    assert_allclose(got_psi1, want_psi1, rtol=1e-14)


def test_trigamma_matches_mpmath():
    # through both of its branches: the series from 20 on, the recurrence below
    z = np.concatenate([np.geomspace(1e-3, 1e6, 60), [19.999999, 20.0, 20.000001]])
    with mpmath.workdps(30):
        want = [float(mpmath.polygamma(1, v)) for v in z]
    assert_allclose(_trigamma(z), want, rtol=1e-15)


def test_nb_support_bound_past_the_int64_counts_raises():
    # the 1 - 1e-12 quantile of NB(1e-3, 1e300) lies far past 2^63; the search
    # used to double until its count no longer converted to a float
    with pytest.raises(ParameterError, match="2\\^53"):
        nb_support_bound(NBParams(1e-3, 1e300), 1e-12)


@pytest.mark.parametrize("mu", [1e15, 1e17])
def test_nb_support_bound_past_2_53_raises(mu):
    # the 1 - 1e-12 quantile of NB(0.5, mu), about 51 mu, lies past 2^53, where
    # k + 1.0 no longer holds every count; the search used to return
    # 9007199254741026 at both, 0.18x and 0.0018x of that quantile
    params = NBParams(0.5, mu)
    assert scipy.stats.nbinom.isf(1e-12, params.r, params.r / (params.r + mu)) > 2.0 ** 53
    with pytest.raises(ParameterError, match="2\\^53"):
        nb_support_bound(params, 1e-12)


@pytest.mark.parametrize("size", [True, -1, 2.5, "3", (2, True), (2, -1), [2, 3]])
def test_sample_size_must_be_none_a_count_or_a_tuple_of_counts(size):
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        nb_sample(NBParams(1.0, 2.0), rng, size=size)
    with pytest.raises(ParameterError):
        ma_sample(P_HAND, 3, rng, size=size)
    for good in (None, 4, np.int64(4), (2, 3)):
        assert np.shape(nb_sample(NBParams(1.0, 2.0), rng, size=good)) == np.empty(good or ()).shape


def test_numpy_scalars_pass_and_parameters_are_stored_as_floats():
    p = ModelParams(np.float64(0.5), np.int64(2), 1)
    objects = (p, AltParams(np.float32(0.25), 0.5, np.int32(3)),
               NBParams(np.int64(1), np.float64(2.0)))
    for obj in objects:
        assert all(type(v) is float for v in vars(obj).values()), obj
    assert p == P_HAND
    assert h_fold(p, np.int64(2)) == h_fold(P_HAND, 2)
    assert transition_prob(p, np.int64(1), np.float64(1.0)) == transition_prob(P_HAND, 1, 1)
    assert nb_pgf(objects[2], np.float64(0.5)) == nb_pgf(NBParams(1.0, 2.0), 0.5)
    assert_allclose(transition_rows(p, np.array([1.0, 2.0]), 3),
                    transition_rows(P_HAND, [1, 2], 3), rtol=0, atol=0)
    assert len(simulate(p, np.int64(5), np.random.default_rng(0))) == 5
