"""Shared helpers for the test suite."""

import functools
import math

import mpmath
import numpy as np

from nbinar import h_fold, selftest
from nbinar.distributions import log_gamma

# (alpha, mu, r) triples exercised throughout; the middle one has
# hand-checkable values (q_tilde = 0.5, beta = 0.25, theta = 2/3)
PARAM_TRIPLES = [(p.alpha, p.mu, p.r) for p in selftest.PARAM_GRID]

S_GRID = selftest.S_GRID

# the wide domain: alpha near 0 and 1, r from 1e-3 to 1e4, mu up to 1e3
WIDE_TRIPLES = [(a, mu, r) for a in (0.01, 0.99) for r in (1e-3, 1e4)
                for mu in (1.0, 1e3)] + [(0.5, 1e3, 1e4), (0.5, 1e3, 1e-3)]


def models():
    return list(selftest.PARAM_GRID)


@functools.cache
def suite_result(name):
    return selftest.SUITES[name]()


def check_suite(name, label=None):
    """Assert that the ``nbinar selftest`` suite ``name`` passes, printing its
    margins; each suite runs once per session."""
    ok, detail = suite_result(name)
    print(f"{label or name}: {detail}")
    assert ok, f"{name}: {detail}"


def mp_central_moments(factorial):
    """(mean, m2, m3, m4) in mpmath from the factorial moments F_1..F_4."""
    f1, f2, f3, f4 = factorial
    e1, e2 = f1, f2 + f1
    e3, e4 = f3 + 3 * f2 + f1, f4 + 6 * f3 + 7 * f2 + f1
    return (e1, e2 - e1 ** 2, e3 - 3 * e1 * e2 + 2 * e1 ** 3,
            e4 - 4 * e1 * e3 + 6 * e1 ** 2 * e2 - 3 * e1 ** 4)


def mp_g_moments(alpha, mu, r):
    """Moments of G in mpmath: expanding its pgf 1 - alpha t / (1 + kappa t)
    in t = 1 - s, kappa = (1 - alpha) mu / r, gives F_k = alpha k! kappa^(k-1)."""
    kappa = (1 - alpha) * mu / r
    return mp_central_moments([alpha * mpmath.factorial(k) * kappa ** (k - 1)
                               for k in range(1, 5)])


def mp_nb_moments(r, mu):
    """Moments of NB(r, mu) in mpmath from F_k = r^(k rising) (mu / r)^k."""
    return mp_central_moments([mpmath.rf(r, k) * (mu / r) ** k for k in range(1, 5)])


def mp_relative_error(got, want) -> float:
    """Largest relative deviation of floats from mpmath values, entrywise."""
    got, want = np.ravel(np.asarray(got, dtype=float)), np.ravel(np.asarray(want, dtype=object))
    return max(float(abs((mpmath.mpf(float(g)) - w) / w)) for g, w in zip(got, want))


def tv_to_pmf(values, pmf):
    """Total variation between an empirical sample and a pmf callable.

    The pmf is evaluated on 0..max(values); its mass beyond that window is
    one tail bucket, so the comparison is over a proper distribution.
    """
    values = np.asarray(values)
    return selftest.tv_to_pmf(values, np.array([pmf(k) for k in range(int(values.max()) + 1)]))


def coeff_A(n, i, y):
    """The binomial term C(n, i) y^i (1 - y)^(n - i), 0 <= i <= n, 0 < y < 1,
    in log space."""
    return math.exp(float(log_gamma(n + 1.0) - log_gamma(i + 1.0) - log_gamma(n - i + 1.0))
                    + i * math.log(y) + (n - i) * math.log1p(-y))


def coeff_B_split(n, l, y, ybar):
    """The kernel Gamma(n) / (Gamma(l) Gamma(n - l + 1)) y^l (1 - y)^(n - l)
    at real n >= l > 0, for integer n, l the term C(n-1, l-1) y^l (1-y)^(n-l),
    with 1 - y passed in as ybar.  Where y is near 1, a 1 - y formed from y
    keeps only eps / (1 - y) relative accuracy: at 1 - y = 2.5e-8 that is
    3e-9, above the 1e-9 the oracle comparisons need."""
    return math.exp(float(log_gamma(n) - log_gamma(l) - log_gamma(n - l + 1.0))
                    + l * math.log(y) + (n - l) * math.log(ybar))


def thinned_oracle(x, k, b, y, ybar):
    """P(b-thinning of x equals k) as the positive coeff_A * coeff_B sum:
    (1 - b)^x for k = 0, else sum_{l=1..min(k,x)} coeff_A(x, l, b) coeff_B(k, l, y),
    with 1 - y given as ybar."""
    if k == 0:
        return (1.0 - b) ** x
    return sum(coeff_A(x, l, b) * coeff_B_split(k, l, y, ybar)
               for l in range(1, min(k, x) + 1))


def geometric_transition_reference(alpha, mu, h, i, j):
    """P(X_{t+h} = j | X_t = i) for r = 1 (geometric marginal), coded
    independently with integer binomials only."""
    a_h = alpha ** h
    q_h = 1.0 / (1.0 + (1.0 - a_h) * mu)
    if i == 0:
        return q_h * (1.0 - q_h) ** j

    def A(n, ii, y):
        return math.comb(n, ii) * y ** ii * (1.0 - y) ** (n - ii)

    def B(n, l, y):
        return math.comb(n - 1, l - 1) * y ** l * (1.0 - y) ** (n - l)

    total = A(i, 0, a_h * q_h) * B(j + 1, 1, q_h)
    for k in range(1, j + 1):
        inner = sum(A(i, l, a_h * q_h) * B(k, l, q_h)
                    for l in range(1, min(i, k) + 1))
        total += B(j - k + 1, 1, q_h) * inner
    return total


def thin_pmf_oracle(p, x, h, k):
    """P(h-fold thinning of x equals k), with y = 1 - (1 - beta_h) theta formed
    as the positive (1 - theta) + beta_h theta, 1 - theta = r / (mu + r).  At
    r = 1e-15 y is near 1e-15, and taken as 1 - (1 - y) it left the pmf 8e-4 off."""
    hp = h_fold(p, h)
    ybar = (1.0 - hp.beta_h) * hp.theta
    return thinned_oracle(x, k, hp.beta_h, p.r / (p.mu + p.r) + hp.beta_h * hp.theta, ybar)


def transition_row_oracle(p, i, j_max, h=1):
    """P(X_{t+h} = j | X_t = i) for j = 0..j_max by the double sum

        coeff_A(i, 0, b) coeff_B(j + r, r, q)
        + sum_{k=1..j} coeff_B(j - k + r, r, q)
          sum_{l=1..min(i,k)} coeff_A(i, l, b) coeff_B(k, l, q)

    with q = q_tilde_h and b = alpha^h q: the thinned start state convolved
    with the h-step innovation pmf.  1 - q enters as ``qbar_h``.
    """
    hp = h_fold(p, h)
    q, qbar = hp.q_tilde_h, hp.qbar_h
    b = hp.alpha_h * q
    thin = [thinned_oracle(i, k, b, q, qbar) for k in range(j_max + 1)]
    innov = [coeff_B_split(m + p.r, p.r, q, qbar) for m in range(j_max + 1)]
    return np.convolve(thin, innov)[: j_max + 1]
