"""Negative binomial primitives.

The negative binomial NB(r, mu) is parameterized by shape r > 0 and mean
mu > 0, with theta = mu / (mu + r) in (0, 1), pmf

    P(X = k) = Gamma(k + r) / (k! Gamma(r)) * (1 - theta)^r theta^k,

and variance mu * (mu / r + 1).  The transition law of the process, a
binomial thinning plus an independent negative binomial count, is evaluated
here as a positive mixture at given pairs (``_BinomNBPairs``, ``_binom_nb_cell``)
and in whole rows by the recurrence of its pgf, split at each row's turning
point (``_binom_nb_rows``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma
from scipy.special import gammaln as log_gamma

__all__ = [
    "ParameterError",
    "NBParams",
    "log_gamma",
    "nb_pmf",
    "nb_pmf_vector",
    "nb_pgf",
    "nb_sample",
    "nb_central_moments",
    "nb_support_bound",
]


class ParameterError(ValueError):
    """A parameter or index lies outside its domain."""


# The input checks of the package: a count, an array of counts, a sample shape
# and a real in an interval.  None coerces a bool or a string, and a plain int or
# float passes on the first type test.
def _check_count(value, name: str = "k", minimum: int = 0) -> int:
    """An integer (numpy's too) or an integral float, at least ``minimum``."""
    if type(value) is not int:
        if isinstance(value, bool) or not (
                isinstance(value, numbers.Integral)
                or (isinstance(value, numbers.Real) and float(value).is_integer())):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _check_counts(values, name: str) -> np.ndarray:
    """A non-empty 1-D array of non-negative counts, as a new int64 array:
    an integer dtype or integral floats, never bools."""
    v = np.asarray(values)
    if v.ndim != 1 or v.size == 0:
        raise ParameterError(f"{name} must be a non-empty one-dimensional array")
    if not (v.dtype.kind in "iu" or (v.dtype.kind == "f" and np.isfinite(v).all()
                                     and (np.rint(v) == v).all())):
        raise ParameterError(f"{name} entries must be integers")
    v = v.astype(np.int64)
    if (v < 0).any():
        raise ParameterError(f"{name} entries must be non-negative")
    return v


def _check_size(size):
    """A sample shape: None, a count or a tuple of counts."""
    if size is None:
        return None
    if isinstance(size, tuple):
        return tuple(_check_count(n, "size") for n in size)
    return _check_count(size, "size")


def _check_real(value, name: str, low: float, high: float = math.inf,
                closed: bool = False) -> float:
    """A finite real number (an int or numpy's too) in (low, high), or in
    [low, high] if ``closed``."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ParameterError(f"{name} must be a real number, got {value!r}")
        value = float(value)
    # an open interval holds no infinity and no NaN, whatever its ends
    if low < value < high or (closed and low <= value <= high and math.isfinite(value)):
        return value
    interval = f"[{low:g}, {high:g}]" if closed else f"({low:g}, {high:g})"
    raise ParameterError(f"{name} must lie in {interval}, got {value!r}")


@dataclass(frozen=True)
class NBParams:
    """Negative binomial with shape ``r`` and mean ``mu``, both positive."""

    r: float
    mu: float

    def __post_init__(self):
        attrs = self.__dict__  # the class is frozen: store the checked floats directly
        attrs["r"] = _check_real(self.r, "r", 0.0)
        attrs["mu"] = _check_real(self.mu, "mu", 0.0)


def _nb_log_pmf(params: NBParams, k):
    """log P(X = k) at a count or an array of counts.  log q = -log1p(mu/r) and
    log(1 - q) = log theta = -log1p(r/mu) keep their digits at either end of
    (0, 1), and log Gamma(k + r) - log Gamma(r) (``_gamma_shift``) at large r."""
    r, mu = params.r, params.mu
    return (_gamma_shift(k, r, 0) - log_gamma(k + 1.0) - _gamma_shift(0.0, r, 0)
            - r * math.log1p(mu / r) - k * math.log1p(r / mu))


def nb_pmf(params: NBParams, k: int) -> float:
    """P(X = k) for X ~ NB(r, mu), evaluated in log space."""
    return math.exp(_nb_log_pmf(params, _check_count(k)))


def nb_pmf_vector(params: NBParams, kmax: int) -> np.ndarray:
    """pmf values for k = 0..kmax as an array."""
    return np.exp(_nb_log_pmf(params, np.arange(_check_count(kmax, "kmax") + 1)))


def nb_pgf(params: NBParams, s: float) -> float:
    """E[s^X] = (1 + mu (1 - s) / r)^(-r) for s in [0, 1]."""
    s = _check_real(s, "s", 0.0, 1.0, closed=True)
    return (1.0 + params.mu * (1.0 - s) / params.r) ** (-params.r)


def nb_sample(params: NBParams, rng: np.random.Generator, size=None):
    """Draw from NB(r, mu) as a Poisson with Gamma(r, scale mu/r) mean; ``size``
    is None for one draw, or a count or a tuple of counts."""
    lam = rng.gamma(shape=params.r, scale=params.mu / params.r, size=_check_size(size))
    try:
        return rng.poisson(lam)
    except ValueError as exc:  # a mean above about 9.2e18, or an infinite or NaN one
        raise ParameterError(f"NB(r={params.r!r}, mu={params.mu!r}) is too wide to sample: "
                             f"numpy's Poisson sampler refused the gamma mean ({exc})") from None


def nb_central_moments(params: NBParams) -> tuple[float, float, float, float]:
    """Mean and second/third/fourth central moments of NB(r, mu).

    Returns
    -------
    (mean, m2, m3, m4) : tuple of floats
        mean = mu, m2 = mu(mu/r + 1), m3 = mu(mu/r + 1)(2 mu/r + 1),
        m4 = mu(mu/r + 1)[1 + 3 mu(mu/r + 1)(1 + 2/r)].
    """
    mu, r = params.mu, params.r
    v = mu * (mu / r + 1.0)
    m3 = v * (2.0 * mu / r + 1.0)
    m4 = v * (1.0 + 3.0 * v * (1.0 + 2.0 / r))
    return mu, v, m3, m4


# nb_support_bound refuses a K from 2^53 on, where a double no longer holds every count
_COUNT_LIMIT = 1 << 53


def nb_support_bound(params: NBParams, tol: float) -> int:
    """Smallest K with pmf(K) < tol (1 - max(theta, rho_K)), so P(X >= K) < tol.

    Past the mode the ratio rho_k = pmf(k+1) / pmf(k) = theta (k + r) / (k + 1)
    is < 1 and moves monotonically towards theta, so the tail from K on is
    below pmf(K) / (1 - max(theta, rho_K)).  The condition holds from some K
    past the mode on; K is found by doubling steps and bisection on the log
    pmf, so no pmf value has to be representable as a double.
    """
    r, mu = params.r, params.mu
    log_tol = math.log(_check_real(tol, "tol", 0.0, 1.0))

    def below(k: int) -> bool:
        # 1 - max(theta, rho_k) = (r (k+1) + min(0, mu (1-r))) / ((k+1) (mu+r))
        slack = r * (k + 1.0) + min(0.0, mu * (1.0 - r))
        if slack <= 0.0:
            return False
        return _nb_log_pmf(params, k) < log_tol + math.log(slack / (k + 1.0)) - math.log(mu + r)

    # below(lo) stays false and below(hi) true; lo starts just before the mode
    lo, step = max(0, math.ceil(mu * (r - 1.0) / r - 1.0)) - 1, 1
    while lo + step < _COUNT_LIMIT and not below(lo + step):
        lo, step = lo + step, 2 * step
    if lo + step >= _COUNT_LIMIT:
        raise ParameterError(f"NB(r={r!r}, mu={mu!r}) has more than tol = {tol!r} of its "
                             f"mass at or above 2^53, where a double no longer holds every count")
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if below(mid) else (mid, hi)
    return hi


# The mixture's memory, counted in terms, min(i, j) + 1 a transition (i, j).
# Both of its users refuse more than MAX_PAIR_TERMS before forming any term:
# ``_binom_nb_cell`` for one cell, which at the budget takes about 2 s and
# peaks at 512 MiB, and ``_BinomNBPairs`` for a likelihood's distinct
# transitions together, about 0.15 s an evaluation, with a log-factorial table
# of at most twice as many doubles, 270 MB.  The first PAIR_TERMS_KEPT terms keep
# their N (as an index and as a float) and log-factorials for every evaluation,
# 24 bytes a term: 2^23 bytes (8.4 MB); the blocks past them are formed again at
# each evaluation.  An evaluation takes PAIR_BLOCK to twice that many terms a
# numpy pass, with a few doubles of temporaries a term (a likelihood of 1.4e7
# terms peaks at 2.4 MB).  A pass's arrays, 128 to 256 KB each, stay in cache:
# passes of 2^16 terms made one evaluation of 5.6e6 terms about 1.6 times slower.
MAX_PAIR_TERMS = 1 << 24
PAIR_TERMS_KEPT = (1 << 23) // 24
PAIR_BLOCK = 1 << 14
# exp of an argument below about -708 is subnormal or 0 and some 20 times slower
# to form; a term that far below its pair's largest adds under 1e-304 of it.
_LOG_TINY = -700.0


def _trigamma(z):
    """psi'(z) for z > 0, from the asymptotic series
    psi'(y) = 1/y + 1/(2y^2) + 1/(6y^3) - 1/(30y^5) + 1/(42y^7) - 1/(30y^9) + 5/(66y^11),
    whose first omitted term is below 1e-16 of it at y >= 20; below 20 by
    psi'(z) = psi'(z + 20) + sum_{k < 20} 1/(z + k)^2, all terms positive.
    (scipy's Hurwitz zeta(2, z) costs some 0.2 us a value, ten times this.)"""
    z = np.asarray(z, dtype=float)
    small = z < 20.0
    y = np.where(small, z + 20.0, z)
    w = 1.0 / (y * y)
    out = (1.0 + (0.5 + (1.0 / 6.0 - (1.0 / 30.0 - (1.0 / 42.0 - (1.0 / 30.0 - 5.0 / 66.0 * w)
                                                    * w) * w) * w) / y) / y) / y
    if small.any():
        out[small] += (1.0 / np.square(z[small, None] + np.arange(20.0))).sum(axis=1)
    return out


# From this r on, log Gamma(z) = (z - 1/2) log z - z + log(2 pi) / 2 + sum of
# a z^-p over (p, a) in _STIRLING, whose first omitted term is below 1e-18 there
_R_ASYMPTOTIC = 100.0
_STIRLING = ((1, 1.0 / 12.0), (3, -1.0 / 360.0), (5, 1.0 / 1260.0), (7, -1.0 / 1680.0))


def _gamma_shift(x, r: float, k: int):
    """log Gamma, psi or psi' (k = 0, 1, 2) at x + r, less a constant in r alone,
    for x >= 0.  At large r, whose differences over x would lose their digits,
    the k-th derivative of Stirling's series at z = x + r less its value at r:
    each z^-p - r^-p as r^-p expm1(-p log1p(x/r)), and a leading term that does
    not cancel, (z - 1/2) log1p(x/r) + x (log r - 1) at k = 0 and log1p(x/r) at
    k = 1; the other derivatives of (z - 1/2) log z - z are powers of z."""
    if r < _R_ASYMPTOTIC:
        return (log_gamma, digamma, _trigamma)[k](x + r)
    log_ratio = np.log1p(x / r)
    lead, powers = [((x + r - 0.5) * log_ratio + x * (math.log(r) - 1.0), []),
                    (log_ratio, [(1, -0.5)]),
                    (0.0, [(1, 1.0), (2, 0.5)])][k]
    powers += [(p + k, a * (-1) ** k * math.prod(range(p, p + k))) for p, a in _STIRLING]
    return lead + sum(a * r ** -p * np.expm1(-p * log_ratio) for p, a in reversed(powers))


def _log_terms_n(n, b: float, q: float, c: float, r: float):
    """The parts of log T_N (``_BinomNBPairs``) that vary with N and the
    parameters: N log(b q / ((1 - b) c)) - log Gamma(N + r).  At b = 0 only
    N = 0 may be given."""
    log_q = -math.log1p(c / q)  # keeps its digits where q is near 1
    slope = math.log(b) - math.log1p(-b) + log_q - math.log(c) if b > 0.0 else 0.0
    return n * slope - _gamma_shift(n, r, 0)


def _log_terms_pair(i, j, b: float, q: float, c: float, r: float):
    """The parts of log T_N that vary with the pair and the parameters only:
    log Gamma(j + r) + i log(1 - b) + r log q + j log c."""
    return (_gamma_shift(j, r, 0) + i * math.log1p(-b) - r * math.log1p(c / q)
            + j * math.log(c))


class _BinomNBPairs:
    """P(j | i) = sum_N Binom(N; i, b) NB(j - N; N + r, q), a b-thinning of i
    plus an independent NB(r, q) count, at given (i, j) pairs, each seen
    ``counts`` times (once if not given; ``from_path`` groups a path's
    transitions): log P(j | i) of each pair, and on request the posterior
    moments of N and psi(N + r) that its score and Hessian need.

    The term of survivor count N <= m = min(i, j), with s = max(i, j), is
        log T_N = log i! - log N! - log (m - N)! - log (s - N)!
                  + log Gamma(j + r) - log Gamma(N + r)
                  + N log(b q / ((1 - b) c)) + i log(1 - b) + r log q + j log c,
    so its log-factorials are the same for every (b, q, c, r): they are read
    from one table built here, over [0, max m] and each pair's [s - m, s].
    log P is the log-sum-exp of the pair's terms, and the derivative of log P
    in any parameter is the mean of its terms' derivatives under the weights
    T_N / P (Fisher's identity), which needs only E[N] and E[psi(N + r)].  Its
    second derivatives are the posterior mean of the terms' second derivatives
    plus the posterior covariance of their first ones (Louis 1982), which need
    E[psi'(N + r)] and the variances and covariance of N and psi(N + r).
    log Gamma, psi and psi' are taken less a constant in r (``_gamma_shift``),
    which cancels from every difference.
    The terms are formed about PAIR_BLOCK at a time, a longer pair in pieces,
    so memory follows the block and the number of pairs.  Each term's N and
    its log-factorials are built here once for the first PAIR_TERMS_KEPT
    terms; an evaluation adds to them only what depends on the parameters.
    Blocks past that budget are built again at each evaluation.  More than
    MAX_PAIR_TERMS terms are refused before any is built.  Needs r > 0.
    """

    def __init__(self, i, j, counts=None):
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        m = np.minimum(i, j)
        work = int(m.sum(dtype=float)) + m.size
        if work > MAX_PAIR_TERMS:
            raise ParameterError(f"the likelihood needs {work} mixture terms, sum of "
                                 f"min(i, j) + 1 over the distinct transitions (i, j), "
                                 f"above the budget of {MAX_PAIR_TERMS}")
        self.counts = np.ones(m.size) if counts is None else counts.astype(float)
        s = np.maximum(i, j)
        # the log-factorial table over the union of [0, max m] and each [s - m, s],
        # merged into disjoint runs
        lo, hi = np.append(s - m, 0), np.append(s, m.max())
        order = np.argsort(lo, kind="stable")
        lo, reach = lo[order], np.maximum.accumulate(hi[order])
        new_run = np.empty(lo.size, dtype=bool)
        new_run[0] = True
        np.greater(lo[1:], reach[:-1] + 1, out=new_run[1:])
        first = np.flatnonzero(new_run)
        run_lo, run_hi = lo[first], reach[np.append(first[1:], lo.size) - 1]
        run_len = run_hi - run_lo + 1
        run_at = np.cumsum(run_len) - run_len
        self.log_fact = log_gamma(np.arange(run_len.sum())
                                  + np.repeat(run_lo - run_at, run_len) + 1.0)
        run = np.empty(lo.size, dtype=np.int64)
        run[order] = np.cumsum(new_run) - 1
        # the run starting at 0 is the first: N! and (m - N)! sit at N and m - N,
        # and (s - N)! at s_at - N
        s_at = run_at[run[:-1]] + s - run_lo[run[:-1]]
        self.log_fact_i = np.where(i == s, self.log_fact[s_at], self.log_fact[m])
        self.i, self.j, self.n_max = i.astype(float), j.astype(float), int(m.max())
        # the distinct destinations, at which psi(j + r) and psi'(j + r) are formed
        j_values, self.j_index = np.unique(j, return_inverse=True)
        self.j_values = j_values.astype(float)
        # pieces of at most PAIR_BLOCK terms, each with its pair, its first N and
        # the table indices of (m - N)! and (s - N)! at that N
        count = -(-(m + 1) // PAIR_BLOCK)
        self.pair_first = np.cumsum(count) - count
        self.piece_pair = np.repeat(np.arange(m.size), count)
        self.piece_n0 = (np.arange(self.piece_pair.size)
                         - self.pair_first[self.piece_pair]) * PAIR_BLOCK
        self.piece_len = np.minimum(m[self.piece_pair] + 1 - self.piece_n0, PAIR_BLOCK)
        self.piece_m = m[self.piece_pair] - self.piece_n0
        self.piece_s = s_at[self.piece_pair] - self.piece_n0
        ends = np.cumsum(self.piece_len)
        cuts = np.searchsorted(ends, np.arange(PAIR_BLOCK, ends[-1], PAIR_BLOCK), side="right")
        self.blocks = list(zip([0, *cuts.tolist()], [*cuts.tolist(), ends.size]))
        # the blocks that end within the budget are built once, each term with
        # -log N! - log (m - N)! - log (s - N)!
        kept = np.searchsorted(ends[np.append(cuts, ends.size) - 1], PAIR_TERMS_KEPT,
                               side="right")
        minus_log_fact = -self.log_fact[:self.n_max + 1]
        self.kept = []
        for p0, p1 in self.blocks[:kept]:
            nn, x, start = self._block_terms(p0, p1, minus_log_fact)
            self.kept.append((nn, nn.astype(float), x, start))

    @classmethod
    def from_path(cls, x: np.ndarray) -> "_BinomNBPairs":
        """The distinct transitions (i, j) of the path x, with their counts."""
        if x.size < 2:
            raise ParameterError("need at least 2 observations")
        # sorted by origin, then destination: each run of equal pairs is one transition
        order = np.lexsort((x[1:], x[:-1]))
        i, j = x[:-1][order], x[1:][order]
        new = np.empty(i.size, dtype=bool)
        new[0] = True
        new[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1])
        first = np.flatnonzero(new)
        return cls(i[first], j[first], np.diff(first, append=i.size))

    def _block_terms(self, p0: int, p1: int, log_w):
        """Of the terms of pieces p0..p1: each term's N, log_w[N] - log (m - N)!
        - log (s - N)!, and each piece's first term."""
        lens = self.piece_len[p0:p1]
        start = np.cumsum(lens) - lens
        t = np.arange(start[-1] + lens[-1])
        # the term at t of a piece starting at start has N = n0 + t - start
        nn = np.repeat(self.piece_n0[p0:p1] - start, lens)
        nn += t
        x = log_w[nn]
        for first in (self.piece_m, self.piece_s):
            k = np.repeat(first[p0:p1] + start, lens)
            k -= t
            x -= self.log_fact[k]
        return nn, x, start

    def log_prob(self, b: float, q: float, c: float, r: float, moments: bool = False):
        """log P(j | i) of each pair; with ``moments``, also E[N], E[psi(N + r)],
        Var(N), Cov(N, psi(N + r)), Var(psi(N + r)) and E[psi'(N + r)] under
        each pair's posterior over N, and psi(j + r) and psi'(j + r)."""
        n = np.arange((self.n_max if b > 0.0 else 0) + 1.0)
        log_t = _log_terms_n(n, b, q, c, r)
        if moments:
            psi, psi1 = _gamma_shift(n, r, 1), _gamma_shift(n, r, 2)
            # formed at the distinct destinations
            at_j = (_gamma_shift(self.j_values, r, 1)[self.j_index],
                    _gamma_shift(self.j_values, r, 2)[self.j_index])
        if b == 0.0:  # alpha^h underflowed: only N = 0 is left, P(j | i) = NB(j; r, q)
            log_p = log_t[0] - log_gamma(self.j + 1.0) + _log_terms_pair(self.i, self.j, b, q, c, r)
            if not moments:
                return log_p
            zero = np.zeros(log_p.size)
            return log_p, zero, zero + psi[0], zero, zero, zero, zero + psi1[0], *at_j
        log_w = log_t - self.log_fact[:n.size]  # for the blocks past the kept ones
        sums = []
        for k, (p0, p1) in enumerate(self.blocks):
            if k < len(self.kept):
                nn, nf, w, start = self.kept[k]
                x = log_t[nn]
                x += w
            else:
                nn, x, start = self._block_terms(p0, p1, log_w)
                nf = nn.astype(float) if moments else None
            lens = self.piece_len[p0:p1]
            top = np.maximum.reduceat(x, start)
            x -= np.repeat(top, lens)
            np.maximum(x, _LOG_TINY, out=x)
            np.exp(x, out=x)
            total = np.add.reduceat(x, start)
            block = [top, total]
            if moments:
                block += self._piece_moments(x, start, lens, total, nf, psi[nn], psi1[nn])
            sums.append(block)
        top, total, *rest = (np.concatenate(parts) for parts in zip(*sums))
        # each pair's pieces, rescaled to the pair's largest term, and the parts
        # of log T_N that are the same for all of a pair's terms
        pair_top = np.maximum.reduceat(top, self.pair_first)
        scale = np.exp(top - pair_top[self.piece_pair])
        pair_total = np.add.reduceat(total * scale, self.pair_first)
        log_p = (pair_top + np.log(pair_total)) + (self.log_fact_i
                                                    + _log_terms_pair(self.i, self.j, b, q, c, r))
        if not moments:
            return log_p
        # a pair's moments from its pieces': the pieces' sums of squares about
        # their own means, and the spread of those means about the pair's
        mean_n, mean_psi, ss_n, ss_n_psi, ss_psi, sum_psi1 = rest
        share = scale / pair_total[self.piece_pair]
        weight = share * total

        def pair_sum(v):
            return np.add.reduceat(v, self.pair_first)

        pair_mean_n, pair_mean_psi = pair_sum(weight * mean_n), pair_sum(weight * mean_psi)
        off_n = mean_n - pair_mean_n[self.piece_pair]
        off_psi = mean_psi - pair_mean_psi[self.piece_pair]
        return (log_p, pair_mean_n, pair_mean_psi,
                pair_sum(share * ss_n + weight * off_n * off_n),
                pair_sum(share * ss_n_psi + weight * off_n * off_psi),
                pair_sum(share * ss_psi + weight * off_psi * off_psi),
                pair_sum(share * sum_psi1), *at_j)

    @staticmethod
    def _piece_moments(x, start, lens, total, nf, psi, psi1):
        """Of each piece with weights x over its terms' N, psi(N + r) and
        psi'(N + r): the means of N and psi, their sums of squares and products
        about those means, which do not cancel where N is in the hundreds and
        its posterior narrow, and the sum of psi'.  Overwrites psi and psi1."""
        buf = x * nf
        mean_n = np.add.reduceat(buf, start) / total
        np.multiply(x, psi, out=buf)
        mean_psi = np.add.reduceat(buf, start) / total
        dn = nf - np.repeat(mean_n, lens)
        psi -= np.repeat(mean_psi, lens)
        np.multiply(x, dn, out=buf)
        dn *= buf
        ss_n = np.add.reduceat(dn, start)
        buf *= psi
        ss_n_psi = np.add.reduceat(buf, start)
        np.multiply(x, psi, out=buf)
        buf *= psi
        ss_psi = np.add.reduceat(buf, start)
        psi1 *= x
        return [mean_n, mean_psi, ss_n, ss_n_psi, ss_psi, np.add.reduceat(psi1, start)]


def _binom_nb_cell(i: int, j: int, b: float, q: float, c: float, r: float) -> float:
    """P(j | i) = sum_N Binom(N; i, b) NB(j - N; N + r, q) at one pair: the
    terms of ``_BinomNBPairs`` with their log-factorials formed directly,
    O(min(i, j)), refused past MAX_PAIR_TERMS terms.  At b = 0 (alpha^h
    underflowed) no count survives the thinning, and only the N = 0 term is left."""
    m, s = min(i, j), max(i, j)
    n_max = m if b > 0.0 else 0
    if n_max >= MAX_PAIR_TERMS:
        raise ParameterError(f"the cell ({i}, {j}) needs {n_max + 1} mixture terms, "
                             f"min(i, j) + 1, above the budget of {MAX_PAIR_TERMS}")
    n = np.arange(n_max + 1.0)
    x = _log_terms_n(n, b, q, c, r) - log_gamma(n + 1.0) - log_gamma(m - n + 1.0) \
        - log_gamma(s - n + 1.0)
    top = x.max()
    return math.exp(top + _log_terms_pair(i, j, b, q, c, r) + float(log_gamma(i + 1.0))
                    + math.log(np.exp(np.maximum(x - top, _LOG_TINY)).sum()))


# A row runs backward above its turning point where its forward run would amplify
# rounding by more than exp(_FORWARD_GROWTH) by j_max, from a start whose error
# shrinks by exp(-_BACKWARD_DECAY) by j_max (``_root_gap``).  Near d = 0 the gap
# is small: a start fixed at 2 j_max + 2 left cells off by up to 4.8e3 there,
# where forward runs stay within 2e-11 of the pair sums at j_max = 3000.
_FORWARD_GROWTH = 2.0
_BACKWARD_DECAY = 40.0


def _root_gap(k, turn, lam: float, r: float):
    """The log ratio of the local roots of the row recurrence at steps k > turn
    of the row with turning point ``turn``, lam = log((b - c) / (c (1 - b))): by
    this much the unwanted solution outgrows the wanted one, and a backward
    run's error shrinks, at k.  2 asinh(sinh(lam / 2) (k - turn) / sqrt((k + 1)(r + k - 1)))."""
    return 2.0 * np.arcsinh(math.sinh(lam / 2.0) * (k - turn)
                            / (np.sqrt(k + 1.0) * np.sqrt(r + (k - 1.0))))


def _binom_nb_rows(rows, j_max: int, b: float, q: float, c: float, r: float) -> np.ndarray:
    """P(j | i) at j = 0..j_max, the coefficients of the pgf
    q^r u(s)^i v(s)^-(i+r) with u = (1 - b) + (b - c) s, v = 1 - c s, c = 1 - q.

    As u v P' = [i (b - c) v + c (i + r) u] P, each row obeys the recurrence
    (j + 1)(1 - b) p_{j+1} = (A_i + d j) p_j + c (b - c)(r + j - 1) p_{j-1}, with
    A_i = i b q + c r (1 - b) and d = 2c - b(1 + c).  Its wanted solution
    dominates the other one below the turning point j* = A_i / (-d) and is the
    recessive one above it (Gautschi 1967, Olver 1967); where d >= 0, j* is
    infinite.  So the ratios p_{j+1} / p_j are run forward from p_1 / p_0 below
    j* and backward from 0 above it, unless the forward run grows little past
    j* (``_FORWARD_GROWTH``): every term in both runs is positive.  The ratios
    of all rows are carried at once and summed in logs from the exact log p_0,
    so a p_0 that underflows does not zero its row.  O(rows (j_max + 1))
    memory.  Every row needs i + r > 0.
    """
    d = 2.0 * c - b * (1.0 + c)
    u0 = 1.0 - b
    i = np.asarray(rows, dtype=float)
    a = i * (b * q) + c * r * u0  # A_i, i b q being i (b - c + c u0) without cancellation
    logp = np.empty((j_max + 1, i.size))
    logp[0] = -r * math.log1p(c / q) + i * math.log1p(-b)
    if j_max:
        # ratios at j < split run forward, the others backward from 0 at start + 1;
        # splitting at j* + 1/2 keeps A_i + d j, 0 at j*, at least |d| / 2 in both
        split, start = np.full(i.size, float(j_max)), j_max
        if d < 0.0:
            turn = np.minimum(a, -d * j_max) / -d  # j*, at most j_max
            lam = math.log(b - c) - math.log(c) - math.log1p(-b)
            # forward growth past j*, taken as (j_max - j*) gaps at j_max: from k = 2
            # on the gap falls at most 15% below an earlier value; at k = 1 (row 0,
            # small r) it overstates the growth, which is at most lam there
            back = (j_max - turn) * _root_gap(j_max, turn, lam, r) > _FORWARD_GROWTH
            split[back] = np.floor(turn[back] + 0.5)
            decay, slowest = 0.0, turn[back].max(initial=0.0)
            while back.any() and decay < _BACKWARD_DECAY:
                start += 1
                decay += _root_gap(start, slowest, lam, r)
        lo, top = int(split.min()), split.max()
        # e_k = c (b - c)(r + (k - 1)) at k = 0..start for both runs: a small r keeps its digits
        e = c * (b - c) * (r + (np.arange(start + 1.0) - 1.0))
        # forward: (j + 1) u0 p_{j+1} / p_j = A_i + d j + e_j p_{j-1} / p_j
        j = np.arange(j_max, dtype=float)
        inv = 1.0 / (u0 * (j + 1.0))
        tail = (e[:j_max] * inv).tolist()
        rho = logp[1:]  # the p_j terms over (j + 1) u0, then p_{j+1} / p_j
        rho[:] = (d * j)[:, None]
        rho += a
        rho *= inv[:, None]
        step, mask = np.empty(i.size), np.empty(i.size, dtype=bool)
        for k in range(1, int(top)):
            ahead = True if k < lo else np.greater(split, k, out=mask)
            np.divide(tail[k], rho[k - 1], out=step, where=ahead)
            np.add(rho[k], step, out=rho[k], where=ahead)
        # backward: p_k / p_{k-1} = e_k / v_k, with
        # v_k = (k + 1) u0 p_{k+1} / p_k - A_i - d k > 0 above j*
        v = -(a + d * start)
        e = e.tolist()
        for k in range(start, lo, -1):
            behind = True if top < min(k, j_max) else np.less(split, min(k, j_max), out=mask)
            if k <= j_max:
                np.divide(e[k], v, out=rho[k - 1], where=behind)
            np.divide(k * u0 * e[k], v, out=v, where=behind)
            np.subtract(v, d * (k - 1), out=v, where=behind)
            np.subtract(v, a, out=v, where=behind)
        with np.errstate(divide="ignore"):  # a ratio that underflows to 0 zeroes the cells past it
            np.log(rho, out=rho)
    np.cumsum(logp, axis=0, out=logp)
    return np.exp(logp, out=logp).T
