"""Negative binomial primitives.

The negative binomial NB(r, mu) is parameterized by shape r > 0 and mean
mu > 0, with theta = mu / (mu + r) in (0, 1), pmf

    P(X = k) = Gamma(k + r) / (k! Gamma(r)) * (1 - theta)^r theta^k,

and variance mu * (mu / r + 1).  The transition law of the process, a
binomial thinning plus an independent negative binomial count, is evaluated
here as a positive mixture and by the recurrence of its pgf.
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

    @property
    def theta(self) -> float:
        """Success-probability style parameter mu / (mu + r), in (0, 1)."""
        return self.mu / (self.mu + self.r)


def _nb_log_pmf(params: NBParams, k):
    """log P(X = k) at a count or an array of counts, with log q = -log1p(mu/r)
    and log(1 - q) = log theta = -log1p(r/mu): no 1 - theta is formed, so both
    keep their digits at either end of (0, 1)."""
    r, mu = params.r, params.mu
    return (log_gamma(k + r) - log_gamma(k + 1.0) - log_gamma(r)
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
    return rng.poisson(lam)


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


def nb_support_bound(params: NBParams, tol: float) -> int:
    """Smallest K with pmf(K) < tol (1 - max(theta, rho_K)), so P(X >= K) < tol.

    Past the mode the ratio rho_k = pmf(k+1) / pmf(k) = theta (k + r) / (k + 1)
    is < 1 and moves monotonically towards theta, so the tail from K on is
    below pmf(K) / (1 - max(theta, rho_K)).  The condition holds from some K
    past the mode on; K is found by doubling steps and bisection on the log
    pmf, so no pmf value has to be representable as a double.
    """
    r, mu = params.r, params.mu
    log_theta = -math.log1p(r / mu)
    log_base = -r * math.log1p(mu / r) - float(log_gamma(r))
    log_tol = math.log(_check_real(tol, "tol", 0.0, 1.0))

    def below(k: int) -> bool:
        # 1 - max(theta, rho_k) = (r (k+1) + min(0, mu (1-r))) / ((k+1) (mu+r))
        slack = r * (k + 1.0) + min(0.0, mu * (1.0 - r))
        if slack <= 0.0:
            return False
        logp = float(log_gamma(k + r) - log_gamma(k + 1.0)) + log_base + k * log_theta
        return logp < log_tol + math.log(slack / (k + 1.0)) - math.log(mu + r)

    # below(lo) stays false and below(hi) true; lo starts just before the mode
    lo, step = max(0, math.ceil(mu * (r - 1.0) / r - 1.0)) - 1, 1
    while not below(lo + step):
        lo, step = lo + step, 2 * step
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if below(mid) else (mid, hi)
    return hi


def _binom_nb_mixture(rows, cols, b: float, q: float, c: float, r: float) -> np.ndarray:
    """P(j | i) = sum_N Binom(N; i, b) NB(j - N; N + r, q) at rows x cols,
    with NB(k; n, q) = Gamma(k + n) / (Gamma(n) k!) q^n c^k and c = 1 - q given
    apart so it keeps its digits where q is near 1: a b-thinning of i plus an
    independent NB(r, q) count.  Every term is positive, so one matrix product
    is accurate everywhere.  N runs over 0..min(max row, max col): the terms
    past either are 0.  ``_BinomNBPairs`` sums the same terms at given pairs,
    and log Gamma(j + r) - log Gamma(N + r) and log q are formed as there, so
    they keep their digits at large r."""
    i = np.asarray(rows, dtype=float)[:, None]
    j = np.asarray(cols, dtype=float)[None, :]
    n = np.arange(min(i.max(), j.max()) + 1.0)
    nn = n[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_m = log_gamma(i + 1.0) - log_gamma(n + 1.0) - log_gamma(i - n + 1.0) \
            + n * math.log(b) + (i - n) * math.log1p(-b)
        log_k = _log_gamma_shift(j, r) - _log_gamma_shift(nn, r) - log_gamma(j - nn + 1.0) \
            - (nn + r) * math.log1p(c / q) + (j - nn) * math.log(c)
    m = np.where(n <= i, np.exp(log_m), 0.0)
    k = np.where(nn <= j, np.exp(log_k), 0.0)
    return m @ k


# Terms of ``_BinomNBPairs`` formed per numpy pass: a pass holds PAIR_BLOCK to
# twice that many, with a few doubles of temporaries a term (formed at each
# evaluation, a likelihood of 1.4e7 terms peaks at 2.4 MB).  A pass's arrays,
# 128 to 256 KB each, stay in cache: passes of 2^16 terms made one evaluation
# of 5.6e6 terms about 1.6 times slower.
PAIR_BLOCK = 1 << 14
# Terms whose N and log-factorials ``_BinomNBPairs`` builds once and keeps for
# every evaluation, 16 bytes a term (8.4 MB); the blocks past them are formed
# again at each evaluation.
PAIR_TERMS_KEPT = 1 << 19
# exp of an argument below about -708 is subnormal or 0 and some 20 times slower
# to form; a term that far below its pair's largest adds under 1e-304 of it.
_LOG_TINY = -700.0


# From this r on, differences of log Gamma(x + r) and psi(x + r) over x come
# from their asymptotic series, whose first omitted terms are below 1e-18 there.
_R_ASYMPTOTIC = 100.0


def _stirling_tail(z):
    """log Gamma(z) - (z - 1/2) log z + z - log(2 pi) / 2 for z >= 100:
    1/(12z) - 1/(360z^3) + 1/(1260z^5) - 1/(1680z^7)."""
    w = 1.0 / (z * z)
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - w / 1680.0) * w) * w) / z


def _log_gamma_shift(x, r: float):
    """log Gamma(x + r), less a constant in r alone, for x >= 0.

    At large r, log Gamma(x + r) is a large number whose differences over x
    lose their digits.  There it is formed as log Gamma(x + r) - log Gamma(r)
    = (x + r - 1/2) log(1 + x/r) + x (log r - 1) + S(x + r) - S(r), S the
    Stirling remainder; every term but the last is positive.
    """
    if r < _R_ASYMPTOTIC:
        return log_gamma(x + r)
    z = x + r
    return (z - 0.5) * np.log1p(x / r) + x * (math.log(r) - 1.0) \
        + (_stirling_tail(z) - _stirling_tail(r))


def _digamma_shift(x, r: float):
    """psi(x + r), less a constant in r alone, for x >= 0: at large r,
    psi(x + r) - psi(r) from psi(z) = log z - 1/(2z) - 1/(12z^2) + 1/(120z^4)
    - 1/(252z^6), with the first three differences formed without cancelling."""
    if r < _R_ASYMPTOTIC:
        return digamma(x + r)
    z = x + r
    w, v = 1.0 / (z * z), 1.0 / (r * r)
    return np.log1p(x / r) + x / (2.0 * z * r) + x * (z + r) * w * v / 12.0 \
        + ((1.0 / 120.0 - w / 252.0) * w * w - (1.0 / 120.0 - v / 252.0) * v * v)


def _log_terms_n(n, b: float, q: float, c: float, r: float):
    """The parts of log T_N (``_BinomNBPairs``) that vary with N and the
    parameters: N log(b q / ((1 - b) c)) - log Gamma(N + r)."""
    log_q = -math.log1p(c / q)  # keeps its digits where q is near 1
    return n * (math.log(b) - math.log1p(-b) + log_q - math.log(c)) - _log_gamma_shift(n, r)


def _log_terms_pair(i, j, b: float, q: float, c: float, r: float):
    """The parts of log T_N that vary with the pair and the parameters only:
    log Gamma(j + r) + i log(1 - b) + r log q + j log c."""
    return (_log_gamma_shift(j, r) + i * math.log1p(-b) - r * math.log1p(c / q)
            + j * math.log(c))


class _BinomNBPairs:
    """``_binom_nb_mixture`` at given (i, j) pairs: log P(j | i) of each pair,
    and on request the posterior means of N and of psi(N + r), in log space.

    The term of survivor count N <= m = min(i, j), with s = max(i, j), is
        log T_N = log i! - log N! - log (m - N)! - log (s - N)!
                  + log Gamma(j + r) - log Gamma(N + r)
                  + N log(b q / ((1 - b) c)) + i log(1 - b) + r log q + j log c,
    so its log-factorials are the same for every (b, q, c, r): they are read
    from one table built here, over [0, max m] and each pair's [s - m, s].
    log P is the log-sum-exp of the pair's terms, and the derivative of log P
    in any parameter is the mean of its terms' derivatives under the weights
    T_N / P (Fisher's identity), which needs only E[N] and E[psi(N + r)].
    log Gamma and psi are taken less a constant in r (``_log_gamma_shift``,
    ``_digamma_shift``), which cancels from every difference.
    The terms are formed about PAIR_BLOCK at a time, a longer pair in pieces,
    so memory follows the block and the number of pairs.  Each term's N and
    its log-factorials are built here once for the first PAIR_TERMS_KEPT
    terms; an evaluation adds to them only what depends on the parameters.
    Blocks past that budget are built again at each evaluation.  Needs r > 0.
    """

    def __init__(self, i, j):
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        m, s = np.minimum(i, j), np.maximum(i, j)
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
        self.kept = [self._block_terms(p0, p1, minus_log_fact)
                     for p0, p1 in self.blocks[:kept]]

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
        """log P(j | i) of each pair; with ``moments``, also E[N] and
        E[psi(N + r)] under each pair's posterior over N."""
        n = np.arange(self.n_max + 1.0)
        log_t = _log_terms_n(n, b, q, c, r)
        psi = _digamma_shift(n, r) if moments else None
        log_w = log_t - self.log_fact[:n.size]  # for the blocks past the kept ones
        sums = []
        for k, (p0, p1) in enumerate(self.blocks):
            if k < len(self.kept):
                nn, w, start = self.kept[k]
                x = log_t[nn]
                x += w
            else:
                nn, x, start = self._block_terms(p0, p1, log_w)
            top = np.maximum.reduceat(x, start)
            x -= np.repeat(top, self.piece_len[p0:p1])
            np.maximum(x, _LOG_TINY, out=x)
            np.exp(x, out=x)
            block = [top, np.add.reduceat(x, start)]
            if moments:
                block += [np.add.reduceat(x * nn, start), np.add.reduceat(x * psi[nn], start)]
            sums.append(block)
        top, total, *rest = (np.concatenate(parts) for parts in zip(*sums))
        # each pair's pieces, rescaled to the pair's largest term, and the parts
        # of log T_N that are the same for all of a pair's terms
        pair_top = np.maximum.reduceat(top, self.pair_first)
        scale = np.exp(top - pair_top[self.piece_pair])
        total = np.add.reduceat(total * scale, self.pair_first)
        log_p = (pair_top + np.log(total)) + (self.log_fact_i
                                               + _log_terms_pair(self.i, self.j, b, q, c, r))
        if not moments:
            return log_p
        return (log_p, *(np.add.reduceat(part * scale, self.pair_first) / total
                         for part in rest))


def _binom_nb_cell(i: int, j: int, b: float, q: float, c: float, r: float) -> float:
    """P(j | i) of ``_binom_nb_mixture`` at one pair: the terms of
    ``_BinomNBPairs`` with their log-factorials formed directly, O(min(i, j))."""
    m, s = min(i, j), max(i, j)
    n = np.arange(m + 1.0)
    x = _log_terms_n(n, b, q, c, r) - log_gamma(n + 1.0) - log_gamma(m - n + 1.0) \
        - log_gamma(s - n + 1.0)
    top = x.max()
    return math.exp(top + _log_terms_pair(i, j, b, q, c, r) + float(log_gamma(i + 1.0))
                    + math.log(np.exp(np.maximum(x - top, _LOG_TINY)).sum()))


def _binom_nb_rows(rows, j_max: int, b: float, q: float, c: float, r: float) -> np.ndarray:
    """``_binom_nb_mixture`` at j = 0..j_max, the coefficients of the pgf
    q^r u(s)^i v(s)^-(i+r) with u = (1 - b) + (b - c) s, v = 1 - c s, c = 1 - q.

    As u v P' = [i (b - c) v + c (i + r) u] P, each row obeys a three-term
    recurrence in j whose wanted solution grows like c^j and whose other one
    like ((b - c) / (1 - b))^j.  Run forward it is stable exactly when
    d = 2c - b(1 + c) > 0 (Gautschi 1967); there the ratios p_{j+1} / p_j
    of all rows are carried at once and summed in logs from the exact
    log p_0, so a p_0 that underflows does not zero its row.  Elsewhere the
    positive mixture is used.  Every row needs i + r > 0.
    """
    d = 2.0 * c - b * (1.0 + c)
    if d <= 0.0:
        return _binom_nb_mixture(rows, np.arange(j_max + 1), b, q, c, r)
    u0 = 1.0 - b
    i = np.asarray(rows, dtype=float)
    logp = np.empty((j_max + 1, i.size))
    logp[0] = -r * math.log1p(c / q) + i * math.log1p(-b)
    if j_max:
        # (j + 1) u0 p_{j+1} = (i b q + c r u0 + d j) p_j + c (b - c) (r + j - 1) p_{j-1};
        # i b q is i (b - c + c u0) written without cancellation
        j = np.arange(j_max, dtype=float)
        inv = 1.0 / (u0 * (j + 1.0))
        tail = (c * (b - c) * (r + j - 1.0) * inv).tolist()
        rho = logp[1:]  # the p_j terms over (j + 1) u0, then p_{j+1} / p_j
        rho[:] = (d * j)[:, None]
        rho += i * (b * q) + c * r * u0
        rho *= inv[:, None]
        step = np.empty(i.size)
        for k in range(1, j_max):
            np.divide(tail[k], rho[k - 1], out=step)
            rho[k] += step
        np.log(rho, out=rho)
    np.cumsum(logp, axis=0, out=logp)
    return np.exp(logp, out=logp).T
