"""The stationary negative binomial INAR(1) process.

The recursion is X_{t+1} = thin(X_t) + eps_{t+1} where thin applies the
(alpha, mu, r) operator and the innovations are iid NB(r, (1 - alpha) mu).
Started from X_0 ~ NB(r, mu) the process is strictly stationary with NB(r, mu)
marginal, autocorrelation alpha^k, and h-step transition laws in closed form:
``conditional_pgf`` gives their pgf and ``transition_rows`` their
probabilities.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .distributions import (
    ParameterError,
    _binom_nb_cell,
    _binom_nb_rows,
    _check_count,
    _check_counts,
    _check_real,
    nb_sample,
    nb_support_bound,
)
from .thinning import ModelParams, h_fold, odot_sample, odot_sample_array, star_to_odot

__all__ = [
    "Series",
    "TransitionTable",
    "simulate",
    "transition_prob",
    "transition_rows",
    "transition_table",
    "default_max_state",
    "conditional_moments",
    "conditional_pgf",
    "joint_pgf",
    "autocorrelation",
    "ma_sample",
    "read_series",
    "write_series",
]

MAX_STATE = 5000  # largest state of a dense table: (MAX_STATE + 1)^2 doubles, 200 MB
# most cells one ``transition_rows`` call may fill, so a table at MAX_STATE fits
MAX_CELLS = (MAX_STATE + 1) ** 2
# most terms a likelihood may sum, sum of min(i, j) + 1 over its distinct
# transitions (i, j): about 0.15 s an evaluation, and a log-factorial table of
# at most twice as many doubles, 270 MB, next to the 8.4 MB of kept terms
MAX_PAIR_TERMS = 1 << 24


@dataclass
class Series:
    """A time-ordered vector of non-negative integer counts."""

    values: np.ndarray
    meta: dict | None = None

    def __post_init__(self):
        self.values = _check_counts(self.values, "series")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass
class TransitionTable:
    """Dense h-step transition probabilities on states 0..max_state.

    ``tail_mass[i]`` is the probability of leaving the truncation window from
    state i, so each row plus its tail mass sums to one.
    """

    h: int
    max_state: int
    probs: np.ndarray
    tail_mass: np.ndarray = field(init=False)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        self.tail_mass = np.maximum(0.0, 1.0 - self.probs.sum(axis=1))

    def to_csv(self, path) -> None:
        """Write the table with a header row of destination states, row by row.
        Cells are the shortest repr that reads back as the same float, lines
        end in "\r\n" and no field needs quoting, as ``csv.writer`` has it."""
        with open(path, "w", newline="") as fh:
            fh.write(f"from_state,{','.join(map(str, range(self.max_state + 1)))},tail_mass\r\n")
            for i, (row, tail) in enumerate(zip(self.probs, self.tail_mass.tolist())):
                fh.write(f"{i},{','.join(map(repr, row.tolist()))},{tail!r}\r\n")


def simulate(p: ModelParams, n: int, rng: np.random.Generator) -> Series:
    """Simulate n observations of the stationary process.

    X_0 is drawn from the NB(r, mu) marginal.  Each later state inverts the
    closed-form transition law at one uniform u_t,
    X_{t+1} = min{j : P(X_{t+1} <= j | X_t) > u_t}, by bisection in CDF rows
    of ``transition_rows`` on 0..J, J the NB(r, mu) support bound at 1e-12.
    The rows of the last triple simulated are kept for the next call at the
    same triple (``_cdf_rows``), so they stay in memory after this call
    returns: one table at a time, about 160 KB at J = 69 and at most about
    34 MB at TABLE_MAX_STATE.  A step the table cannot invert (X_t > J, or
    u_t at or above the row's CDF at J) extends that row (``_invert_row``),
    so every draw follows the exact law.  Where the table would cost more
    than it saves (``_use_table``), the chain is stepped as
    X_{t+1} = thin(X_t) + eps_{t+1} with eps ~ NB(r, (1 - alpha) mu) iid
    instead.  ``meta`` names the ``sampler`` ("table" or "loop") and counts
    the ``extended_rows``.
    """
    n = _check_count(n, "n", 1)
    x0 = int(nb_sample(p.marginal(), rng))
    J = _support_bound(p)
    if _use_table(J, n):
        cdf = _cdf_rows(p)
        path, state, extended = [x0], x0, 0
        for u in rng.random(n - 1).tolist():
            j = bisect_right(cdf[state], u) if state <= J else J + 1
            if j > J:
                j = _invert_row(p, state, u, J)
                extended += 1
            path.append(j)
            state = j
        x, sampler = np.array(path, dtype=np.int64), "table"
    else:
        a = star_to_odot(p)
        x = np.empty(n, dtype=np.int64)
        x[0] = x0
        eps = nb_sample(p.innovation(), rng, size=n - 1) if n > 1 else ()
        for t in range(1, n):
            x[t] = odot_sample(a.beta, a.theta, int(x[t - 1]), rng) + eps[t - 1]
        sampler, extended = "loop", 0
    meta = {"alpha": p.alpha, "mu": p.mu, "r": p.r, "mode": "stationary",
            "sampler": sampler, "extended_rows": extended}
    return Series(x, meta=meta)


# The table pays for itself once n (loop - bisect) exceeds (J + 1)^2 times the
# cost of a cell.  Measured at nine triples (Xeon, Python 3.11, numpy 2.4): a
# cell costs 0.05-0.2 us to build, a bisect step 0.23-0.47 us and a loop step
# 1.6-3.8 us, so the break-even (J + 1)^2 / n lies between 10 and 49.
# TABLE_MAX_STATE bounds the table's lists to about 34 MB.  The rule counts a
# build in every call, though ``_cdf_rows`` keeps the table for the next call
# at the same triple; it is left so on purpose, since a threshold that knew of
# the kept table would change which sampler runs, and so the series drawn, for
# short n.
TABLE_CELLS_PER_STEP = 16
TABLE_MAX_STATE = 1023


def _use_table(J: int, n: int) -> bool:
    """Whether ``simulate`` inverts a table on 0..J for a series of length n."""
    return J <= TABLE_MAX_STATE and (J + 1) ** 2 <= TABLE_CELLS_PER_STEP * n


@lru_cache(maxsize=1)
def _support_bound(p: ModelParams) -> int:
    """``simulate``'s table bound J: the NB(r, mu) support bound at 1e-12."""
    return nb_support_bound(p.marginal(), 1e-12)


@lru_cache(maxsize=1)
def _cdf_rows(p: ModelParams) -> tuple[tuple[float, ...], ...]:
    """CDF rows of ``transition_rows(p, 0..J, J)`` as tuples, J = ``_support_bound(p)``.

    Only the last triple's table is kept, so a Monte Carlo run, which
    simulates every replicate at one triple, builds it once (once in each
    worker process).  Tuples, because every caller shares the one table.
    """
    J = _support_bound(p)
    cdf = np.cumsum(transition_rows(p, np.arange(J + 1), J), axis=1)
    return tuple(map(tuple, cdf.tolist()))


def _invert_row(p: ModelParams, x: int, u: float, J: int) -> int:
    """min{j : P(X_{t+1} <= j | X_t = x) > u}, from the one-step row of x on
    0..j_max, with j_max doubling from 2 max(J, x) until its CDF passes u.

    The row's rounded total can stay at or below u (u < 1 comes within 2^-53
    of 1).  Once doubling j_max no longer raises that total, the missing mass
    is below its rounding, and the draw is the last state the total grew at.
    """
    j_max, total = 2 * max(J, x), -1.0
    while True:
        cdf = np.cumsum(transition_rows(p, [x], j_max)[0])
        if cdf[-1] > u:
            return int(np.searchsorted(cdf, u, side="right"))
        if cdf[-1] <= total:
            return int(np.searchsorted(cdf, cdf[-1]))
        j_max, total = 2 * j_max, cdf[-1]


def transition_prob(p: ModelParams, i: int, j: int, h: int = 1) -> float:
    """h-step transition probability P(X_{t+h} = j | X_t = i).

    With (b, q) = (beta_h, q_tilde_h) of ``h_fold`` this is the positive sum
    over the N <= min(i, j) survivors of the thinning,
    sum_N Binom(N; i, b) NB(j - N; N + r, q), in O(min(i, j)).
    """
    i = _check_count(i, "i")
    j = _check_count(j, "j")
    hp = h_fold(p, h)
    return _binom_nb_cell(i, j, hp.beta_h, hp.q_tilde_h, hp.qbar_h, p.r)


def transition_rows(p: ModelParams, rows, j_max: int, h: int = 1) -> np.ndarray:
    """Transition probabilities for each origin state in ``rows``, vectorized.

    Row t holds P(X_{t+h} = j | X_t = rows[t]) for j = 0..j_max, from the
    recurrence of the conditional pgf where it is stable (``_binom_nb_rows``).
    At most MAX_CELLS cells, len(rows) * (j_max + 1), are computed; more raise
    ``ParameterError`` before anything is allocated.
    """
    j_max = _check_count(j_max, "j_max")
    rows = _check_counts(rows, "rows")
    cells = rows.size * (j_max + 1)
    if cells > MAX_CELLS:
        raise ParameterError(f"{rows.size} rows on 0..{j_max} are {cells} cells, "
                             f"more than the supported {MAX_CELLS}")
    hp = h_fold(p, h)
    return _binom_nb_rows(rows, j_max, hp.beta_h, hp.q_tilde_h, hp.qbar_h, p.r)


def default_max_state(p: ModelParams) -> int:
    """Default table truncation: twice the NB(r, mu) tail bound at 1e-12,
    capped at MAX_STATE."""
    return min(MAX_STATE, 2 * nb_support_bound(p.marginal(), 1e-12))


def transition_table(p: ModelParams, max_state: int | None = None, h: int = 1) -> TransitionTable:
    """Dense transition table on 0..max_state with declared per-row tail mass."""
    if max_state is None:
        max_state = default_max_state(p)
    max_state = _check_count(max_state, "max_state")
    if max_state > MAX_STATE:
        raise ParameterError(f"max_state {max_state} exceeds the supported bound {MAX_STATE}")
    probs = transition_rows(p, np.arange(max_state + 1), max_state, h)
    return TransitionTable(h=int(h), max_state=max_state, probs=probs)


def conditional_moments(p: ModelParams, x: int, h: int = 1) -> tuple[float, float]:
    """Conditional mean and variance of X_{t+h} given X_t = x.

    mean = alpha^h x + mu (1 - alpha^h);
    var = (2 mu / r + 1) alpha^h (1 - alpha^h) x
          + mu (1 - alpha^h) (1 + (1 - alpha^h) mu / r).
    """
    x = _check_count(x, "x")
    ah = h_fold(p, h).alpha_h
    mean = ah * x + p.mu * (1.0 - ah)
    var = (2.0 * p.mu / p.r + 1.0) * ah * (1.0 - ah) * x \
        + p.mu * (1.0 - ah) * (1.0 + (1.0 - ah) * p.mu / p.r)
    return mean, var


def conditional_pgf(p: ModelParams, x: int, h: int, s: float) -> float:
    """E[s^{X_{t+h}} | X_t = x] in closed form."""
    x = _check_count(x, "x")
    s = _check_real(s, "s", 0.0, 1.0, closed=True)
    hp = h_fold(p, h)
    q = hp.q_tilde_h
    denom = 1.0 - (1.0 - q) * s
    return (1.0 - hp.beta_h * (1.0 - s) / denom) ** x * (q / denom) ** p.r


def joint_pgf(p: ModelParams, s1: float, s2: float) -> float:
    """Joint pgf E[s1^{X_t} s2^{X_{t+1}}] of adjacent states.

    The displayed form is symmetric in (s1, s2): the stationary process is
    time reversible.
    """
    s1 = _check_real(s1, "s1", 0.0, 1.0, closed=True)
    s2 = _check_real(s2, "s2", 0.0, 1.0, closed=True)
    r, mu, alpha = p.r, p.mu, p.alpha
    abar_mu = (1.0 - alpha) * mu
    # group (s1 + s2) and (s1 * s2) so the swap symmetry holds bitwise
    inner = (
        (r + mu) * (r + abar_mu)
        - abar_mu * (r + mu) * (s1 + s2)
        + mu * (abar_mu - r * alpha) * (s1 * s2)
    ) / (r * r)
    return inner ** (-r)


def autocorrelation(p: ModelParams, k: int) -> float:
    """Lag-k autocorrelation alpha^k (k = 0 returns 1)."""
    k = _check_count(k)
    return 1.0 if k == 0 else p.alpha**k


def ma_sample(p: ModelParams, J: int, rng: np.random.Generator, size=None):
    """Draw from the J-truncated moving-average representation.

    Returns sum_{j=0..J} of the (beta_j, theta) operator applied to
    independent innovations (the j = 0 term is the innovation itself);
    as J grows the law converges to the NB(r, mu) marginal.  ``size`` is as
    for ``nb_sample``.
    """
    J = _check_count(J, "J")
    eps_params = p.innovation()
    total = nb_sample(eps_params, rng, size=size)
    for j in range(1, J + 1):
        hp = h_fold(p, j)
        eps = nb_sample(eps_params, rng, size=size)
        if size is None:
            total += odot_sample(hp.beta_h, hp.theta, int(eps), rng)
        else:
            total = total + odot_sample_array(hp.beta_h, hp.theta, eps, rng)
    return total


def write_series(path, series: Series) -> None:
    """Write one integer per line."""
    with open(path, "w") as fh:
        fh.write("\n".join(map(str, series.values.tolist())))
        fh.write("\n")


def _is_plain_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def read_series(path) -> Series:
    """Read a series file: one integer per line, or CSV with a column ``x``."""
    with open(path, newline="") as fh:
        text = fh.read()
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines:
        raise ValueError(f"series file {path} is empty")
    if "," in lines[0] or not _is_plain_int(lines[0]):
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None or "x" not in reader.fieldnames:
            raise ValueError(f"CSV series file {path} must have a column named 'x'")
        values = [int(row["x"]) for row in reader]
    else:
        values = list(map(int, lines))
    return Series(np.asarray(values, dtype=np.int64))
