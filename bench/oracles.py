"""Reference computations the benchmark checks the program against.

None of this calls ``nbinar``.  The transition law is assembled from
``scipy.stats`` distributions, the h-step law from Chapman-Kolmogorov
products of the one-step law, and the regressions from
``numpy.linalg.lstsq`` and the direct moment formulas.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats


def operator_params(alpha: float, mu: float, r: float) -> tuple[float, float, float]:
    """(beta, q, innovation success probability) of the one-step law."""
    theta = mu / (mu + r)
    beta = alpha * r / (r + (1.0 - alpha) * mu)
    q = 1.0 - (1.0 - beta) * theta
    return beta, q, r / (r + (1.0 - alpha) * mu)


def transition_rows(alpha: float, mu: float, r: float, rows, j_max: int) -> np.ndarray:
    """P(X_1 = j | X_0 = i) for i in ``rows`` and j = 0..j_max.

    P(j | i) = sum_k T(k | i) e(j - k), where the thinning law is
    T(k | i) = sum_N Binom(N; i, beta) NB(k - N; N, q) (N survivors, each
    bringing a geometric number of extras) and e is the NB(r, (1-alpha) mu)
    innovation pmf.
    """
    beta, q, p_eps = operator_params(alpha, mu, r)
    rows = np.asarray(rows, dtype=np.int64)
    n = np.arange(int(rows.max()) + 1)
    k = np.arange(j_max + 1)
    extras = np.zeros((n.size, k.size))
    extras[0, 0] = 1.0
    if n.size > 1:
        extras[1:] = stats.nbinom.pmf(k[None, :] - n[1:, None], n[1:, None], q)
    survivors = stats.binom.pmf(n[None, :], rows[:, None], beta)
    thin = survivors @ extras
    eps = stats.nbinom.pmf(k, r, p_eps)
    return np.array([np.convolve(row, eps)[: k.size] for row in thin])


def transition_rows_h(alpha: float, mu: float, r: float, rows, j_max: int,
                      h: int, inner: int) -> np.ndarray:
    """h-step rows by Chapman-Kolmogorov, P_h = P_1^h on states 0..inner.

    ``inner`` must be large enough that the chain started from ``rows`` has
    negligible mass beyond it within h - 1 steps.
    """
    full = transition_rows(alpha, mu, r, np.arange(inner + 1), inner)
    out = full[np.asarray(rows)]
    for _ in range(h - 1):
        out = out @ full
    return out[:, : j_max + 1]


def loglik(x: np.ndarray, alpha: float, mu: float, r: float) -> float:
    """Conditional log-likelihood of the series given X_0."""
    pairs, counts = np.unique(np.stack([x[:-1], x[1:]], axis=1), axis=0,
                              return_counts=True)
    rows, row_of = np.unique(pairs[:, 0], return_inverse=True)
    probs = transition_rows(alpha, mu, r, rows, int(pairs[:, 1].max()))
    return float(counts @ np.log(probs[row_of, pairs[:, 1]]))


def _lstsq_on_lag(x_prev: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    design = np.column_stack([x_prev, np.ones_like(x_prev)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(slope), float(intercept)


def cls(x: np.ndarray) -> dict:
    """Least squares of X_t on (X_{t-1}, 1)."""
    x = np.asarray(x, dtype=float)
    alpha, mu_eps = _lstsq_on_lag(x[:-1], x[1:])
    return {"alpha_hat": alpha, "mu_eps_hat": mu_eps, "mu_hat": mu_eps / (1.0 - alpha)}


def yw(x: np.ndarray) -> dict:
    """Lag-1 sample autocorrelation with the full-series mean."""
    x = np.asarray(x, dtype=float)
    xbar = float(np.mean(x))
    d = x - xbar
    alpha = float(np.sum(d[:-1] * d[1:]) / np.sum(d * d))
    return {"alpha_hat": alpha, "mu_eps_hat": (1.0 - alpha) * xbar, "mu_hat": xbar}


def cls_var(x: np.ndarray) -> dict:
    """Least squares of the squared CLS residuals on (X_{t-1}, 1)."""
    means = cls(x)
    x = np.asarray(x, dtype=float)
    alpha, mu_eps = means["alpha_hat"], means["mu_eps_hat"]
    u2 = (x[1:] - alpha * x[:-1] - mu_eps) ** 2
    sigma_g2, sigma_eps2 = _lstsq_on_lag(x[:-1], u2)
    r_hat = mu_eps**2 / (sigma_eps2 - mu_eps) if sigma_eps2 > mu_eps else math.nan
    return {**means, "sigma_g2_hat": sigma_g2, "sigma_eps2_hat": sigma_eps2,
            "sigma2_hat": (means["mu_hat"] * sigma_g2 + sigma_eps2) / (1.0 - alpha**2),
            "r_hat": r_hat}


def self_check() -> None:
    """The closed form P(X_1 = 1 | X_0 = 1) = 0.25 at (0.5, 2, 1)."""
    value = transition_rows(0.5, 2.0, 1.0, [1], 1)[0, 1]
    if abs(value - 0.25) > 1e-14:
        raise AssertionError(f"oracle P(1 | 1) = {value!r}, expected 0.25")
