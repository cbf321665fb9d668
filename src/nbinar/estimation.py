"""Estimators for the negative binomial INAR(1) model.

Conditional least squares for the mean pair (alpha, mu_eps), Yule-Walker
moment matching, a second-stage least squares pass on squared residuals for
(sigma_G^2, sigma_eps^2) with derived sigma^2 and r estimators, and
conditional maximum likelihood by L-BFGS-B on the exact score.  Both least
squares stages are one regression on (X_{t-1}, 1), and their predicted
asymptotic covariance matrices are one sandwich; Yule-Walker shares the
mean-pair matrix.  The likelihood and its score are evaluated only at the
distinct observed transitions (``distributions._BinomNBPairs``); the
likelihood fit has no predicted covariance.

Sum-index convention: for a series of length m the first observation is the
conditioning value X_0 and the regression sums run over the n = m - 1
transitions.  Yule-Walker uses the full-series mean and reports effective
sample size m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .distributions import (
    ParameterError,
    _BinomNBPairs,
    _check_real,
    _digamma_shift,
    nb_central_moments,
)
from .process import MAX_PAIR_TERMS, Series
from .thinning import ModelParams, g_central_moments, h_fold

__all__ = [
    "DegenerateSeriesError",
    "MeanEstimates",
    "VarianceEstimates",
    "CovMatrices",
    "CmlFit",
    "cls_means",
    "yw_means",
    "cls_variances",
    "predicted_cov",
    "loglik",
    "cml_fit",
]

class DegenerateSeriesError(ValueError):
    """The series admits no well-defined estimator (constant regressor)."""


@dataclass(frozen=True)
class MeanEstimates:
    """Point estimates of (alpha, mu_eps) and the derived mu.

    mu_hat = mu_eps_hat / (1 - alpha_hat); estimates are reported raw and
    unclipped, with ``in_range`` flagging whether they fall in the parameter
    domain (alpha in (0, 1), mu_eps > 0).
    """

    alpha_hat: float
    mu_eps_hat: float
    mu_hat: float
    method: str
    n: int
    in_range: bool


@dataclass(frozen=True)
class VarianceEstimates:
    """Second-stage estimates of (sigma_G^2, sigma_eps^2) and derived values.

    ``sigma2_hat`` is (mu_hat sigma_G^2 + sigma_eps^2) / (1 - alpha^2);
    ``sigma2_hat_formula_a`` is the algebraically equivalent form
    (mu_eps sigma_G^2 + (1 - alpha) sigma_eps^2) / ((1 - alpha)^2 (1 + alpha)),
    reported separately.  ``r_hat`` = mu_eps^2 / (sigma_eps^2 - mu_eps) is
    defined only under overdispersion (sigma_eps^2 > mu_eps); otherwise it is
    NaN and ``r_defined`` is False.  ``means`` holds the (alpha, mu_eps) the
    residuals used and the derived mu: the ``cls_means`` fit, or the known
    values with method "known".
    """

    sigma_g2_hat: float
    sigma_eps2_hat: float
    sigma2_hat: float
    sigma2_hat_formula_a: float
    r_hat: float
    r_defined: bool
    residual_mode: str
    n: int
    means: MeanEstimates


@dataclass(frozen=True)
class CovMatrices:
    """Predicted asymptotic covariance matrices of the sqrt(n)-scaled errors.

    sigma_means for (alpha_hat, mu_eps_hat), sigma_alpha_mu for
    (alpha_hat, mu_hat), sigma_vars for (sigma_G^2_hat, sigma_eps^2_hat).
    """

    sigma_means: np.ndarray
    sigma_alpha_mu: np.ndarray
    sigma_vars: np.ndarray


@dataclass(frozen=True)
class CmlFit:
    """Result of a conditional maximum likelihood fit.  ``n_iter`` counts the
    optimizer's iterations and ``n_eval`` the likelihood evaluations;
    ``n_underflow`` the transitions whose log-probability is not finite at
    the estimate."""

    params: ModelParams
    loglik: float
    n_iter: int
    n_eval: int
    converged: bool
    n_underflow: int
    message: str
    init: ModelParams


def _mean_estimates(alpha, mu_eps, method: str, n: int, mu=None) -> MeanEstimates:
    """MeanEstimates with mu = mu_eps / (1 - alpha) unless given."""
    if mu is None:
        mu = mu_eps / (1.0 - alpha) if alpha != 1.0 else math.nan
    return MeanEstimates(alpha_hat=float(alpha), mu_eps_hat=float(mu_eps),
                         mu_hat=float(mu), method=method, n=n,
                         in_range=(0.0 < alpha < 1.0) and mu_eps > 0.0)


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least squares slope and intercept of y on (x, 1), over n >= 2 pairs.

    slope = (n sum x y - sum x sum y) / (n sum x^2 - (sum x)^2),
    intercept = (sum y - slope sum x) / n.
    """
    n = x.size
    if n < 2:
        raise ParameterError("need at least 3 observations")
    sx, sy = x.sum(), y.sum()
    den = n * (x @ x) - sx * sx
    if den == 0:
        raise DegenerateSeriesError("constant regressor: slope undefined")
    slope = (n * (x @ y) - sx * sy) / den
    return slope, (sy - slope * sx) / n


def cls_means(series: Series) -> MeanEstimates:
    """Least squares fit of X_t on (X_{t-1}, 1): alpha_hat is the slope and
    mu_eps_hat the intercept."""
    x = series.values.astype(float)
    alpha, mu_eps = _ols(x[:-1], x[1:])
    return _mean_estimates(alpha, mu_eps, "cls", x.size - 1)


def yw_means(series: Series) -> MeanEstimates:
    """Moment matching through the lag-1 sample autocorrelation.

    alpha_hat = sum (X_t - xbar)(X_{t+1} - xbar) / sum (X_t - xbar)^2 with the
    mean and denominator over the full series; mu_hat = xbar and
    mu_eps_hat = (1 - alpha_hat) xbar.
    """
    x = series.values.astype(float)
    if x.size < 3:
        raise ParameterError("need at least 3 observations")
    xbar = x.mean()
    d = x - xbar
    den = d @ d
    if den == 0:
        raise DegenerateSeriesError("constant series: zero sample variance")
    alpha = (d[:-1] @ d[1:]) / den
    return _mean_estimates(alpha, (1.0 - alpha) * xbar, "yw", int(x.size), mu=xbar)


def cls_variances(series: Series, *, known_alpha: float | None = None,
                  known_mu_eps: float | None = None) -> VarianceEstimates:
    """Least squares fit of the squared residuals on (X_{t-1}, 1).

    Residuals are U_t = X_t - alpha X_{t-1} - mu_eps with (alpha, mu_eps)
    either estimated by ``cls_means`` (default) or supplied as known values
    in the domain, alpha in (0, 1) and mu_eps > 0, via the keywords, in which
    case the derived quantities use the known values too.  The pair used is
    reported as ``means``.
    """
    if (known_alpha is None) != (known_mu_eps is None):
        raise ParameterError("known_alpha and known_mu_eps must be given together")
    x = series.values.astype(float)
    prev = x[:-1]
    if known_alpha is None:
        means, mode = cls_means(series), "estimated-means"
    else:
        means = _mean_estimates(_check_real(known_alpha, "known_alpha", 0.0, 1.0),
                                _check_real(known_mu_eps, "known_mu_eps", 0.0), "known",
                                prev.size)
        mode = "known-means"
    alpha, mu_eps = means.alpha_hat, means.mu_eps_hat
    sigma_g2, sigma_eps2 = _ols(prev, (x[1:] - alpha * prev - mu_eps) ** 2)

    one_m_a2 = 1.0 - alpha * alpha
    if one_m_a2 != 0.0:
        sigma2 = (means.mu_hat * sigma_g2 + sigma_eps2) / one_m_a2
        sigma2_a = (mu_eps * sigma_g2 + (1.0 - alpha) * sigma_eps2) \
            / ((1.0 - alpha) ** 2 * (1.0 + alpha))
    else:
        sigma2 = sigma2_a = math.nan
    r_defined = sigma_eps2 > mu_eps and mu_eps > 0.0
    r_hat = mu_eps * mu_eps / (sigma_eps2 - mu_eps) if r_defined else math.nan
    return VarianceEstimates(sigma_g2_hat=float(sigma_g2),
                             sigma_eps2_hat=float(sigma_eps2),
                             sigma2_hat=float(sigma2),
                             sigma2_hat_formula_a=float(sigma2_a),
                             r_hat=float(r_hat), r_defined=bool(r_defined),
                             residual_mode=mode, n=prev.size, means=means)


def _sandwich(x_moments: tuple, c2: float, c1: float, c0: float) -> np.ndarray:
    """Asymptotic covariance of the sqrt(n)-scaled least squares (slope,
    intercept) of Y_t on (X_{t-1}, 1) when Var(Y_t | X_{t-1} = x) is
    c2 x^2 + c1 x + c0 (Klimko & Nelson 1978): Phi^{-1} Sigma Phi^{-T} with
    Phi = E[(X, 1)'(X, 1)] and Sigma the same weighted by the variance.

    x_moments is (mu, m2, m3, m4) of X.  The regressor is centred on mu,
    where Phi = diag(m2, 1) and Sigma needs only central moments, and the
    result is sheared back to (X, 1) by [[1, 0], [-mu, 1]].
    """
    mu, m2, m3, m4 = x_moments
    # the variance polynomial in z = x - mu: d2 z^2 + d1 z + d0
    d2, d1, d0 = c2, 2.0 * c2 * mu + c1, (c2 * mu + c1) * mu + c0
    v_zz = d2 * m4 + d1 * m3 + d0 * m2
    v_z = d2 * m3 + d1 * m2
    v_1 = d2 * m2 + d0
    centred = np.array([[v_zz / (m2 * m2), v_z / m2], [v_z / m2, v_1]])
    shear = np.array([[1.0, 0.0], [-mu, 1.0]])
    return shear @ centred @ shear.T


def predicted_cov(p: ModelParams) -> CovMatrices:
    """Predicted asymptotic covariances for the regression estimators.

    Both least squares stages regress on (X_{t-1}, 1), so both are one
    sandwich over the NB(r, mu) marginal, at the conditional variance of
    their response: sigma_G^2 x + sigma_eps^2 for X_t (sigma_means, of
    (alpha_hat, mu_eps_hat)), and
    R(x) = 2 sigma_G^4 x^2 + (m4_G + 4 sigma_G^2 sigma_eps^2 - 3 sigma_G^4) x
           + (m4_eps - sigma_eps^4)
    for the squared residual U_t^2 (sigma_vars, of (sigma_G^2_hat,
    sigma_eps^2_hat)).  sigma_alpha_mu, of (alpha_hat, mu_hat), is
    J sigma_means J' with J = (1-alpha)^{-1} [[1-alpha, 0], [mu, 1]].
    """
    x_moments = nb_central_moments(p.marginal())
    _, sg2, _, g_m4 = g_central_moments(p)
    _, se2, _, e_m4 = nb_central_moments(p.innovation())
    sigma_means = _sandwich(x_moments, 0.0, sg2, se2)
    abar = 1.0 - p.alpha
    jac = np.array([[1.0, 0.0], [p.mu / abar, 1.0 / abar]])
    sigma_vars = _sandwich(x_moments, 2.0 * sg2 * sg2,
                           g_m4 + 4.0 * sg2 * se2 - 3.0 * sg2 * sg2,
                           e_m4 - se2 * se2)
    return CovMatrices(sigma_means=sigma_means,
                       sigma_alpha_mu=jac @ sigma_means @ jac.T,
                       sigma_vars=sigma_vars)


def _pairs(x: np.ndarray) -> tuple[_BinomNBPairs, np.ndarray]:
    """The distinct transitions (i, j) of the series and their counts.  Their
    work, the number of mixture terms an evaluation sums, is checked against
    MAX_PAIR_TERMS before anything of that size is built."""
    if x.size < 2:
        raise ParameterError("need at least 2 observations")
    pairs, counts = np.unique(np.column_stack([x[:-1], x[1:]]), axis=0, return_counts=True)
    work = int(np.minimum(pairs[:, 0], pairs[:, 1]).sum(dtype=float)) + len(pairs)
    if work > MAX_PAIR_TERMS:
        raise ParameterError(f"the likelihood needs {work} mixture terms, sum of "
                             f"min(i, j) + 1 over the distinct transitions (i, j), "
                             f"above the budget of {MAX_PAIR_TERMS}")
    return _BinomNBPairs(pairs[:, 0], pairs[:, 1]), counts.astype(float)


def _evaluate(pairs: _BinomNBPairs, counts: np.ndarray, p: ModelParams, score: bool):
    """The log-likelihood at p, the number of transitions whose log P is not
    finite and, with ``score``, the gradient in (logit alpha, log mu, log r).

    The one-step law has (b, q, c) = (alpha q, q, 1 - q) with
    q = r / D, D = r + (1 - alpha) mu.  The kernel's posterior means of N and
    psi(N + r) give d log P / d(b, q, c, r), with q and c taken apart:
        E[N] / b - (i - E[N]) / (1 - b),  (E[N] + r) / q,  (j - E[N]) / c,
        psi(j + r) - E[psi(N + r)] + log q,
    and dq / d(alpha, mu, r) = (q mu, -q (1 - alpha), c) / D, dc = -dq,
    db = alpha dq + (q, 0, 0) carry them to (alpha, mu, r).
    """
    hp = h_fold(p, 1)
    b, q, c, r = hp.beta_h, hp.q_tilde_h, hp.qbar_h, p.r
    if not score:
        log_p = pairs.log_prob(b, q, c, r)
    else:
        log_p, mean_n, mean_psi = pairs.log_prob(b, q, c, r, moments=True)
    value = float(counts @ log_p)
    n_nonfinite = int(counts[~np.isfinite(log_p)].sum())
    if not score:
        return value, None, n_nonfinite
    s_b = counts @ (mean_n / b - (pairs.i - mean_n) / (1.0 - b))
    s_qc = counts @ ((mean_n + r) / q - (pairs.j - mean_n) / c)
    s_r = counts @ (_digamma_shift(pairs.j, r) - mean_psi) - counts.sum() * math.log1p(c / q)
    abar = 1.0 - p.alpha
    dq = np.array([q * p.mu, -q * abar, c]) / (r + abar * p.mu)
    grad = s_b * (p.alpha * dq + [q, 0.0, 0.0]) + s_qc * dq + [0.0, 0.0, s_r]
    return value, grad * [p.alpha * abar, p.mu, r], n_nonfinite


def loglik(series: Series, p: ModelParams) -> float:
    """Conditional log-likelihood given X_0: sum of log one-step transition
    probabilities, each summed in log space over the distinct transitions."""
    return _evaluate(*_pairs(series.values), p, False)[0]


def _auto_init(series: Series) -> ModelParams:
    x = series.values.astype(float)
    alpha0, mu0 = 0.5, max(float(x.mean()), 0.1)
    try:
        yw = yw_means(series)
        if math.isfinite(yw.alpha_hat):
            alpha0 = min(max(yw.alpha_hat, 0.01), 0.99)
        if math.isfinite(yw.mu_hat) and yw.mu_hat > 0:
            mu0 = yw.mu_hat
    except DegenerateSeriesError:
        pass
    r0 = 1.0
    try:
        var = cls_variances(series)
        if var.r_defined and math.isfinite(var.r_hat):
            r0 = min(max(var.r_hat, 0.01), 100.0)
    except DegenerateSeriesError:
        pass
    return ModelParams(alpha=alpha0, mu=mu0, r=r0)


# bound on (logit alpha, log mu, log r) in the CML search
_SEARCH_BOX = 30.0


def _box_params(t) -> ModelParams:
    """The parameters at t = (logit alpha, log mu, log r)."""
    return ModelParams(alpha=1.0 / (1.0 + math.exp(-t[0])), mu=math.exp(t[1]),
                       r=math.exp(t[2]))


def cml_fit(series: Series, init: ModelParams | None = None) -> CmlFit:
    """Maximize the conditional log-likelihood by L-BFGS-B on its exact score
    over (logit alpha, log mu, log r), bounded to the box |t| <= 30.

    The default start is the Yule-Walker alpha (clipped to (0.01, 0.99)) and
    mu, with r from the moment estimator clipped positive; degenerate series
    fall back to (0.5, series mean, 1).  Convergence means L-BFGS-B met its
    tolerance (relative change of the likelihood 1e-12, or projected score
    1e-5) within 500 iterations, or stopped in its line search where its
    quasi-Newton model predicts a gain below 1e-12 |loglik|, at a point
    inside the box.  Where the
    likelihood still rises towards the box edge in a coordinate, the fit moves
    there, and an estimate on the edge is reported as not converged.
    ``n_eval`` counts the likelihood evaluations.
    """
    pairs, counts = _pairs(series.values)
    if init is None:
        init = _auto_init(series)
    n_eval = n_iter = 0

    def evaluate(t, score=True):
        nonlocal n_eval
        n_eval += 1
        return _evaluate(pairs, counts, _box_params(t), score)

    def objective(t):
        value, grad, _ = evaluate(t)
        return -value, -grad

    def fit(t):
        nonlocal n_iter
        res = minimize(objective, t, jac=True, method="L-BFGS-B",
                       bounds=[(-_SEARCH_BOX, _SEARCH_BOX)] * 3,
                       options={"ftol": 1e-12, "maxiter": 500})
        n_iter += res.nit
        return res

    res = fit(np.clip([math.log(init.alpha / (1.0 - init.alpha)), math.log(init.mu),
                       math.log(init.r)], -_SEARCH_BOX, _SEARCH_BOX))
    # Where the likelihood rises towards a face of the box (alpha -> 0 or 1,
    # r -> infinity, ...), its score in t fades like exp(-|t|) and the fit stops
    # short of the face: try each coordinate's face on the rising side, and fit
    # again from the best that is no lower.
    for _ in range(3):
        faces = []
        for k in np.flatnonzero(res.jac):
            face = res.x.copy()
            face[k] = -math.copysign(_SEARCH_BOX, res.jac[k])
            if face[k] != res.x[k]:
                faces.append((evaluate(face, score=False)[0], k, face))
        best = max(faces, default=None)
        if best is None or best[0] < -res.fun:
            break
        res = fit(best[2])
    value, _, n_nonfinite = evaluate(res.x, score=False)
    converged, message = bool(res.success), str(res.message)
    # Near the optimum the likelihood's rounding (some 1e-15 of it) can stall
    # the line search: that stop counts when the fit's own quasi-Newton model
    # leaves less than ftol |loglik| to gain.
    if res.status == 2 and res.jac @ res.hess_inv.matvec(res.jac) <= 2e-12 * abs(res.fun):
        converged = True
        message = (f"{message.rstrip(': ')}: the line search stalled where the "
                   f"quasi-Newton model predicts a gain below 1e-12 |loglik|")
    if np.any(np.abs(res.x) >= _SEARCH_BOX):
        converged = False
        message = (f"the likelihood rises to the box edge at (logit alpha, log mu, "
                   f"log r) = {res.x.tolist()}: the optimum lies outside the search "
                   f"box |t| <= {_SEARCH_BOX:g}")
    return CmlFit(params=_box_params(res.x), loglik=value, n_iter=n_iter,
                  n_eval=n_eval, converged=converged, n_underflow=n_nonfinite,
                  message=message, init=init)
