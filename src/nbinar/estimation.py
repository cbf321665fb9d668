"""Estimators for the negative binomial INAR(1) model.

Conditional least squares for the mean pair (alpha, mu_eps), Yule-Walker
moment matching, a second-stage least squares pass on squared residuals for
(sigma_G^2, sigma_eps^2) with derived sigma^2 and r estimators, and
conditional maximum likelihood by Newton's method on the exact score and
observed information.  Both least squares stages are one regression on
(X_{t-1}, 1), and their predicted asymptotic covariance matrices are one
sandwich; Yule-Walker shares the mean-pair matrix.  The likelihood, its score
and its Hessian are evaluated only at the distinct observed transitions
(``distributions._BinomNBPairs``); the likelihood fit has no predicted
covariance.

Sum-index convention: for a series of length m the first observation is the
conditioning value X_0 and the regression sums run over the n = m - 1
transitions.  Yule-Walker uses the full-series mean and reports effective
sample size m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ParameterError, _BinomNBPairs, _check_real, nb_central_moments
from .process import Series
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
    Newton steps taken and ``n_eval`` the likelihood evaluations;
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


def _evaluate(pairs: _BinomNBPairs, p: ModelParams, score: bool):
    """The log-likelihood of a path's transitions (``_BinomNBPairs.from_path``)
    at p, with ``score`` its gradient and Hessian in t = (logit alpha, log mu,
    log r) (else None, None), and the number of transitions whose log P is
    not finite.

    With D = r + (1 - alpha) mu, q = r / D and c = (1 - alpha) mu / D, the
    term of survivor count N of a transition (i, j) is, less data-only parts,
        log T_N = N L + (i + j) log(1 - alpha) + i log(r + mu) + j log mu
                  - (i + j) log D + r log q + log Gamma(j + r) - log Gamma(N + r),
    L = log alpha - 2 log(1 - alpha) + 2 log r - log(r + mu) - log mu, linear
    in N and psi(N + r) with the gradients dL and -r e_3 (e_3 the log r axis).
    log P's gradient is the posterior mean of the terms' gradients (Fisher's
    identity), and its Hessian the posterior mean of their Hessians plus the
    posterior covariance of their gradients (Louis 1982):
        Var(N) dL dL' - r Cov(N, psi) (dL e_3' + e_3 dL') + r^2 Var(psi) e_3 e_3'.
    Summed over the transitions, these need only the sums of psi(j + r),
    psi'(j + r), E[N], E[psi], E[psi'] and the three posterior (co)variances,
    which the kernel forms about each piece's own means.
    """
    hp = h_fold(p, 1)
    q, c, r, alpha, mu = hp.q_tilde_h, hp.qbar_h, p.r, p.alpha, p.mu
    if not score:
        log_p = pairs.log_prob(hp.beta_h, q, c, r)
    else:
        log_p, *moments = pairs.log_prob(hp.beta_h, q, c, r, moments=True)
    counts = pairs.counts
    value = float(counts @ log_p)
    n_nonfinite = int(counts[~np.isfinite(log_p)].sum())
    if not score:
        return value, None, None, n_nonfinite
    e_n, e_psi, var_n, cov_n_psi, var_psi, e_psi1, psi_j, psi1_j = (counts @ m for m in moments)
    n, n_i, n_j = counts.sum(), counts @ pairs.i, counts @ pairs.j
    # the sums of psi(j + r) - E[psi(N + r)] and of psi'(j + r) - E[psi'(N + r)]
    psi_gap, psi1_gap = psi_j - e_psi, psi1_j - e_psi1
    abar, rho, rho_r = 1.0 - alpha, mu / (r + mu), r / (r + mu)
    log_q = -math.log1p(c / q)
    d_l = np.array([1.0 + alpha, -1.0 - rho, 1.0 + rho])
    d_log_q = np.array([alpha * c, -c, c])  # = e_3 - d log D
    grad = (e_n * d_l + (n_i + n_j) * np.array([-alpha * q, -c, -q])
            + [0.0, n_i * rho + n_j, n_i * rho_r] + n * r * d_log_q
            + [0.0, 0.0, r * (n * log_q + psi_gap)])
    # Hessians of log D, of L and log(r + mu) (both along the (log mu, log r) skew),
    # and the posterior covariance of the terms' gradients
    d_log_d = np.array([-alpha * c, c, q])
    hess_log_d = np.array([[-(1.0 - 2.0 * alpha) * alpha * c, -alpha * c, 0.0],
                           [-alpha * c, c, 0.0],
                           [0.0, 0.0, q]]) - np.outer(d_log_d, d_log_d)
    skew = np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]])
    d_psi = np.array([0.0, 0.0, -r])
    hess = ((e_n - n_i) * rho * rho_r * skew - (n_i + n_j + n * r) * hess_log_d
            + var_n * np.outer(d_l, d_l) + var_psi * np.outer(d_psi, d_psi)
            + cov_n_psi * (np.outer(d_l, d_psi) + np.outer(d_psi, d_l)))
    hess[0, 0] += alpha * abar * (e_n - n_i - n_j)
    hess[2] += n * r * d_log_q
    hess[:, 2] += n * r * d_log_q
    hess[2, 2] += r * (n * log_q + psi_gap) + r * r * psi1_gap
    return value, grad, hess, n_nonfinite


def loglik(series: Series, p: ModelParams) -> float:
    """Conditional log-likelihood given X_0: sum of log one-step transition
    probabilities, each summed in log space over the distinct transitions."""
    return _evaluate(_BinomNBPairs.from_path(series.values), p, False)[0]


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
# Newton steps a CML search takes at most: the tests' and the benchmark's fits
# take 2 to 5 where the optimum lies inside the box, and about 30 where the
# likelihood rises to a face, as it flattens like exp(-|t|)
_NEWTON_STEPS = 100
# the search stops once the Newton decrement g' (-H)^-1 g, twice the gain its
# quadratic model predicts, is at most this times |loglik|; the likelihood's
# own rounding is some 1e-15 of it
_DECREMENT_TOL = 2e-12


def _box_params(t) -> ModelParams:
    """The parameters at t = (logit alpha, log mu, log r)."""
    return ModelParams(alpha=1.0 / (1.0 + math.exp(-t[0])), mu=math.exp(t[1]),
                       r=math.exp(t[2]))


def _damped_step(grad, neg_hess, lam: float, floor: float):
    """The Levenberg step (-H + lam I)^-1 g, with lam raised from the one given,
    doubling from at least ``floor``, until -H + lam I is positive definite,
    and where it had to be raised, doubled once more: then the smallest
    eigenvalue of -H + lam I exceeds the size of -H's most negative one, and
    the step stays short along a direction of negative curvature.  Returns
    (step, lam)."""
    raised = False
    while True:
        try:
            np.linalg.cholesky(neg_hess + lam * np.eye(grad.size))
        except np.linalg.LinAlgError:
            lam, raised = max(2.0 * lam, floor), True
            continue
        if raised:
            lam *= 2.0
        return np.linalg.solve(neg_hess + lam * np.eye(grad.size), grad), lam


def _newton(evaluate, t, point):
    """Projected, damped Newton ascent on the log-likelihood in the box
    |t| <= _SEARCH_BOX from t, where ``point`` = (value, grad, hess, _) was
    evaluated.  A coordinate on a face of the box whose score points out of
    it is held (Bertsekas 1982); the others take the Newton step, damped
    (Levenberg) until -H is positive definite and until the likelihood rises.
    Once a step has been taken, the search stops at the first point whose
    Newton decrement g' (-H)^-1 g is at most _DECREMENT_TOL |loglik|.
    Returns (t, point, steps, decrement), with decrement None where the
    search stopped before that rule held."""
    def finite(point):
        return np.isfinite(point[1]).all() and np.isfinite(point[2]).all()

    value, grad, hess, _ = point
    if not finite(point):
        return t, point, 0, None
    for steps in range(_NEWTON_STEPS + 1):
        free = ~((np.abs(t) >= _SEARCH_BOX) & (t * grad > 0.0))
        g, neg_hess = grad[free], -hess[np.ix_(free, free)]
        # the damping's scale: the curvature, or the slope where -H is 0.  A
        # flat direction can leave -H singular to rounding: the decrement
        # counts where -H + lam I is positive definite at lam = 1e-10 scale
        scale = max(np.abs(np.diag(neg_hess)).max(initial=0.0), np.abs(g).max(initial=0.0))
        step, lam = _damped_step(g, neg_hess, 0.0, 1e-10 * scale)
        decrement = float(g @ step) if lam <= 2e-10 * scale else math.inf
        done = decrement <= _DECREMENT_TOL * abs(value)
        if (done and steps) or decrement == 0.0 or steps == _NEWTON_STEPS:
            break
        # damp the step until the likelihood rises; where a step too short to
        # move t does not, or none does from a start that meets the rule, stop
        while True:
            trial = t.copy()
            trial[free] = np.clip(t[free] + step, -_SEARCH_BOX, _SEARCH_BOX)
            if np.array_equal(trial, t):
                return t, point, steps, decrement if done else None
            trial_point = evaluate(trial)
            if trial_point[0] > value and finite(trial_point):
                break
            if done:
                return t, point, steps, decrement
            step, lam = _damped_step(g, neg_hess, max(10.0 * lam, 1e-3 * scale), 0.0)
        t, point = trial, trial_point
        value, grad, hess, _ = point
    return t, point, steps, decrement if done else None


def cml_fit(series: Series, init: ModelParams | None = None) -> CmlFit:
    """Maximize the conditional log-likelihood by Newton's method on its exact
    score and observed information over (logit alpha, log mu, log r),
    bounded to the box |t| <= 30.

    The default start is the Yule-Walker alpha (clipped to (0.01, 0.99)) and
    mu, with r from the moment estimator clipped positive; degenerate series
    fall back to (0.5, series mean, 1).  Each step is the Newton step on the
    coordinates not held at a face of the box, damped (Levenberg) until the
    Hessian's negative is positive definite and the likelihood rises.  The
    fit converges where, after at least one step and within 100, it reaches a
    point inside the box whose Newton decrement g' (-H)^-1 g is at most
    2e-12 |loglik|: the quadratic model there leaves less than 1e-12 |loglik|
    to gain.  Where the likelihood still rises towards the box edge in a
    coordinate, the fit moves there, and an estimate on the edge is reported
    as not converged.  ``n_eval`` counts the likelihood evaluations and
    ``n_iter`` the Newton steps.
    """
    pairs = _BinomNBPairs.from_path(series.values)
    if init is None:
        init = _auto_init(series)
    n_eval = n_iter = 0

    def evaluate(t, score=True):
        nonlocal n_eval
        n_eval += 1
        return _evaluate(pairs, _box_params(t), score)

    def fit(t):
        nonlocal n_iter
        t, point, steps, decrement = _newton(evaluate, t, evaluate(t))
        n_iter += steps
        return t, point, decrement

    t, point, decrement = fit(np.clip([math.log(init.alpha / (1.0 - init.alpha)),
                                       math.log(init.mu), math.log(init.r)],
                                      -_SEARCH_BOX, _SEARCH_BOX))
    # Where the likelihood rises towards a face of the box (alpha -> 0 or 1,
    # r -> infinity, ...), its score in t fades like exp(-|t|) and the fit stops
    # short of the face: try each coordinate's face on the rising side, and fit
    # again from the best that is no lower.
    for _ in range(3):
        faces = []
        for k in np.flatnonzero(point[1]):
            face = t.copy()
            face[k] = math.copysign(_SEARCH_BOX, point[1][k])
            if face[k] != t[k]:
                faces.append((evaluate(face, score=False)[0], k, face))
        best = max(faces, default=None)
        if best is None or best[0] < point[0]:
            break
        t, point, decrement = fit(best[2])
    converged = decrement is not None
    if converged:
        message = (f"the Newton decrement {decrement:.3g} is at most "
                   f"{_DECREMENT_TOL:g} |loglik|")
    else:
        message = (f"the Newton search stopped without meeting its rule, decrement "
                   f"<= {_DECREMENT_TOL:g} |loglik|, within {_NEWTON_STEPS} steps")
    if np.any(np.abs(t) >= _SEARCH_BOX):
        converged = False
        message = (f"the likelihood rises to the box edge at (logit alpha, log mu, "
                   f"log r) = {t.tolist()}: the optimum lies outside the search "
                   f"box |t| <= {_SEARCH_BOX:g}")
    return CmlFit(params=_box_params(t), loglik=point[0], n_iter=n_iter,
                  n_eval=n_eval, converged=converged, n_underflow=point[3],
                  message=message, init=init)
