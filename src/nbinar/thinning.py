"""Expectation thinning operators for the negative binomial INAR(1) model.

Applying the operator to a count x draws x iid copies of a count variable G
with the linear-fractional pgf

    Psi_G(s) = 1 - alpha (1 - s) / (1 + (1 - alpha) mu (1 - s) / r),

and sums them.  An equivalent parameterization uses beta = alpha r /
(r + (1 - alpha) mu) and theta = mu / (mu + r):

    Psi_G(s) = 1 - beta (1 - s) / (1 - (1 - beta) theta s).

G is a mixture: 0 with probability 1 - beta, otherwise a shifted geometric
with success probability 1 - (1 - beta) theta.  Composing the operator h
times stays in the family with parameters (beta_h, theta).  Only ``h_fold``
forms beta_h, q_tilde_h and 1 - q_tilde_h from (alpha, mu, r); every sampler
and closed form reads them from it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import (
    NBParams,
    ParameterError,
    _binom_nb_cell,
    _check_count,
    _check_real,
)

__all__ = [
    "ModelParams",
    "AltParams",
    "HFoldParams",
    "star_to_odot",
    "odot_to_star",
    "odot_pgf",
    "odot_sample",
    "g_pmf",
    "g_pgf",
    "g_central_moments",
    "h_fold",
    "thin_conditional_pmf",
    "thin_sample",
]


@dataclass(frozen=True)
class ModelParams:
    """Process parameters: thinning rate alpha in (0, 1), marginal mean mu > 0,
    shape r > 0."""

    alpha: float
    mu: float
    r: float

    def __post_init__(self):
        attrs = self.__dict__  # the class is frozen: store the checked floats directly
        attrs["alpha"] = _check_real(self.alpha, "alpha", 0.0, 1.0)
        attrs["mu"] = _check_real(self.mu, "mu", 0.0)
        attrs["r"] = _check_real(self.r, "r", 0.0)

    @property
    def theta(self) -> float:
        return self.mu / (self.mu + self.r)

    def marginal(self) -> NBParams:
        """Stationary marginal NB(r, mu)."""
        return NBParams(r=self.r, mu=self.mu)

    def innovation(self) -> NBParams:
        """Innovation law NB(r, (1 - alpha) mu)."""
        return NBParams(r=self.r, mu=(1.0 - self.alpha) * self.mu)


@dataclass(frozen=True)
class AltParams:
    """Operator parameters (beta, theta, r) equivalent to ModelParams."""

    beta: float
    theta: float
    r: float

    def __post_init__(self):
        attrs = self.__dict__  # the class is frozen: store the checked floats directly
        attrs["beta"] = _check_real(self.beta, "beta", 0.0, 1.0)
        attrs["theta"] = _check_real(self.theta, "theta", 0.0, 1.0)
        attrs["r"] = _check_real(self.r, "r", 0.0)


@dataclass(frozen=True)
class HFoldParams:
    """Parameters of the h-fold composed operator.

    Satisfies the bridge identities beta_h = alpha^h * q_tilde_h and
    1 - (1 - beta_h) theta = q_tilde_h.  ``qbar_h`` is 1 - q_tilde_h, formed
    as (1 - alpha^h) mu / (r + (1 - alpha^h) mu) so that it keeps its digits
    where q_tilde_h is near 1.
    """

    h: int
    alpha_h: float
    q_tilde_h: float
    beta_h: float
    theta: float
    qbar_h: float


def star_to_odot(p: ModelParams) -> AltParams:
    """Map (alpha, mu, r) to the equivalent (beta, theta, r), beta from ``h_fold``."""
    return AltParams(h_fold(p, 1).beta_h, p.theta, p.r)


def odot_to_star(a: AltParams) -> ModelParams:
    """Inverse map: alpha = beta / (1 - (1-beta) theta), mu = theta r / (1-theta)."""
    alpha = a.beta / (1.0 - (1.0 - a.beta) * a.theta)
    mu = a.theta * a.r / (1.0 - a.theta)
    return ModelParams(alpha=alpha, mu=mu, r=a.r)


def odot_pgf(beta: float, theta: float, s: float) -> float:
    """pgf of the (beta, theta) operator count: 1 - beta (1-s) / (1 - (1-beta) theta s)."""
    s = _check_real(s, "s", 0.0, 1.0, closed=True)
    return 1.0 - beta * (1.0 - s) / (1.0 - (1.0 - beta) * theta * s)


def g_pmf(p: ModelParams, k: int) -> float:
    """pmf of the thinning count G.

    P(G = 0) = 1 - beta and P(G = k) = beta q_tilde qbar^(k-1) for k >= 1, with
    (beta, q_tilde, qbar) the (beta_h, q_tilde_h, qbar_h) of ``h_fold`` at h = 1.
    """
    k = _check_count(k)
    hp = h_fold(p, 1)
    if k == 0:
        return 1.0 - hp.beta_h
    return hp.beta_h * hp.q_tilde_h * hp.qbar_h ** (k - 1)


def g_pgf(p: ModelParams, s: float) -> float:
    """pgf of G in the (alpha, mu, r) form."""
    s = _check_real(s, "s", 0.0, 1.0, closed=True)
    return 1.0 - p.alpha * (1.0 - s) / (1.0 + (1.0 - p.alpha) * p.mu * (1.0 - s) / p.r)


def g_central_moments(p: ModelParams) -> tuple[float, float, float, float]:
    """Mean and second/third/fourth central moments of G.

    In t = 1 - s the pgf is 1 - alpha t / (1 + kappa t), with
    kappa = (1 - alpha) mu / r = 1 / q_tilde - 1, so the factorial moments
    are alpha k! kappa^(k-1).  Collected into central moments, every term
    but the Bernoulli(alpha) one of m3 is positive:
        m2 = alpha abar + 2 alpha kappa,
        m3 = alpha abar (1 - 2 alpha) + 6 alpha kappa (abar + kappa),
        m4 = alpha abar (1 - 3 alpha abar) + 2 alpha kappa (1 + 6 abar^2)
             + 12 alpha kappa^2 (1 + 2 abar) + 24 alpha kappa^3,
    where abar = 1 - alpha.  The mean is alpha.
    """
    a, abar = p.alpha, 1.0 - p.alpha
    kappa = abar * p.mu / p.r
    m2 = a * abar + 2.0 * a * kappa
    m3 = a * abar * (1.0 - 2.0 * a) + 6.0 * a * kappa * (abar + kappa)
    m4 = (a * abar * (1.0 - 3.0 * a * abar) + 2.0 * a * kappa * (1.0 + 6.0 * abar * abar)
          + 12.0 * a * kappa * kappa * (1.0 + 2.0 * abar) + 24.0 * a * kappa**3)
    return a, m2, m3, m4


def h_fold(p: ModelParams, h: int) -> HFoldParams:
    """Parameters (alpha^h, q_tilde_h, beta_h, theta) of the h-fold operator.

    beta_h = beta^h (1-theta) / ((1 - (1-beta) theta)^h - beta^h theta); since
    beta = alpha q_tilde and 1 - (1-beta) theta = q_tilde, the quotient
    collapses to alpha^h (1-theta) / (1 - theta alpha^h) = alpha^h q_tilde_h,
    the bridge identity.  beta_h is formed as that product, which keeps its
    digits where theta is near 1 (r << mu).
    """
    hh = _check_count(h, "h", 1)
    alpha_h = p.alpha**hh
    abar_mu = (1.0 - alpha_h) * p.mu
    q_h = p.r / (p.r + abar_mu)
    if q_h < sys.float_info.min:  # the kernel takes log q as -log1p(qbar / q)
        raise ParameterError(f"q_tilde_h = r / (r + (1 - alpha^h) mu) = {q_h!r} at h = {hh} "
                             f"is below the smallest normal double {sys.float_info.min!r}")
    return HFoldParams(h=hh, alpha_h=alpha_h, q_tilde_h=q_h, beta_h=alpha_h * q_h,
                       theta=p.theta, qbar_h=abar_mu / (p.r + abar_mu))


def thin_conditional_pmf(p: ModelParams, x: int, h: int, k: int) -> float:
    """P(h-fold thinning of x equals k).

    Of the x counts, N ~ Binom(x, beta_h) are nonzero, and their total
    exceeds N by an NB(N, q_tilde_h) count, so for k >= 1 this is
    sum_{N=1..min(k,x)} Binom(N; x, beta_h) NB(k - N; N, q_tilde_h), and
    (1 - beta_h)^x at k = 0: the transition kernel at r = 0, fed the same
    (beta_h, q_tilde_h, qbar_h) of ``h_fold``.  At r = 0 the kernel's N = 0
    term is log 0, so k = 0, where it is the only nonzero one, and x = 0 or
    beta_h = 0 (alpha^h underflowed), where it is the only one, are taken apart.
    """
    x = _check_count(x, "x")
    k = _check_count(k, "k")
    hp = h_fold(p, h)
    if k == 0:
        return math.exp(x * math.log1p(-hp.beta_h))
    if x == 0 or hp.beta_h == 0.0:
        return 0.0
    return _binom_nb_cell(x, k, hp.beta_h, hp.q_tilde_h, hp.qbar_h, 0.0)


def odot_sample(beta: float, q: float, x: int, rng: np.random.Generator) -> int:
    """Apply the operator with (beta_h, q_tilde_h) = (beta, q) of ``h_fold`` to
    the count x: Binomial(x, beta) contributors are nonzero, and their total
    exceeds that count by a NegBinomial(count, q) number of extras."""
    if x == 0:
        return 0
    n = int(rng.binomial(x, beta))
    if n == 0:
        return 0
    return n + int(rng.negative_binomial(n, q))


def odot_sample_array(beta: float, q: float, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized ``odot_sample`` over an array of counts."""
    x = np.asarray(x)
    n = rng.binomial(x, beta)
    out = n.astype(np.int64)
    mask = out > 0
    if mask.any():
        out[mask] += rng.negative_binomial(n[mask], q)
    return out


def thin_sample(p: ModelParams, x: int, rng: np.random.Generator) -> int:
    """Draw the thinning of x, distributed as a sum of x iid copies of G."""
    x = _check_count(x, "x")
    hp = h_fold(p, 1)
    return odot_sample(hp.beta_h, hp.q_tilde_h, x, rng)
