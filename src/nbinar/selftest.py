"""Fast invariant suites behind ``nbinar selftest``.

Every check is an exact identity or a fixed-seed statistical bound evaluated
at a small parameter grid; the whole run takes seconds.  ``SUITES`` is the
only implementation of each invariant it names: the acceptance tests run
their suite from it.  ``mutate=True`` runs only the functional-equation
suite, with its residual deliberately corrupted, to demonstrate that the run
can fail.
"""

from __future__ import annotations

import sys

import numpy as np

from .distributions import (
    NBParams,
    nb_central_moments,
    nb_pgf,
    nb_pmf_vector,
    nb_sample,
    nb_support_bound,
)
from .estimation import predicted_cov
from .process import simulate, transition_prob, transition_rows, transition_table
from .thinning import (
    AltParams,
    ModelParams,
    g_central_moments,
    g_pgf,
    g_pmf,
    h_fold,
    odot_pgf,
    odot_to_star,
    star_to_odot,
    thin_conditional_pmf,
    thin_sample,
)

__all__ = ["PARAM_GRID", "S_GRID", "SUITES", "tv_to_pmf", "run_selftest"]

PARAM_GRID = (
    ModelParams(alpha=0.3, mu=1.5, r=0.8),
    ModelParams(alpha=0.5, mu=2.0, r=1.0),
    ModelParams(alpha=0.7, mu=4.0, r=2.5),
)

# the hand triple: q_tilde = 0.5, beta = 0.25, theta = 2/3, P(1 | 1) = 1/4
P_HAND = PARAM_GRID[1]

# every alpha of PARAM_GRID with every (mu, r) of it
VARIANCE_GRID = tuple(ModelParams(a.alpha, b.mu, b.r) for a in PARAM_GRID for b in PARAM_GRID)

S_GRID = np.linspace(0.0, 1.0, 21)

# (x, h) of the thinning-normalization sums: each x in (0, 1, 5, 20) at
# h in (1, 5), and the hand-picked (3, 1) and (7, 2)
THIN_CASES = tuple((x, h) for h in (1, 5) for x in (0, 1, 5, 20)) + ((3, 1), (7, 2))

SAMPLER_SEED = 20250815

# simulate's sampler -> (series count, length) that takes it at P_HAND: one
# long series inverts the transition table, short ones keep the step loop
SIMULATE_RUNS = {"table": (1, 200_000), "loop": (1000, 200)}


def tv_to_pmf(values, pmf: np.ndarray) -> float:
    """Total variation distance between the empirical law of ``values`` and a
    pmf given on the window {0, ..., len(pmf)-1}, with the two tail masses
    compared as a single bucket."""
    values = np.asarray(values)
    kmax = len(pmf) - 1
    counts = np.bincount(np.minimum(values, kmax + 1), minlength=kmax + 2)
    freq = counts / values.size
    tail_p = max(0.0, 1.0 - float(np.sum(pmf)))
    inner = float(np.abs(freq[: kmax + 1] - pmf).sum())
    return 0.5 * (inner + abs(freq[kmax + 1] - tail_p))


def _worst(*values) -> float:
    """The largest of ``values``, or NaN if any is NaN (where ``max`` would
    drop a NaN that does not come first), so a NaN residual fails its bound."""
    return float(np.max(values))


def _functional_equation(mutate: bool = False):
    worst = 0.0
    for p in PARAM_GRID:
        marginal, innovation = p.marginal(), p.innovation()
        for s in S_GRID:
            lhs = nb_pgf(marginal, s)
            rhs = nb_pgf(marginal, g_pgf(p, s)) * nb_pgf(innovation, s)
            worst = _worst(worst, abs(lhs - rhs))
    if mutate:
        worst += 1e-6
    return worst <= 1e-12, f"max residual {worst:.3e} (tolerance 1e-12)"


def _operator_equivalence():
    worst = 0.0
    for p in PARAM_GRID:
        a = star_to_odot(p)
        for s in S_GRID:
            worst = _worst(worst, abs(g_pgf(p, s) - odot_pgf(a.beta, a.theta, s)))
    return worst <= 1e-14, f"max pgf-form gap {worst:.3e}"


def _round_trip():
    worst = 0.0
    for p in PARAM_GRID:
        back = odot_to_star(star_to_odot(p))
        worst = _worst(worst, abs(back.alpha - p.alpha), abs(back.mu - p.mu) / p.mu)
    return worst <= 1e-14, f"max round-trip error {worst:.3e}"


def _h_fold_identities():
    worst_bridge = 0.0
    worst_semi = 0.0
    for p in PARAM_GRID:
        a = star_to_odot(p)
        for h in range(1, 8):
            hp = h_fold(p, h)
            # the paper's (beta, theta) forms, against h_fold's (alpha, mu, r) ones
            beta_form = a.beta**h * (1.0 - a.theta) / ((1.0 - (1.0 - a.beta) * a.theta)**h
                                                        - a.beta**h * a.theta)
            back = odot_to_star(AltParams(hp.beta_h, hp.theta, p.r))
            for got, want in ((hp.beta_h, beta_form),
                              (back.alpha, p.alpha**h),
                              (back.mu, p.mu),
                              (1.0 - (1.0 - hp.beta_h) * hp.theta, hp.q_tilde_h)):
                worst_bridge = _worst(worst_bridge, abs(got - want) / want)
            for s in S_GRID:
                composed = s
                for _ in range(h):
                    composed = odot_pgf(a.beta, a.theta, composed)
                worst_semi = _worst(worst_semi, abs(odot_pgf(hp.beta_h, hp.theta, s) - composed))
    ok = worst_bridge <= 1e-13 and worst_semi <= 1e-12
    return ok, (f"relative bridge {worst_bridge:.3e} (tolerance 1e-13), "
                f"semigroup {worst_semi:.3e} (tolerance 1e-12)")


def _thin_normalization():
    worst = 0.0
    for p in PARAM_GRID:
        for x, h in THIN_CASES:
            total = sum(thin_conditional_pmf(p, x, h, k) for k in range(500))
            worst = _worst(worst, abs(total - 1.0))
    return worst <= 1e-10, f"max |sum - 1| = {worst:.3e}"


def _transition_invariants():
    gap_hand = abs(transition_prob(P_HAND, 1, 1, 1) - 0.25)
    tail = _worst(*(float(transition_table(p, None, h).tail_mass[:21].max())
                    for p in PARAM_GRID for h in (1, 2, 5)))
    # square the one-step law on a buffered window so intermediate states
    # beyond J do not leak out of the product, then crop
    table1 = transition_table(P_HAND, 180, 1)
    table2 = transition_table(P_HAND, 80, 2)
    square = (table1.probs @ table1.probs)[:81, :81]
    ck = float(np.abs(table2.probs - square).max())
    pi = nb_pmf_vector(P_HAND.marginal(), table1.max_state)
    resid = float(np.abs(pi @ table1.probs - pi).max())
    ok = gap_hand <= 1e-14 and tail <= 1e-9 and ck <= 1e-8 and resid <= 1e-8
    return ok, (f"p11 gap {gap_hand:.3e}; max tail {tail:.3e}; "
                f"Chapman-Kolmogorov {ck:.3e}; stationary residual {resid:.3e}")


def _moment_consistency():
    worst = 0.0
    for p in PARAM_GRID:
        marginal = p.marginal()
        kmax = nb_support_bound(marginal, 1e-18)
        k = np.arange(kmax + 1, dtype=float)
        pmf = nb_pmf_vector(marginal, kmax)
        mean = float(k @ pmf)
        brute = [mean] + [float(((k - mean) ** m) @ pmf) for m in (2, 3, 4)]
        closed = nb_central_moments(marginal)
        for b, c in zip(brute, closed):
            worst = _worst(worst, abs(b - c) / abs(c))

        gmean, gm2, gm3, gm4 = g_central_moments(p)
        ks = np.arange(200, dtype=float)
        gpmf = np.array([g_pmf(p, int(i)) for i in range(200)])
        bmean = float(ks @ gpmf)
        gbrute = [bmean] + [float(((ks - bmean) ** m) @ gpmf) for m in (2, 3, 4)]
        for b, c in zip(gbrute, (gmean, gm2, gm3, gm4)):
            worst = _worst(worst, abs(b - c) / abs(c))
    return worst <= 1e-10, f"max relative moment gap {worst:.3e}"


def _variance_split(p: ModelParams) -> tuple[float, float]:
    """(mu sigma_G^2 + sigma_eps^2, sigma^2) from the closed-form moments."""
    split = p.mu * g_central_moments(p)[1] + nb_central_moments(p.innovation())[1]
    return split, nb_central_moments(p.marginal())[1]


def _variance_identity():
    worst = 0.0
    for p in VARIANCE_GRID:
        split, s2 = _variance_split(p)
        target = (1.0 - p.alpha**2) * s2
        worst = _worst(worst, abs(split - target) / target)
    split, s2 = _variance_split(P_HAND)
    separation = abs(split - P_HAND.alpha * (1.0 - P_HAND.alpha) * s2)
    ok = worst <= 1e-12 and separation > 0.1
    return ok, f"identity residual {worst:.3e}, alternative-form gap {separation:.3f}"


def _covariance_structure():
    worst = 0.0
    min_diag = np.inf
    for p in PARAM_GRID:
        cov = predicted_cov(p)
        for mat in (cov.sigma_means, cov.sigma_alpha_mu, cov.sigma_vars):
            gap = np.abs(mat - mat.T)
            rel = np.divide(gap, np.abs(mat.T), out=np.zeros_like(gap), where=gap != 0)
            worst = _worst(worst, float(rel.max()))
            min_diag = float(np.min([min_diag, *np.diag(mat)]))
    ok = worst <= 1e-12 and min_diag >= 0.0
    return ok, (f"max relative asymmetry {worst:.3e} (tolerance 1e-12), "
                f"min diagonal {min_diag:.3e}")


def _simulate_law(sampler: str) -> tuple[bool, float, float]:
    """Whether every series took ``sampler``, the TV of the pooled marginal
    against NB(r, mu), and the largest TV of the one-step law from states 0-3
    against ``transition_rows``."""
    count, n = SIMULATE_RUNS[sampler]
    rng = np.random.default_rng(SAMPLER_SEED)
    runs = [simulate(P_HAND, n, rng) for _ in range(count)]
    x = np.concatenate([s.values for s in runs])
    origin = np.concatenate([s.values[:-1] for s in runs])
    dest = np.concatenate([s.values[1:] for s in runs])
    kmax = max(60, int(x.max()))
    tv_marginal = tv_to_pmf(x, nb_pmf_vector(P_HAND.marginal(), kmax))
    rows = transition_rows(P_HAND, np.arange(4), kmax)
    tv_step = _worst(*(tv_to_pmf(dest[origin == i], rows[i]) for i in range(4)))
    return all(s.meta["sampler"] == sampler for s in runs), tv_marginal, tv_step


def _sampler_law():
    nb = NBParams(r=1.0, mu=2.0)
    rng = np.random.default_rng(SAMPLER_SEED)
    draws = nb_sample(nb, rng, size=200_000)
    tv_nb = tv_to_pmf(draws, nb_pmf_vector(nb, max(60, int(draws.max()))))

    # thinning draws both continuing the marginal's stream and from a fresh one
    tv_thin = 0.0
    for stream in (rng, np.random.default_rng(SAMPLER_SEED)):
        thin = np.array([thin_sample(P_HAND, 3, stream) for _ in range(200_000)])
        kmax = max(39, int(thin.max()))
        pmf = np.array([thin_conditional_pmf(P_HAND, 3, 1, k) for k in range(kmax + 1)])
        tv_thin = _worst(tv_thin, tv_to_pmf(thin, pmf))
    ok = tv_nb < 0.01 and tv_thin < 0.01
    detail = f"TV(marginal) {tv_nb:.4f}, max TV(thinning) {tv_thin:.4f}"
    for sampler in SIMULATE_RUNS:
        took, tv_marginal, tv_step = _simulate_law(sampler)
        ok = ok and took and tv_marginal < 0.01 and tv_step < 0.025
        detail += (f"; simulate {sampler}{'' if took else ' (not taken)'}: "
                   f"TV(marginal) {tv_marginal:.4f}, max TV(step from 0-3) {tv_step:.4f}")
    return ok, detail


# name -> suite; each suite returns (passed, detail line with its margins)
SUITES = {
    "functional-equation": _functional_equation,
    "operator-pgf-equivalence": _operator_equivalence,
    "reparameterization-round-trip": _round_trip,
    "h-fold-bridge-and-semigroup": _h_fold_identities,
    "thinning-pmf-normalization": _thin_normalization,
    "transition-law": _transition_invariants,
    "moment-consistency": _moment_consistency,
    "stationary-variance-identity": _variance_identity,
    "covariance-structure": _covariance_structure,
    "sampler-law": _sampler_law,
}


def run_selftest(mutate: bool = False, stream=None) -> bool:
    """Run every suite, print one PASS/FAIL line each, return overall success.
    With ``mutate`` only the corrupted functional-equation suite runs."""
    stream = stream or sys.stdout
    suites = ({"functional-equation": lambda: _functional_equation(mutate=True)}
              if mutate else SUITES)
    failures = []
    for name, suite in suites.items():
        ok, detail = suite()
        if not ok:
            failures.append(name)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=stream)
    if failures:
        print(f"selftest: FAILED suites: {', '.join(failures)}", file=stream)
    else:
        print(f"selftest: all {len(suites)} suites passed", file=stream)
    return not failures
