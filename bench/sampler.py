"""NB-INAR(1) sampler owned by the benchmark, independent of ``nbinar.simulate``.

Every benchmark input that is a series comes from here, so a change to the
package's own random stream cannot change what the estimators are timed on.
Only numpy is used.  One step applies the model as it is defined:

    X_t = N + extras + eps,   N ~ Binomial(X_{t-1}, beta),
    extras ~ NegBinomial(N, q),   eps ~ NB(r, (1 - alpha) mu),

with theta = mu / (mu + r), beta = alpha r / (r + (1 - alpha) mu) and
q = 1 - (1 - beta) theta; X_0 is drawn from the NB(r, mu) marginal.
Replicates are stepped in lock step, one vectorised draw per step.
"""

from __future__ import annotations

import numpy as np

# conditioned_paths draws CANDIDATES paths, BATCH at a time, whatever the
# seed, so that its time does not depend on the seed.  About 8% of heavy-count
# paths of 1001 values fall in the cml_heavy windows: some 60 of the 768.
CANDIDATES = 768
BATCH = 256


def nb_success_prob(r: float, mean: float) -> float:
    """numpy's ``negative_binomial(r, p)`` has mean r (1 - p) / p."""
    return r / (r + mean)


def sample_paths(alpha: float, mu: float, r: float, n: int, reps: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Return a (reps, n) int64 array of independent stationary paths."""
    theta = mu / (mu + r)
    beta = alpha * r / (r + (1.0 - alpha) * mu)
    q = 1.0 - (1.0 - beta) * theta
    x = np.empty((reps, n), dtype=np.int64)
    x[:, 0] = rng.negative_binomial(r, nb_success_prob(r, mu), size=reps)
    eps = rng.negative_binomial(r, nb_success_prob(r, (1.0 - alpha) * mu),
                                size=(reps, n - 1))
    for t in range(1, n):
        survivors = rng.binomial(x[:, t - 1], beta)
        alive = survivors > 0
        extras = np.zeros(reps, dtype=np.int64)
        if alive.any():
            extras[alive] = rng.negative_binomial(survivors[alive], q)
        x[:, t] = survivors + extras + eps[:, t - 1]
    return x


def conditioned_paths(alpha: float, mu: float, r: float, n: int, count: int,
                      max_range: tuple[int, int], distinct_range: tuple[int, int],
                      rng: np.random.Generator) -> np.ndarray:
    """The first ``count`` of CANDIDATES drawn paths whose largest value lies
    in ``max_range`` and whose number of distinct values before the last lies
    in ``distinct_range`` (both inclusive).

    The result depends only on the generator's state.
    """
    kept = []
    for _ in range(CANDIDATES // BATCH):
        for path in sample_paths(alpha, mu, r, n, BATCH, rng):
            distinct = np.unique(path[:-1]).size
            if max_range[0] <= path.max() <= max_range[1] \
                    and distinct_range[0] <= distinct <= distinct_range[1]:
                kept.append(path)
    if len(kept) < count:
        raise RuntimeError(f"{len(kept)} of {CANDIDATES} paths have their max in {max_range} "
                           f"and {distinct_range} distinct values; {count} are needed")
    return np.stack(kept[:count])
