"""Replicated simulate-estimate experiments.

Each replicate simulates a fresh stationary series and runs the configured
estimators on it; aggregation compares empirical bias and the covariance of
the sqrt(n)-scaled errors against the predicted asymptotic covariances.

A config entry n simulates n + 1 observations so the regression estimators
see exactly n transitions.  Replicate (n, rep) draws from the stream seeded
by SeedSequence(master_seed, spawn_key=(n, rep)), so runs are reproducible,
independently extendable, and identical regardless of execution schedule.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import estimation
from .distributions import ParameterError, _check_count, nb_central_moments
from .estimation import (
    DegenerateSeriesError,
    MeanEstimates,
    cls_means,
    cls_variances,
    predicted_cov,
    yw_means,
)
from .process import Series, simulate
from .thinning import ModelParams, g_central_moments

__all__ = [
    "ESTIMATORS",
    "REGISTRY",
    "CSV_COLUMNS",
    "EmptyReportError",
    "MCConfig",
    "MCReport",
    "true_values",
    "run_experiment",
    "summarize",
    "write_rows_csv",
    "jsonable",
]


class Fit(NamedTuple):
    """One estimator run on one series: report fields and values, the fit's
    flags, further report entries, and the (alpha, mu, r) at which to predict
    the covariance (None: no such point)."""

    estimates: dict
    flags: list
    details: dict
    cov_point: tuple | None


class Estimator(NamedTuple):
    """Everything that differs by method: ``block_fields`` are summarised per
    Monte Carlo block, ``cov_fields`` enter the sqrt(n)-scaled error
    covariance that the ``CovMatrices`` field ``cov_matrix`` predicts,
    ``no_cov_flag`` is the report flag for a fit without a covariance point,
    and ``known_means`` fits accept ``known_alpha``/``known_mu_eps``."""

    fit: Callable[..., Fit]
    block_fields: tuple
    cov_fields: tuple
    cov_matrix: str | None
    no_cov_flag: str | None = None
    known_means: bool = False


# The fits look the estimation functions up when called (module globals here,
# ``estimation.cml_fit`` for CML) rather than binding them in the table, so a
# function replaced at those names, as a tracer does, is the one that runs.
def _means_fit(fit: MeanEstimates) -> Fit:
    estimates = {"alpha_hat": fit.alpha_hat, "mu_eps_hat": fit.mu_eps_hat,
                 "mu_hat": fit.mu_hat}
    return Fit(estimates, [] if fit.in_range else ["out-of-range"],
               {"n": fit.n}, None)


def _fit_cls_var(series: Series, known_alpha: float | None = None,
                 known_mu_eps: float | None = None) -> Fit:
    var = cls_variances(series, known_alpha=known_alpha, known_mu_eps=known_mu_eps)
    means = var.means
    # a first stage fitted here is reported with the variances; known means are not
    estimates, flags = ({}, []) if means.method == "known" else _means_fit(means)[:2]
    estimates.update(sigma_g2_hat=var.sigma_g2_hat,
                     sigma_eps2_hat=var.sigma_eps2_hat,
                     sigma2_hat=var.sigma2_hat,
                     sigma2_hat_formula_a=var.sigma2_hat_formula_a,
                     r_hat=var.r_hat)
    details = {"residual_mode": var.residual_mode, "alpha_used": means.alpha_hat,
               "mu_eps_used": means.mu_eps_hat, "n": var.n}
    if not var.r_defined:
        return Fit(estimates, flags + ["r-undefined"], details, None)
    return Fit(estimates, flags, details, (means.alpha_hat, means.mu_hat, var.r_hat))


def _fit_cml(series: Series) -> Fit:
    if len(series) < 10:
        raise ParameterError("cml needs at least 10 observations")
    fit = estimation.cml_fit(series)
    a, mu, r = fit.params.alpha, fit.params.mu, fit.params.r
    flags = [flag for flag, raised in (("non-converged", not fit.converged),
                                       ("underflow", fit.n_underflow > 0)) if raised]
    details = {"loglik": fit.loglik,
               "convergence": {"converged": fit.converged, "n_iter": fit.n_iter,
                               "n_eval": fit.n_eval, "message": fit.message,
                               "n_underflow": fit.n_underflow},
               "init": asdict(fit.init)}
    return Fit({"alpha_hat": a, "mu_hat": mu, "r_hat": r,
                "mu_eps_hat": (1.0 - a) * mu}, flags, details, None)


_MEANS = ("alpha_hat", "mu_eps_hat")
REGISTRY = {
    "cls": Estimator(lambda series: _means_fit(cls_means(series)),
                     _MEANS + ("mu_hat",), _MEANS, "sigma_means", "cov-requires-r"),
    "yw": Estimator(lambda series: _means_fit(yw_means(series)),
                    _MEANS + ("mu_hat",), _MEANS, "sigma_means", "cov-requires-r"),
    "cls-var": Estimator(_fit_cls_var, ("sigma_g2_hat", "sigma_eps2_hat", "r_hat"),
                         ("sigma_g2_hat", "sigma_eps2_hat"), "sigma_vars",
                         known_means=True),
    "cml": Estimator(_fit_cml, ("alpha_hat", "mu_hat", "r_hat"),
                     ("alpha_hat", "mu_hat", "r_hat"), None, "cov-unavailable"),
}
ESTIMATORS = tuple(REGISTRY)
# the pair whose alpha estimates are compared in the gap blocks
_GAP_PAIR = ("cls", "yw")

CSV_COLUMNS = ("estimator", "n", "replicate", "alpha_hat", "mu_eps_hat",
               "mu_hat", "sigma_g2_hat", "sigma_eps2_hat", "r_hat", "flags")

_FLOAT_COLUMNS = CSV_COLUMNS[3:-1]


class EmptyReportError(RuntimeError):
    """Every replicate of a block failed; nothing to aggregate."""


@dataclass(frozen=True)
class MCConfig:
    """Experiment definition: model, series lengths, replication, seeding."""

    params: ModelParams
    n_grid: tuple[int, ...]
    replicates: int
    estimators: tuple[str, ...]
    master_seed: int
    output_path: str | None = None

    def __post_init__(self):
        if not isinstance(self.params, ModelParams):
            raise ParameterError(f"params must be a ModelParams, got {self.params!r}")
        for name in ("n_grid", "estimators"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ParameterError(f"{name} must be a list, got {getattr(self, name)!r}")
        path = self.output_path
        if not (path is None or isinstance(path, str) and path):
            raise ParameterError(f"output_path must be a non-empty string, got {path!r}")
        object.__setattr__(self, "n_grid", tuple(_check_count(n, "n_grid entry", 10)
                                                 for n in self.n_grid))
        object.__setattr__(self, "replicates", _check_count(self.replicates, "replicates", 2))
        object.__setattr__(self, "master_seed", _check_count(self.master_seed, "master_seed"))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        # a repeated n or estimator would count each of its series twice in one block
        if not self.n_grid or len(set(self.n_grid)) < len(self.n_grid):
            raise ParameterError(f"n_grid must be non-empty and distinct, got {list(self.n_grid)}")
        unknown = [e for e in self.estimators if e not in ESTIMATORS]
        if unknown or not self.estimators:
            raise ParameterError(f"estimators must be a non-empty subset of {ESTIMATORS}")
        if len(set(self.estimators)) < len(self.estimators):
            raise ParameterError(f"estimators must be distinct, got {list(self.estimators)}")

    @classmethod
    def from_dict(cls, doc: dict) -> "MCConfig":
        required = {"alpha", "mu", "r", "n_grid", "replicates", "estimators",
                    "master_seed"}
        allowed = required | {"output_path"}
        if not isinstance(doc, dict):
            raise ParameterError("config document must be an object")
        missing = sorted(required - doc.keys())
        extra = sorted(doc.keys() - allowed)
        if missing or extra:
            raise ParameterError(
                f"config schema violation: missing {missing}, unexpected {extra}")
        return cls(params=ModelParams(doc["alpha"], doc["mu"], doc["r"]),
                   n_grid=doc["n_grid"], replicates=doc["replicates"],
                   estimators=doc["estimators"], master_seed=doc["master_seed"],
                   output_path=doc.get("output_path"))

    def to_dict(self) -> dict:
        return {"alpha": self.params.alpha, "mu": self.params.mu,
                "r": self.params.r, "n_grid": list(self.n_grid),
                "replicates": self.replicates,
                "estimators": list(self.estimators),
                "master_seed": self.master_seed,
                "output_path": self.output_path}


@dataclass
class MCReport:
    """Raw replicate rows plus the aggregate blocks."""

    config: MCConfig
    truth: dict
    rows: list
    blocks: list
    gaps: list

    def to_dict(self) -> dict:
        return {"config": self.config.to_dict(), "truth": self.truth,
                "blocks": self.blocks, "gap_sqrt_n_alpha": self.gaps}

    def write(self) -> tuple[str, str]:
        """Write <output_path>.csv (raw rows) and <output_path>.json."""
        base = self.config.output_path
        if base is None:
            raise ParameterError("config has no output_path")
        csv_path, json_path = f"{base}.csv", f"{base}.json"
        write_rows_csv(csv_path, self.rows)
        with open(json_path, "w") as fh:
            json.dump(jsonable(self.to_dict()), fh, indent=2)
            fh.write("\n")
        return csv_path, json_path


def true_values(p: ModelParams) -> dict:
    _, s2, _, _ = nb_central_moments(p.marginal())
    _, se2, _, _ = nb_central_moments(p.innovation())
    _, sg2, _, _ = g_central_moments(p)
    return {"alpha": p.alpha, "mu": p.mu, "r": p.r,
            "mu_eps": (1.0 - p.alpha) * p.mu,
            "sigma_g2": sg2, "sigma_eps2": se2, "sigma2": s2}


def _fit_row(method: str, series: Series, n: int, rep: int) -> dict:
    """The CSV row of one estimator run: estimates and ';'-joined flags, or
    NaN estimates flagged ``degenerate``."""
    row = {"estimator": method, "n": n, "replicate": rep, "flags": "ok",
           **dict.fromkeys(_FLOAT_COLUMNS, math.nan)}
    try:
        fit = REGISTRY[method].fit(series)
    except DegenerateSeriesError:
        row["flags"] = "degenerate"
        return row
    row.update((f, v) for f, v in fit.estimates.items() if f in row)
    row["flags"] = ";".join(fit.flags) or "ok"
    return row


def _replicate(task) -> list:
    cfg, n, rep = task
    rng = np.random.default_rng(np.random.SeedSequence(cfg.master_seed, spawn_key=(n, rep)))
    series = simulate(cfg.params, n + 1, rng)
    return [_fit_row(method, series, n, rep) for method in cfg.estimators]


def _worker_count() -> int:
    raw = os.environ.get("NBINAR_THREADS")
    if raw is None or raw.strip() == "":
        return 1
    try:
        k = int(raw)
    except ValueError:
        raise ParameterError(f"NBINAR_THREADS must be an integer, got {raw!r}") from None
    if k < 0:
        raise ParameterError(f"NBINAR_THREADS must be >= 0, got {k}")
    if k == 0:
        return os.cpu_count() or 1
    return k


def run_experiment(cfg: MCConfig) -> MCReport:
    """Run every (n, replicate) cell, aggregate, and write outputs if the
    config names an output path."""
    tasks = [(cfg, n, rep) for n in sorted(cfg.n_grid) for rep in range(cfg.replicates)]
    workers = min(_worker_count(), len(tasks), os.cpu_count() or 1)
    if workers > 1:
        chunk = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate, tasks, chunksize=chunk))
    else:
        results = [_replicate(t) for t in tasks]
    rows = [row for task_rows in results for row in task_rows]

    truth = true_values(cfg.params)
    cov = predicted_cov(cfg.params)
    blocks, gaps = summarize(rows, truth, {
        method: getattr(cov, est.cov_matrix)
        for method, est in REGISTRY.items() if est.cov_matrix is not None})
    report = MCReport(config=cfg, truth=truth, rows=rows, blocks=blocks,
                      gaps=gaps)
    if cfg.output_path is not None:
        report.write()
    return report


def _is_failed(row: dict) -> bool:
    return "degenerate" in row["flags"]


def _quartiles(vals) -> dict:
    q = np.quantile(vals, [0.25, 0.5, 0.75]) if len(vals) else [None] * 3
    return {k: None if v is None else float(v) for k, v in zip(("0.25", "0.5", "0.75"), q)}


def summarize(rows: list, truth: dict, predicted: dict | None = None) -> tuple[list, list]:
    """Aggregate a raw replicate table into per-(estimator, n) blocks.

    Returns (blocks, gap_blocks); the gap blocks hold quantiles of
    sqrt(n) |alpha_hat_yw - alpha_hat_cls| on replicates where both ran.
    """
    predicted = predicted or {}
    groups: dict = {}
    for row in rows:
        groups.setdefault((row["estimator"], row["n"]), []).append(row)
    blocks = []
    for est, n in sorted(groups, key=lambda t: (ESTIMATORS.index(t[0]), t[1])):
        sub = groups[est, n]
        ok = [r for r in sub if not _is_failed(r)]
        if not ok:
            raise EmptyReportError(f"all replicates failed for {est} at n={n}")
        flag_counts = Counter(r["flags"] for r in sub)

        mean, bias, quantiles = {}, {}, {}
        for f in REGISTRY[est].block_fields:
            vals = np.array([r[f] for r in ok], dtype=float)
            vals = vals[np.isfinite(vals)]
            mean[f] = float(vals.mean()) if vals.size else None
            quantiles[f] = _quartiles(vals)
            key = f[: -len("_hat")]
            bias[f] = (mean[f] - truth[key]) if (mean[f] is not None and key in truth) else None

        errs = []
        for r in ok:
            vec = [r[f] - truth[f[: -len("_hat")]] for f in REGISTRY[est].cov_fields]
            if all(math.isfinite(v) for v in vec):
                errs.append([math.sqrt(n) * v for v in vec])
        emp_cov = None
        if len(errs) >= 2:
            emp_cov = np.atleast_2d(np.cov(np.asarray(errs).T, ddof=1))
        pred = predicted.get(est)
        rel_dev = max_dev = None
        if emp_cov is not None and pred is not None:
            pred = np.asarray(pred, dtype=float)
            rel_dev = np.abs(emp_cov - pred) / np.abs(pred)
            max_dev = float(rel_dev.max())

        blocks.append({
            "estimator": est, "n": n, "replicates": len(sub),
            "included": len(ok), "excluded": len(sub) - len(ok),
            "flag_counts": dict(sorted(flag_counts.items())),
            "mean": mean, "bias": bias, "quantiles": quantiles,
            "scaled_error_cov": None if emp_cov is None else emp_cov.tolist(),
            "predicted_cov": None if pred is None else np.asarray(pred).tolist(),
            "relative_deviation": None if rel_dev is None else rel_dev.tolist(),
            "max_relative_deviation": max_dev,
        })

    gaps = []
    first, second = _GAP_PAIR
    for n in sorted({n for _, n in groups}):
        by_rep = {r["replicate"]: r for r in groups.get((first, n), []) if not _is_failed(r)}
        diffs = [math.sqrt(n) * abs(r["alpha_hat"] - by_rep[r["replicate"]]["alpha_hat"])
                 for r in groups.get((second, n), [])
                 if not _is_failed(r) and r["replicate"] in by_rep]
        if diffs:
            gaps.append({"n": n, "replicates": len(diffs), "quantiles": _quartiles(diffs)})
    return blocks, gaps


def write_rows_csv(path, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row["estimator"], row["n"], row["replicate"],
                             *(repr(float(row[f])) for f in _FLOAT_COLUMNS),
                             row["flags"]])


def jsonable(value):
    """Recursively convert to strict-JSON types (NaN/inf become null)."""
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return jsonable(value.tolist())
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    return value
