"""The benchmark's workloads: inputs, the timed operation and its checks.

Each workload makes every input from its seed in ``setup`` and exposes

* ``op(k)``: the timed operation on input k (closed loop, one client);
* ``collect(k, output)``: a compact record of the output, read right after
  the operation and outside its timing; it needs numpy only, so nothing of
  the reference code is loaded while memory is measured;
* ``check(record)``: the list of ways the output is wrong (empty when it is
  right), computed against ``oracles`` after the measured loop.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sampler
from nbinar import cli, estimation, montecarlo
from nbinar.montecarlo import MCConfig
from nbinar.process import Series
from nbinar.thinning import ModelParams

HAND = (0.5, 2.0, 1.0)
HEAVY = (0.9, 50.0, 0.5)

# Relative tolerances of the comparisons against the oracles.  The program
# and the oracles agree to about 1e-13 on these inputs; the margin absorbs
# summation order, not modelling error.
RTOL_REGRESSION = 1e-9
RTOL_LOGLIK = 1e-10
RTOL_TABLE = 1e-9
ATOL_ROW_SUM = 1e-12

# Monte Carlo block means: |mean - truth| <= K_SE * SE + BIAS_COEF / n, SE the
# block's own standard error.  The coefficients are about twice the O(1/n)
# biases measured at (0.5, 2, 1) with the benchmark's sampler.
K_SE = 8.0
BIAS_COEF = {"alpha_hat": 12.0, "mu_eps_hat": 20.0, "sigma_eps2_hat": 120.0}


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    a = math.nan if a is None else float(a)
    b = math.nan if b is None else float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


# ---------------------------------------------------------------- mc_study
MC_ESTIMATORS = ("cls", "yw", "cls-var")
MC_WARM_UP_REPLICATES = 2


@dataclass(frozen=True)
class MCSizes:
    n_grid: tuple = (500, 2000, 8000)
    replicates: int = 40


class MCStudy:
    """One ``montecarlo.run_experiment`` per operation, own master seed each."""

    name = "mc_study"

    def __init__(self, seed: int, workdir: Path, sizes: MCSizes = MCSizes()):
        self.seed, self.workdir, self.sizes = seed, workdir, sizes
        self.params = ModelParams(*HAND)

    def setup(self) -> None:
        state = np.random.SeedSequence([self.seed, 1]).generate_state(4096)
        self.master_seeds = [int(s) for s in state]

    def _config(self, k: int, replicates: int) -> MCConfig:
        s = self.sizes
        return MCConfig(params=self.params, n_grid=s.n_grid, replicates=replicates,
                        estimators=MC_ESTIMATORS,
                        master_seed=self.master_seeds[k % len(self.master_seeds)])

    def warm_up(self) -> None:
        montecarlo.run_experiment(self._config(0, MC_WARM_UP_REPLICATES))

    def op(self, k: int):
        return montecarlo.run_experiment(self._config(k, self.sizes.replicates))

    def collect(self, k: int, report) -> dict:
        """Per (estimator, n): replicate indices, flags, mean and SE of each field."""
        blocks = {}
        for est in MC_ESTIMATORS:
            for n in self.sizes.n_grid:
                rows = [r for r in report.rows if r["estimator"] == est and r["n"] == n]
                stats = {}
                for field in ("alpha_hat", "mu_eps_hat", "sigma_eps2_hat"):
                    v = np.array([r[field] for r in rows], dtype=float)
                    if v.size >= 2 and np.isfinite(v).all():
                        stats[field] = (float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size)))
                blocks[(est, n)] = {
                    "replicates": sorted(r["replicate"] for r in rows),
                    "degenerate": sum("degenerate" in r["flags"] for r in rows),
                    "stats": stats}
        return {"k": k, "blocks": blocks}

    def check(self, record: dict) -> list[str]:
        a, mu, r = HAND
        truth = {"alpha_hat": a, "mu_eps_hat": (1 - a) * mu,
                 "sigma_eps2_hat": (1 - a) * mu * (1 + (1 - a) * mu / r)}
        fields = {"cls": ("alpha_hat", "mu_eps_hat"), "yw": ("alpha_hat", "mu_eps_hat"),
                  "cls-var": ("sigma_eps2_hat",)}
        errors = []
        for (est, n), block in record["blocks"].items():
            if block["replicates"] != list(range(self.sizes.replicates)):
                errors.append(f"{est} n={n}: replicates {len(block['replicates'])}"
                              f" of {self.sizes.replicates}")
            if block["degenerate"]:
                errors.append(f"{est} n={n}: {block['degenerate']} degenerate")
            for field in fields[est]:
                if field not in block["stats"]:
                    errors.append(f"{est} n={n}: {field} not finite")
                    continue
                mean, se = block["stats"][field]
                allowed = K_SE * se + BIAS_COEF[field] / n
                if not abs(mean - truth[field]) <= allowed:
                    errors.append(f"{est} n={n}: mean {field} {mean:.6g} vs "
                                  f"{truth[field]:.6g} (allowed {allowed:.3g})")
        return errors


# --------------------------------------------------------------- cml_heavy
@dataclass(frozen=True)
class CMLSizes:
    length: int = 1001
    pool: int = 16
    max_range: tuple = (400, 440)
    distinct_range: tuple = (180, 210)


class CMLHeavy:
    """One ``estimation.cml_fit`` per operation on a heavy-count series.

    Operation k fits series k mod pool.  Every series has about 1000
    transitions, its largest count in ``max_range`` and a number of distinct
    origin states in ``distinct_range``: the cost of one likelihood
    evaluation grows with both, so they are held comparable across seeds.
    Every fit starts at the generating parameters.  On one seed's pool the
    simplex needs 78 to 141 iterations from the default start and 76 to 101
    from there; the default start would make the operation's time more a
    function of the series than of the kernel.
    """

    name = "cml_heavy"

    def __init__(self, seed: int, workdir: Path, sizes: CMLSizes = CMLSizes()):
        self.seed, self.workdir, self.sizes = seed, workdir, sizes
        self._oracle: dict = {}

    def setup(self) -> None:
        s = self.sizes
        self.paths = sampler.conditioned_paths(*HEAVY, s.length, s.pool, s.max_range,
                                               s.distinct_range, _rng(self.seed, 2))
        self.series = [Series(x) for x in self.paths]

    def warm_up(self) -> None:
        estimation.loglik(self.series[0], ModelParams(*HEAVY))

    def op(self, k: int):
        return estimation.cml_fit(self.series[k % len(self.series)], init=ModelParams(*HEAVY))

    def collect(self, k: int, fit) -> dict:
        p = fit.params
        return {"k": k, "index": k % len(self.series), "params": (p.alpha, p.mu, p.r),
                "loglik": fit.loglik, "converged": fit.converged,
                "n_underflow": fit.n_underflow}

    def _oracle_loglik(self, index: int, params: tuple) -> float:
        import oracles
        key = (index, params)
        if key not in self._oracle:
            self._oracle[key] = oracles.loglik(self.paths[index], *params)
        return self._oracle[key]

    def check(self, record: dict) -> list[str]:
        errors = []
        if not record["converged"]:
            errors.append("not converged")
        if record["n_underflow"]:
            errors.append(f"{record['n_underflow']} underflowing transitions")
        at_fit = self._oracle_loglik(record["index"], record["params"])
        if not _close(record["loglik"], at_fit, RTOL_LOGLIK):
            errors.append(f"loglik {record['loglik']!r} vs oracle {at_fit!r}")
        at_truth = self._oracle_loglik(record["index"], HEAVY)
        if not record["loglik"] >= at_truth - RTOL_LOGLIK * abs(at_truth):
            errors.append(f"loglik {record['loglik']!r} below the truth's {at_truth!r}")
        return errors


# --------------------------------------------------------------- cli_files
# The table is an h-step one; its rows 0..TABLE_ORACLE_ROWS-1 are compared
# with the oracle.
TABLE_H = 2
TABLE_ORACLE_ROWS = 21


@dataclass(frozen=True)
class CLISizes:
    length: int = 5000
    pool: int = 32
    simulate_n: int = 5000
    table: int = 200
    oracle_inner: int = 400


METHODS = ("cls", "yw", "cls-var", "cml")
FIELDS = {
    "cls": ("alpha_hat", "mu_eps_hat", "mu_hat"),
    "yw": ("alpha_hat", "mu_eps_hat", "mu_hat"),
    "cls-var": ("alpha_hat", "mu_eps_hat", "mu_hat", "sigma_g2_hat",
                "sigma_eps2_hat", "sigma2_hat", "r_hat"),
}


class CLIFiles:
    """One analysis pass through ``nbinar.cli.main`` per operation.

    simulate to a file, estimate with each method on benchmark-made series
    file k mod pool, and write an h-step transition table as CSV.
    """

    name = "cli_files"

    def __init__(self, seed: int, workdir: Path, sizes: CLISizes = CLISizes()):
        self.seed, self.workdir, self.sizes = seed, Path(workdir), sizes
        self.model = ["--alpha", repr(HAND[0]), "--mu", repr(HAND[1]), "--r", repr(HAND[2])]
        self._tables: dict = {}
        self._oracle: dict = {}

    def setup(self) -> None:
        s = self.sizes
        rng = _rng(self.seed, 3)
        self.paths = sampler.sample_paths(*HAND, s.length, s.pool, rng)
        self.sim_seeds = [int(v) for v in rng.integers(0, 2**31, size=1024)]
        series_dir = self.workdir / "series"
        shutil.rmtree(series_dir, ignore_errors=True)
        series_dir.mkdir(parents=True)
        self.files = []
        for i, x in enumerate(self.paths):
            path = series_dir / f"series-{i:03d}.txt"
            path.write_text("\n".join(map(str, x.tolist())) + "\n")
            self.files.append(str(path))

    def warm_up(self) -> None:
        self.collect(0, self.op(0))

    def _out(self, name: str) -> str:
        return str(self.workdir / name)

    def op(self, k: int) -> dict:
        s = self.sizes
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            codes["simulate"] = cli.main(
                ["simulate", *self.model, "--n", str(s.simulate_n),
                 "--seed", str(self.sim_seeds[k % len(self.sim_seeds)]),
                 "--out", self._out("simulated.txt")])
            for method in METHODS:
                codes[method] = cli.main(
                    ["estimate", "--in", self.files[k % len(self.files)],
                     "--method", method, "--out", self._out(f"report-{method}.json")])
            codes["transition"] = cli.main(
                ["transition", *self.model, "--table", str(s.table), "--h", str(TABLE_H),
                 "--out", self._out("table.csv")])
        return codes

    def _read_table(self, data: bytes) -> dict:
        rows = list(csv.reader(io.StringIO(data.decode())))
        body = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        probs, tail = body[:, :-1], body[:, -1]
        return {"shape": probs.shape, "min_prob": float(probs.min()),
                "min_tail": float(tail.min()),
                "max_sum_error": float(np.max(np.abs(probs.sum(axis=1) + tail - 1.0))),
                "head": probs[:TABLE_ORACLE_ROWS].copy()}

    def collect(self, k: int, codes: dict) -> dict:
        """Read every file the pass wrote, then delete it."""
        record = {"k": k, "index": k % len(self.files), "codes": codes, "reports": {}}
        sim = Path(self._out("simulated.txt"))
        meta = Path(self._out("simulated.txt.meta.json"))
        values = np.array(sim.read_text().split(), dtype=np.int64)
        record["simulated"] = {"n": int(values.size), "min": int(values.min()),
                               "meta": json.loads(meta.read_text()),
                               "seed": self.sim_seeds[k % len(self.sim_seeds)]}
        for method in METHODS:
            path = Path(self._out(f"report-{method}.json"))
            record["reports"][method] = json.loads(path.read_text())
            path.unlink()
        table = Path(self._out("table.csv"))
        data = table.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self._tables:
            self._tables[digest] = self._read_table(data)
        record["table"] = digest
        for path in (sim, meta, table):
            path.unlink()
        return record

    def _oracle_value(self, key, compute):
        if key not in self._oracle:
            self._oracle[key] = compute()
        return self._oracle[key]

    def check(self, record: dict) -> list[str]:
        import oracles
        s = self.sizes
        errors = [f"{cmd} exited {code}" for cmd, code in record["codes"].items() if code != 0]
        sim = record["simulated"]
        if sim["n"] != s.simulate_n or sim["min"] < 0:
            errors.append(f"simulated file holds {sim['n']} values, min {sim['min']}")
        meta = sim["meta"]
        if meta.get("n") != s.simulate_n or meta.get("seed") != sim["seed"] \
                or (meta.get("alpha"), meta.get("mu"), meta.get("r")) != HAND:
            errors.append(f"simulated meta {meta}")

        index = record["index"]
        x = self.paths[index]
        reference = {"cls": oracles.cls, "yw": oracles.yw, "cls-var": oracles.cls_var}
        for method, fields in FIELDS.items():
            expected = self._oracle_value((method, index), lambda: reference[method](x))
            got = record["reports"][method]["estimates"]
            for field in fields:
                if not _close(got.get(field), expected[field], RTOL_REGRESSION, 1e-12):
                    errors.append(f"{method} {field} {got.get(field)!r} vs {expected[field]!r}")

        cml = record["reports"]["cml"]
        est = cml["estimates"]
        params = (est["alpha_hat"], est["mu_hat"], est["r_hat"])
        expected = self._oracle_value(("cml", index, params),
                                      lambda: oracles.loglik(x, *params))
        if not _close(cml["loglik"], expected, RTOL_LOGLIK):
            errors.append(f"cml loglik {cml['loglik']!r} vs oracle {expected!r}")
        conv = cml["convergence"]
        if not conv["converged"] or conv["n_underflow"]:
            errors.append(f"cml convergence {conv}")

        table = self._tables[record["table"]]
        if table["shape"] != (s.table + 1, s.table + 1):
            errors.append(f"table shape {table['shape']}")
        if table["min_prob"] < 0 or table["min_tail"] < 0:
            errors.append("negative table entry")
        if table["max_sum_error"] > ATOL_ROW_SUM:
            errors.append(f"row sum + tail mass off 1 by {table['max_sum_error']:.3g}")
        head = self._oracle_value("table", lambda: oracles.transition_rows_h(
            *HAND, np.arange(TABLE_ORACLE_ROWS), s.table, TABLE_H, s.oracle_inner))
        if not np.allclose(table["head"], head, rtol=RTOL_TABLE, atol=0.0):
            errors.append("table rows differ from the Chapman-Kolmogorov oracle")
        return errors


WORKLOADS = {w.name: w for w in (MCStudy, CMLHeavy, CLIFiles)}
