"""Command line interface.

Subcommands: simulate, transition, estimate, mc, selftest.  Exit codes:
0 success, 1 selftest failure, 2 parameter or schema error, 3 I/O error,
4 degenerate data.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .distributions import ParameterError, _check_count
from .estimation import DegenerateSeriesError, predicted_cov
from .montecarlo import (
    ESTIMATORS,
    REGISTRY,
    EmptyReportError,
    MCConfig,
    jsonable,
    run_experiment,
)
from .process import read_series, simulate, transition_prob, transition_table, write_series
from .selftest import run_selftest
from .thinning import ModelParams

__all__ = ["main", "build_parser"]


def _add_model_flags(parser):
    parser.add_argument("--alpha", type=float, required=True,
                        help="thinning rate, in (0, 1)")
    parser.add_argument("--mu", type=float, required=True,
                        help="marginal mean, positive")
    parser.add_argument("--r", type=float, required=True,
                        help="shape, positive")


def build_parser() -> argparse.ArgumentParser:
    """A new parser.  Each subcommand's ``func`` looks its ``cmd_*`` up when it
    runs, so a parser built once calls the module's current functions."""
    parser = argparse.ArgumentParser(
        prog="nbinar",
        description="Negative binomial INAR(1) count time series: simulation, "
                    "exact transition laws, and estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a stationary series")
    _add_model_flags(sim)
    sim.add_argument("--n", type=int, required=True, help="series length")
    sim.add_argument("--seed", type=int, required=True, help="RNG seed")
    sim.add_argument("--out", required=True, help="output series file")
    sim.set_defaults(func=lambda args: cmd_simulate(args))

    tr = sub.add_parser("transition",
                        help="print a transition probability or write a table")
    _add_model_flags(tr)
    tr.add_argument("--i", type=int, help="origin state")
    tr.add_argument("--j", type=int, help="destination state")
    tr.add_argument("--h", type=int, default=1, help="step order (default 1)")
    tr.add_argument("--table", type=int, metavar="J",
                    help="write the full table on states 0..J instead")
    tr.add_argument("--out", help="output CSV path (required with --table)")
    tr.set_defaults(func=lambda args: cmd_transition(args))

    est = sub.add_parser("estimate", help="estimate parameters from a series file")
    est.add_argument("--in", dest="infile", required=True, help="series file")
    est.add_argument("--method", required=True, choices=ESTIMATORS)
    est.add_argument("--known-alpha", type=float, default=None,
                     help="treat alpha as known (cls-var only)")
    est.add_argument("--known-mueps", type=float, default=None,
                     help="treat mu_eps as known (cls-var only)")
    est.add_argument("--out", help="write the JSON report here instead of stdout")
    est.set_defaults(func=lambda args: cmd_estimate(args))

    mc = sub.add_parser("mc", help="run a Monte Carlo experiment from a config")
    mc.add_argument("--config", required=True, help="JSON config file")
    mc.set_defaults(func=lambda args: cmd_mc(args))

    st = sub.add_parser("selftest", help="run the invariant suites")
    st.add_argument("--mutate", action="store_true",
                    help="corrupt a constant to verify the suite can fail")
    st.set_defaults(func=lambda args: cmd_selftest(args))
    return parser


def _model_params(args) -> ModelParams:
    return ModelParams(alpha=args.alpha, mu=args.mu, r=args.r)


def cmd_simulate(args) -> int:
    p = _model_params(args)
    rng = np.random.default_rng(_check_count(args.seed, "seed"))
    series = simulate(p, args.n, rng)
    write_series(args.out, series)
    meta = dict(series.meta or {})
    meta.update(n=args.n, seed=args.seed, format="one integer per line")
    with open(f"{args.out}.meta.json", "w") as fh:
        json.dump(jsonable(meta), fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.n} values to {args.out}")
    return 0


def cmd_transition(args) -> int:
    p = _model_params(args)
    if args.table is not None:
        if args.out is None:
            raise ParameterError("--table requires --out")
        table = transition_table(p, args.table, args.h)
        table.to_csv(args.out)
        print(f"wrote {table.max_state + 1}x{table.max_state + 1} table to {args.out}")
        return 0
    if args.i is None or args.j is None:
        raise ParameterError("provide --i and --j, or --table J")
    print(f"{transition_prob(p, args.i, args.j, args.h):.15g}")
    return 0


def cmd_estimate(args) -> int:
    try:
        series = read_series(args.infile)
    except OSError as exc:
        print(f"error: cannot read series: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: malformed series file: {exc}", file=sys.stderr)
        return 3

    estimator = REGISTRY[args.method]
    known = {name: value for name, value in (("known_alpha", args.known_alpha),
                                             ("known_mu_eps", args.known_mueps))
             if value is not None}
    if known and not estimator.known_means:
        raise ParameterError("--known-alpha/--known-mueps apply to --method cls-var only")
    fit = estimator.fit(series, **known)
    flags = list(fit.flags)
    cov = None
    if fit.cov_point is None:
        if estimator.no_cov_flag is not None:
            flags.append(estimator.no_cov_flag)
    else:
        try:
            cov = predicted_cov(ModelParams(*fit.cov_point))
        except (ValueError, OverflowError):  # outside the domain, or the moments overflow
            flags.append("cov-unavailable")
    report = {"method": args.method, "observations": len(series),
              "estimates": fit.estimates, **fit.details,
              "predicted_cov": None if cov is None else vars(cov),
              "flags": flags or ["ok"]}
    text = json.dumps(jsonable(report), indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_mc(args) -> int:
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    cfg = MCConfig.from_dict(doc)
    if cfg.output_path is None:
        raise ParameterError("config must set output_path")
    report = run_experiment(cfg)
    print(f"wrote {cfg.output_path}.csv and {cfg.output_path}.json "
          f"({len(report.rows)} rows)")
    return 0


def cmd_selftest(args) -> int:
    return 0 if run_selftest(mutate=args.mutate) else 1


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateSeriesError, EmptyReportError) as exc:
        print(f"error: degenerate data: {exc}", file=sys.stderr)
        return 4
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
