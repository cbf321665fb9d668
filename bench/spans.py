"""In-memory spans around the package's layer boundaries.

The tracer wraps a function at the name the *calling* module binds (for
example ``nbinar.estimation.transition_rows``), so the program itself is not
edited and an untraced run executes the original objects.  Each call made
through a wrapped name records a span (name, start, end, parent); the
hottest per-step functions are wrapped by call counters instead, because a
span per simulation step would dominate what it measures.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute path, span name, kind): kind "span" times the call,
# "count" only counts it.
SITES = (
    ("nbinar.montecarlo", "simulate", "process.simulate", "span"),
    ("nbinar.cli", "simulate", "process.simulate", "span"),
    ("nbinar.process", "odot_sample", "thinning.odot_sample", "count"),
    ("nbinar.process", "nb_sample", "distributions.nb_sample", "count"),
    ("nbinar.estimation", "transition_rows", "process.transition_rows", "span"),
    ("nbinar.process", "transition_rows", "process.transition_rows", "span"),
    ("nbinar.estimation", "cml_fit", "estimation.cml_fit", "span"),
    ("nbinar.cli", "cml_fit", "estimation.cml_fit", "span"),
    ("nbinar.montecarlo", "cls_means", "estimation.cls_means", "span"),
    ("nbinar.montecarlo", "yw_means", "estimation.yw_means", "span"),
    ("nbinar.montecarlo", "cls_variances", "estimation.cls_variances", "span"),
    ("nbinar.cli", "cls_means", "estimation.cls_means", "span"),
    ("nbinar.cli", "yw_means", "estimation.yw_means", "span"),
    ("nbinar.cli", "cls_variances", "estimation.cls_variances", "span"),
    ("nbinar.montecarlo", "predicted_cov", "estimation.predicted_cov", "span"),
    ("nbinar.cli", "predicted_cov", "estimation.predicted_cov", "span"),
    ("nbinar.estimation", "nb_support_bound", "distributions.nb_support_bound", "span"),
    ("nbinar.process", "nb_support_bound", "distributions.nb_support_bound", "span"),
    ("nbinar.montecarlo", "summarize", "montecarlo.summarize", "span"),
    ("nbinar.montecarlo", "run_experiment", "montecarlo.run_experiment", "span"),
    ("nbinar.cli", "transition_table", "process.transition_table", "span"),
    ("nbinar.cli", "read_series", "process.read_series", "span"),
    ("nbinar.cli", "write_series", "process.write_series", "span"),
    ("nbinar.process", "TransitionTable.to_csv", "process.TransitionTable.to_csv", "span"),
    ("nbinar.cli", "cmd_simulate", "cli.simulate", "span"),
    ("nbinar.cli", "cmd_estimate", "cli.estimate", "span"),
    ("nbinar.cli", "cmd_transition", "cli.transition", "span"),
)

def _resolve(module: str, path: str):
    """(owner object, attribute name) or None when the name no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Records spans and call counts while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.sums: defaultdict = defaultdict(float)
        self.maxima: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.present: set[str] = set()
        for module, path, name, _ in SITES:
            if _resolve(module, path) is not None:
                self.present.add(name)

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for module, path, name, kind in SITES:
            target = _resolve(module, path)
            if target is None:
                continue
            owner, attr = target
            original = getattr(owner, attr)
            wrapped = self._counter(name, original) if kind == "count" \
                else self._span(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- recording ------------------------------------------------------
    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name, fn):
        on_call = _ON_CALL.get(name)
        on_return = _ON_RETURN.get(name)

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(self, result)
            return result
        return traced

    @contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- output ---------------------------------------------------------
    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
            fh.write("\n")

    def totals(self) -> tuple[Counter, defaultdict, defaultdict]:
        """Per span name: number of spans, summed duration, summed self time."""
        calls: Counter = Counter()
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child[i]
        return calls, total, self_time


def _on_simulate(tracer, args, kwargs):
    tracer.sums["sim_steps"] += int(kwargs.get("n", args[1] if len(args) > 1 else 0))


def _on_transition_rows(tracer, args, kwargs):
    """Cells and computed bytes of A, B, W and E from the argument shapes."""
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    j_max = int(args[2] if len(args) > 2 else kwargs["j_max"])
    n_rows = len(rows)
    i_max = int(max(rows))
    m = j_max + 1
    tracer.sums["cells"] += n_rows * m
    b_cells = i_max * (m - 1) if i_max >= 1 and j_max >= 1 else 0
    mb = 8 * (n_rows * (i_max + 1) + b_cells + n_rows * m + m * m) / 1e6
    tracer.maxima["mb_computed"] = max(tracer.maxima["mb_computed"], mb)
    if tracer.inside("estimation.cml_fit"):
        tracer.sums["nfev"] += 1


_ON_CALL = {
    "process.simulate": _on_simulate,
    "process.transition_rows": _on_transition_rows,
}


def _on_cml_fit_return(tracer, fit):
    tracer.sums["cml_n_iter"] += fit.n_iter


_ON_RETURN = {"estimation.cml_fit": _on_cml_fit_return}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer figures, per traced operation unless the name says otherwise.

    A metric whose wrapped function no longer exists is left out.
    """
    calls, total, self_time = tracer.totals()
    sums, counts = tracer.sums, tracer.counts
    fits = calls["estimation.cml_fit"]
    regression = ("estimation.cls_means", "estimation.yw_means",
                  "estimation.cls_variances")
    io = ("process.read_series", "process.write_series",
          "process.TransitionTable.to_csv")
    table = {
        "process.simulate.s": (("process.simulate",), total["process.simulate"] / ops),
        "process.simulate.us_per_step": (
            ("process.simulate",), 1e6 * _ratio(total["process.simulate"], sums["sim_steps"])),
        "thinning.odot_sample.calls": (("thinning.odot_sample",), counts["thinning.odot_sample"] / ops),
        "distributions.nb_sample.calls": (
            ("distributions.nb_sample",), counts["distributions.nb_sample"] / ops),
        "process.transition_rows.calls": (
            ("process.transition_rows",), calls["process.transition_rows"] / ops),
        "process.transition_rows.s": (
            ("process.transition_rows",), total["process.transition_rows"] / ops),
        "process.transition_rows.cells": (("process.transition_rows",), sums["cells"] / ops),
        "process.transition_rows.mb_computed": (
            ("process.transition_rows",), tracer.maxima["mb_computed"]),
        "estimation.cml_fit.s": (("estimation.cml_fit",), total["estimation.cml_fit"] / ops),
        "estimation.cml_fit.nfev": (
            ("estimation.cml_fit", "process.transition_rows"), _ratio(sums["nfev"], fits)),
        "estimation.cml_fit.n_iter": (("estimation.cml_fit",), _ratio(sums["cml_n_iter"], fits)),
        "estimation.cml_fit.ms_per_eval": (
            ("estimation.cml_fit", "process.transition_rows"),
            1e3 * _ratio(total["estimation.cml_fit"], sums["nfev"])),
        "estimation.regression.s": (regression, sum(total[n] for n in regression) / ops),
        "estimation.predicted_cov.s": (
            ("estimation.predicted_cov",), total["estimation.predicted_cov"] / ops),
        "distributions.nb_support_bound.calls": (
            ("distributions.nb_support_bound",), calls["distributions.nb_support_bound"] / ops),
        "distributions.nb_support_bound.s": (
            ("distributions.nb_support_bound",), total["distributions.nb_support_bound"] / ops),
        "montecarlo.summarize.s": (("montecarlo.summarize",), total["montecarlo.summarize"] / ops),
        "montecarlo.run_experiment.self_s": (
            ("montecarlo.run_experiment",), self_time["montecarlo.run_experiment"] / ops),
        "process.transition_table.s": (
            ("process.transition_table",), total["process.transition_table"] / ops),
        "process.io.s": (io, sum(total[n] for n in io) / ops),
        "cli.simulate.self_s": (("cli.simulate",), self_time["cli.simulate"] / ops),
        "cli.estimate.self_s": (("cli.estimate",), self_time["cli.estimate"] / ops),
        "cli.transition.self_s": (("cli.transition",), self_time["cli.transition"] / ops),
    }
    return {name: value for name, (needs, value) in table.items()
            if all(n in tracer.present for n in needs)}

