#!/usr/bin/env python3
"""Benchmark of the nbinar package: run a workload, check it, print metrics.

    python3 bench/run.py --workload mc_study --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --seconds 10          # every workload, one process each

The package is imported from ``src/`` of the checkout that holds this file.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Results and traces
are also written under ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# setup_s is a sum of medians: of the import over IMPORT_REPEATS interpreters,
# and of input generation plus warm-up over SETUP_REPEATS repetitions.
IMPORT_REPEATS = 3
SETUP_REPEATS = 5
# Every thread pool numpy or scipy may start; one thread each keeps a run on
# one core, within nproc on any machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    os.environ.pop("NBINAR_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package() -> float:
    """Import nbinar from this checkout's src/ and return the import time."""
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (the harness's own dependency, not timed)
    start = time.perf_counter()
    import nbinar
    import nbinar.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if not Path(nbinar.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"nbinar was imported from {nbinar.__file__}, not from {SRC}")
    return elapsed


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; "
                 "t = time.perf_counter(); import nbinar, nbinar.cli; "
                 "print(time.perf_counter() - t)")


def fresh_import_times(count: int) -> list[float]:
    """The time to import nbinar and nbinar.cli in each of ``count`` new interpreters."""
    return [float(subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                                 capture_output=True, text=True, check=True).stdout)
            for _ in range(count)]


def _timed(workload, k: int, tracer=None):
    """Run operation k; return (seconds, record or error string)."""
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        if tracer is None:
            output = workload.op(k)
        else:
            with tracer.span("op"):
                output = workload.op(k)
        elapsed = time.perf_counter() - start
    except Exception as exc:  # an operation that raises counts as failed
        return time.perf_counter() - start, f"op {k} raised {exc!r}"
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        return elapsed, workload.collect(k, output)
    except Exception as exc:
        return elapsed, f"op {k} output unreadable: {exc!r}"


def measure(workload, seconds: float, tracer=None):
    """Closed loop until the operations have taken ``seconds`` in total.

    With a tracer, operations come in pairs on the same input, one untraced
    and one traced, alternating which goes first.
    Returns (latencies, records, traced/untraced ratios).
    """
    latencies, records, ratios = [], [], []
    busy, k = 0.0, 0
    while busy < seconds or not latencies:
        if tracer is None:
            order = (None,)
        else:
            order = (None, tracer) if k % 2 == 0 else (tracer, None)
        pair = {}
        for t in order:
            dt, rec = _timed(workload, k, t)
            pair[t is not None] = dt
            latencies.append(dt)
            records.append(rec)
            busy += dt
        if tracer is not None:
            ratios.append(pair[True] / pair[False])
        k += 1
    return latencies, records, ratios


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float, sizes=None, workdir=None):
    """Set up, measure and check one workload.

    Returns (result, failures, tracer or None, raw timings).
    """
    import resource

    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    scratch = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = cls(seed, scratch) if sizes is None else cls(seed, scratch, sizes)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            workload.warm_up()
            setup_times.append(time.perf_counter() - start)

        if trace:
            import spans
            tracer = spans.Tracer()
        else:
            tracer = None
        latencies, records, ratios = measure(workload, seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        import oracles
        oracles.self_check()
        failures = []
        for rec in records:
            errors = [rec] if isinstance(rec, str) else workload.check(rec)
            if errors:
                failures.append(errors)
    finally:
        if workdir is None:
            shutil.rmtree(scratch, ignore_errors=True)

    if trace:
        traced_ops = len(ratios)
        values = spans.layer_metrics(tracer, traced_ops)
        values["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    else:
        values = {"setup_s": import_s + statistics.median(setup_times),
                  "ops_per_s": len(latencies) / sum(latencies),
                  "op_p50_ms": 1e3 * statistics.median(latencies),
                  "peak_rss_mb": peak_rss_mb}
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    result = {"correct": not failures, "attempted": len(latencies),
              "failed": len(failures), "metrics": metrics}
    raw = {"latencies_s": latencies, "setup_repeats_s": setup_times, "import_s": import_s}
    return result, failures, tracer, raw


def run_one(args) -> int:
    pin_threads()
    import_times = [import_package(), *fresh_import_times(IMPORT_REPEATS - 1)]
    OUT.mkdir(exist_ok=True)
    result, failures, tracer, raw = run_workload(args.workload, args.seed, args.seconds,
                                                 bool(args.trace),
                                                 statistics.median(import_times))
    raw["import_repeats_s"] = import_times
    stem = f"{args.workload}-seed{args.seed}"
    if tracer is not None:
        tracer.write(OUT / f"trace-{stem}.json")
        stem += "-trace"
    (OUT / f"result-{stem}.json").write_text(json.dumps({**result, **raw}, indent=2) + "\n")
    for errors in failures[:5]:
        print(f"failed: {'; '.join(errors)[:400]}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload:10s} {name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a process of its own; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
