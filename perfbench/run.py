"""Run one dpgap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports dpgap from its ``src``.
With ``--trace 0`` it times whole rounds of the workload for about S seconds
and reports the end-to-end metrics; with ``--trace 1`` it times one plain
round in a fresh interpreter and one round here with every layer wrapped by
``tracing.Tracer``, and reports the per-layer metrics. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The same
object, with round times and library versions, goes to ``perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 3

# code for fresh interpreters, which get src/ and perfbench/ on their path
# and the workload name and seed as arguments: the set-up that the benchmark
# process does before its first timed call, and one plain round
_PRELUDE = ("import sys; sys.path[:0] = sys.argv[1:3]; import checks, workloads; "
            "from time import perf_counter; w = workloads.make(sys.argv[3], int(sys.argv[4])); ")
_SETUP = _PRELUDE + "print('ready', flush=True)"
_PLAIN_ROUND = _PRELUDE + ("t = perf_counter(); w.run_round(checks.Ledger()); "
                           "print(perf_counter() - t, flush=True)")

# per-layer metric -> (span name, what to sum over its spans)
LAYER_METRICS = {
    "solve.linear_s": ("solve.linear", "seconds"),
    "solve.linear_calls": ("solve.linear", "calls"),
    "solve.self_s": ("solve.minimize", "self_seconds"),
    "assembly.hessian_s": ("assembly.hessian", "seconds"),
    "assembly.hessian_calls": ("assembly.hessian", "calls"),
    "assembly.gradient_s": ("assembly.gradient", "seconds"),
    "assembly.gradient_calls": ("assembly.gradient", "calls"),
    "assembly.energy_s": ("assembly.energy", "seconds"),
    "assembly.energy_calls": ("assembly.energy", "calls"),
    "mesh.build_s": ("mesh.build", "seconds"),
    "mesh.locate_s": ("mesh.locate", "seconds"),
    "mesh.located_points": ("mesh.locate", "work"),
    "orlicz.integrand_s": ("orlicz.integrand", "seconds"),
    "orlicz.integrand_points": ("orlicz.integrand", "work"),
    "orlicz.conjugate_s": ("orlicz.conjugate", "seconds"),
    "orlicz.luxemburg_s": ("orlicz.luxemburg", "seconds"),
    "classifier.classify_s": ("classifier.classify", "seconds"),
    "classifier.cells": ("classifier.classify", "calls"),
    "cutoffs.inner_radius_s": ("cutoffs.inner_radius", "seconds"),
    "cutoffs.build_s": ("cutoffs.build", "seconds"),
    "cutoffs.normalization_solves": ("cutoffs.normalization", "calls"),
    "geometry.fields_s": ("geometry.fields", "seconds"),
}


def _unit(name):
    return "s" if name.endswith("_s") else "count"


def fresh_interpreter(code, name, seed):
    """(seconds from its start to its first line, that line) of a child."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, str(SRC), str(HERE), name, str(seed)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"child interpreter exited with {proc.returncode}")
    return elapsed, line.strip()


def timed_rounds(workload, ledger, seconds):
    """Whole rounds while the next one is expected to end within the budget."""
    times, first = [], None
    start = perf_counter()
    while True:
        t0 = perf_counter()
        out = workload.run_round(ledger)
        times.append(perf_counter() - t0)
        workload.check_round(out, ledger)
        if first is None:
            first = workload.fingerprint(out)
        del out
        if perf_counter() - start + statistics.mean(times) > seconds:
            break
    workload.check_run(first, ledger)
    return times


def traced_rounds(workload, ledger, name, seed):
    """A plain round in a fresh interpreter, then a traced round here. Both
    are the first round of their process, so their difference is the cost
    of tracing and not that of a first round."""
    import tracing
    import workloads

    plain = float(fresh_interpreter(_PLAIN_ROUND, name, seed)[1])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        out = workload.run_round(ledger)
        traced = perf_counter() - t0
    finally:
        tracer.uninstall()
    workload.check_round(out, ledger)
    workload.check_run(workload.fingerprint(out), ledger)

    metrics = {}
    for metric, (span, kind) in LAYER_METRICS.items():
        metrics[metric] = getattr(tracer, kind)(span)
    levels = (out or {}).get("levels", [])
    metrics["solve.newton_iterations"] = sum(lv["iters_conforming"] + lv["iters_enriched"]
                                             for lv in levels)
    per_level = tracer.level_seconds()
    for n in workloads.ACCEPTANCE_LEVELS:
        metrics[f"level.n{n}_s"] = per_level.get(n, 0.0)
    metrics["trace.overhead_s"] = traced - plain
    return metrics, [plain, traced], tracer


def versions():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dpgap" / "__init__.py").is_file():
        print(f"perfbench: no dpgap source tree at {SRC / 'dpgap'}", file=sys.stderr)
        return 2
    # one process and one thread of load: BLAS starts no threads of its own
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import checks
    import dpgap
    import workloads

    if Path(dpgap.__file__).resolve().parent != SRC / "dpgap":
        print(f"perfbench: imported dpgap from {dpgap.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    setup = ([fresh_interpreter(_SETUP, args.workload, args.seed)[0]
              for _ in range(SETUP_PROBES)] if not args.trace else [])
    workload = workloads.make(args.workload, args.seed)
    ledger = checks.Ledger()
    if args.trace:
        values, times, tracer = traced_rounds(workload, ledger, args.workload, args.seed)
    else:
        times = timed_rounds(workload, ledger, args.seconds)
        values = {
            "run_s": statistics.median(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units.get(name) or _unit(name)}
                    for name, value in values.items()},
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  round_s=times, setup_probes_s=setup, problems=ledger.problems,
                  failures=ledger.failures, versions=versions())
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    for line in ledger.failures + ledger.problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"{args.workload}: {len(times)} round(s), round_s = "
          + ", ".join(f"{t:.3f}" for t in times))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
