"""mfgfem benchmark: one workload, closed loop, one caller.

    python3 perfbench/run.py --workload solve_l7 --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source checkout; mfgfem is imported from the
checkout's ``src``.  Each iteration builds the workload's inputs afresh (so no
cache on a space, mesh or tensor survives into the next unit), times one unit
of work, then checks its output; the next iteration starts only when the
previous one has finished.  The loop runs until ``--seconds`` have passed.

With ``--trace 0`` the end-to-end metrics are reported: median wall and CPU
time of a unit, set-up time (imports plus input construction) and the
process's peak resident memory by the end of its first unit; a later unit
fails if that peak has since grown by more than half.  With ``--trace 1``
untraced units run for a quarter of the time, then traced units, and the
per-layer metrics (medians over the traced iterations) are reported; the spans
go to ``.perfbench_out``.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# BLAS/OpenMP pools are pinned to at most this many threads (and at most nproc).
# SuperLU calls BLAS; a second thread bought no wall time on solve_l7 (4.9 s vs
# 5.0 s per unit), doubled its CPU time, and made runs spread three times wider.
MAX_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Import time is sampled in this many fresh interpreters besides this one.
IMPORT_PROBES = 6
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import mfgfem; "
                "print(time.perf_counter() - t)")

# An untraced unit fails when the process's resident-memory high-water mark
# exceeds the first unit's by more than this share: memory kept from one unit
# to the next (a leak, or a cache that outlives its inputs).  Heap fragmentation
# from repeating the units raised it by at most 23% (study_ladder, 14-17 units
# in 30 s).  The last unit's reading is kept in the result file.
RSS_GROWTH_LIMIT = 0.5

# A traced run spends this share of --seconds on untraced units, the baseline
# of the tracing overhead.
UNTRACED_SHARE = 0.25

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

WORKLOAD_NAMES = ("solve_l7", "study_ladder", "verify_l5")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_threads():
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def probe_import_seconds():
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def run_iteration(workload, seed, solve_log, tracer=None, index=0):
    """Construct inputs, run and time one unit, check it.  Returns a sample."""
    from mfgfem.errors import MFGError

    def span(name):
        return tracer.span(name, index) if tracer else nullcontext()

    gc.collect()  # the previous iteration's garbage is not this unit's cost
    roots = []
    with span("construct") as root:
        roots.append(root)
        start = time.perf_counter()
        inputs = workload.construct(seed, OUT)
        construct_s = time.perf_counter() - start
    failures = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with span("unit") as root:
            roots.append(root)
            output = workload.unit(inputs)
    except MFGError as exc:
        output = None
        failures.append(f"{type(exc).__name__}: {exc}")
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    solves = solve_log.take()
    if not failures:
        with span("check"):
            failures = workload.check(inputs, output, solves)
    for failure in failures:
        print(f"{workload.name} unit {index} failed: {failure}", file=sys.stderr)
    sample = {"wall_s": wall, "cpu_s": cpu, "construct_s": construct_s,
              "peak_rss_mb": peak_rss_mb, "failed": bool(failures)}
    if tracer:
        sample["layer_roots"] = roots
    return sample


def rss_growth_failure(first_mb, now_mb):
    growth = now_mb / first_mb - 1.0
    if growth > RSS_GROWTH_LIMIT:
        return (f"peak resident memory grew {growth:.0%} over the first unit's "
                f"({first_mb:.1f} MB to {now_mb:.1f} MB)")
    return None


def run_loop(workload, seed, seconds, solve_log, tracer=None, first_index=0):
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        sample = run_iteration(workload, seed, solve_log, tracer,
                               first_index + len(samples))
        # spans held by the tracer grow memory by design; check untraced units only
        failure = (rss_growth_failure(samples[0]["peak_rss_mb"], sample["peak_rss_mb"])
                   if samples and tracer is None else None)
        if failure:
            print(f"{workload.name} unit {first_index + len(samples)} failed: {failure}",
                  file=sys.stderr)
            sample["failed"] = True
        samples.append(sample)
    return samples


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mfgfem" / "__init__.py").is_file():
        print(f"error: no mfgfem sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import mfgfem
    import_s = time.perf_counter() - start
    if Path(mfgfem.__file__).resolve().parent != SRC / "mfgfem":
        print(f"error: imported mfgfem from {mfgfem.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy
    import scipy
    from tracing import PER_LAYER, Tracer
    from workloads import WORKLOADS, SolveLog

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    solve_log = SolveLog()
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "nproc": len(os.sched_getaffinity(0)), "blas_threads": threads,
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "python": platform.python_version(), "machine": platform.machine(),
           "loop": "closed, one caller"}

    with solve_log.installed():
        if args.trace:
            untraced = run_loop(workload, args.seed, args.seconds * UNTRACED_SHARE,
                                solve_log)
            tracer = Tracer()
            with tracer.installed():
                samples = run_loop(workload, args.seed,
                                   args.seconds * (1 - UNTRACED_SHARE), solve_log,
                                   tracer, first_index=len(untraced))
            values = tracer.median_layer_metrics([s["layer_roots"] for s in samples])
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in PER_LAYER}
            untraced_wall = statistics.median(s["wall_s"] for s in untraced)
            traced_wall = statistics.median(s["wall_s"] for s in samples)
            env["units"] = [len(untraced), len(samples)]
            env["untraced_wall_s"] = untraced_wall
            env["traced_wall_s"] = traced_wall
            env["tracing_overhead_s"] = traced_wall - untraced_wall
            samples = untraced + samples
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json", env)
        else:
            samples = run_loop(workload, args.seed, args.seconds, solve_log)
            imports = [import_s] + [probe_import_seconds() for _ in range(IMPORT_PROBES)]
            walls = [s["wall_s"] for s in samples]
            values = {
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(s["cpu_s"] for s in samples),
                "setup_s": (statistics.median(imports)
                            + statistics.median(s["construct_s"] for s in samples)),
                # after the first unit: later iterations only add the heap
                # fragmentation of repeating the work in one process
                "peak_rss_mb": samples[0]["peak_rss_mb"],
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
            env["units"] = len(samples)
            env["peak_rss_mb_last"] = samples[-1]["peak_rss_mb"]
            env["wall_s_quartiles"] = quartiles(walls)
            env["import_s_samples"] = imports

    failed = sum(s["failed"] for s in samples)
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"env": env, "samples": samples, "result": result}, fh, indent=1)
    print("# " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
