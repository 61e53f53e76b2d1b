"""weylcheck benchmark: one workload, measured for a fixed time.

    python3 benchmark/run.py --workload dense-verify --seed 1 --seconds 30 --trace 0

Run from the root of a weylcheck checkout; the package is imported from
``src/``.  A pass is the workload's fixed sequence of operations (CLI calls
through ``weylcheck.cli.main`` and library calls) in this process.  Passes
repeat while the next one, taking the median pass time so far, would end
within ``--seconds``; there is always at least one.  Every operation's
output is checked against an independent reference after the timed passes.

``--trace 0`` reports the end-to-end metrics: the median pass wall time,
the peak RSS of this process up to the end of the first pass, and the
set-up time (median over eleven fresh interpreters of ``import weylcheck``
plus generating the seed's inputs; six run before the passes and five after
the checks, so the samples span the whole run).  ``--trace 1`` runs one
untraced pass, then traced passes (see ``tracing.py``), and reports the
per-layer metrics of the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with the machine description, goes to ``.bench_out/`` and, for traced runs,
the spans of the last traced pass to a CSV beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_BEFORE, SETUP_AFTER = 6, 5  # fresh-interpreter set-ups
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# One set-up in a fresh interpreter: import the package and generate the
# seed's inputs; prints the seconds taken.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
src, bench, name, seed, work = sys.argv[1:]
sys.path[:0] = [src, bench]
import weylcheck
import workloads
from pathlib import Path
workloads.WORKLOADS[name].make_inputs(int(seed), Path(work))
print(time.perf_counter() - start)
"""


def measure_setup(name: str, seed: int, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(dir=WORK) as work:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH), name,
                 str(seed), work],
                capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def machine() -> dict:
    import numpy
    import scipy

    def blas(module):
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_pass(workload, inputs: dict, out: Path, tracer=None):
    """One pass; returns (wall seconds, [(label, exit code, value, seconds)])."""
    outcomes = []
    start = perf_counter()
    for label, op in workload.ops(inputs, out):
        if tracer:
            op = tracer.wrap("op." + label, op)
        t0 = perf_counter()
        try:
            code, value = op()
        except Exception as exc:  # an operation that crashes counts as failed
            code, value = None, exc
        outcomes.append((label, code, value, perf_counter() - t0))
    return perf_counter() - start, outcomes


def check_outcomes(workload, inputs: dict, ref: dict, outcomes) -> list[str]:
    """One message per failed operation."""
    failures = []
    for k, (label, code, value, _) in enumerate(outcomes):
        if code != 0:
            failures.append(f"op {k} {label}: exit {code} {value!r}"[:300])
            continue
        try:
            problems = workload.check(label, value, inputs, ref)
        except Exception as exc:  # unreadable output fails the operation
            problems = [f"check raised {exc!r}"]
        if problems:
            failures.append(f"op {k} {label}: " + "; ".join(problems)[:300])
    return failures


def tail_percentile(samples: list[float]):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with fewer than eleven samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weylcheck" / "__init__.py").is_file():
        print(f"error: no weylcheck package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=stem + "-", dir=WORK))
    try:
        setup_samples = measure_setup(workload.name, args.seed, SETUP_BEFORE)
        inputs = workload.make_inputs(args.seed, work)

        walls, outcomes, per_pass, untraced = [], [], [], None
        tracer = tracing.Tracer() if args.trace else None
        start = perf_counter()
        if tracer:
            untraced, oc = run_pass(workload, inputs, work / "untraced")
            outcomes.extend(oc)
            tracer.install()
        try:
            while not walls or (perf_counter() - start + statistics.median(walls)
                                 <= args.seconds):
                wall, oc = run_pass(workload, inputs, work / f"pass{len(walls)}",
                                    tracer)
                walls.append(wall)
                outcomes.extend(oc)
                if len(walls) == 1:
                    # later passes can grow the heap by fragmentation alone,
                    # so the peak is taken over set-up and one pass
                    peak_rss_mb = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if tracer:
                    spans = tracer.take()
                    per_pass.append(tracing.layer_metrics(spans, wall))
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            tracing.write_spans(OUT / f"{stem}.spans.csv", spans)

        ref = workload.reference(inputs)
        failures = check_outcomes(workload, inputs, ref, outcomes)
        setup_samples += measure_setup(workload.name, args.seed, SETUP_AFTER)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer:
        metrics = {k: {"value": v, "unit": u} for k, (v, u)
                   in tracing.run_metrics(per_pass, untraced).items()}
    else:
        values = {"wall_s": statistics.median(walls), "peak_rss_mb": peak_rss_mb,
                  "setup_s": statistics.median(setup_samples)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}

    attempted = len(outcomes)
    tail = tail_percentile(walls)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "pass_wall_s": walls, "untraced_pass_wall_s": untraced,
        "tail_percentile": tail, "setup_samples_s": setup_samples,
        "op_seconds": [(label, seconds) for label, _, _, seconds in outcomes],
        "error_rate": len(failures) / attempted, "failures": failures,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"machine: {json.dumps(record['machine'])}")
    print(f"{workload.name}: {len(walls)} passes, median "
          f"{statistics.median(walls):.3f} s"
          + (f", p{tail[0]:.0f} {tail[1]:.3f} s" if tail else
             " (no percentile has ten passes above it)")
          + (f"; untraced pass {untraced:.3f} s" if tracer else ""))
    print(f"error_rate: {len(failures)}/{attempted} = {len(failures) / attempted}")
    for message in failures:
        print(f"FAILED {message}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
