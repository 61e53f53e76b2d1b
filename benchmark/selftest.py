"""Self-tests of the benchmark itself.

    python3 benchmark/selftest.py

1. The metric names and units the benchmark prints match BENCHMARK.json.
2. Two seeds give identical call, node and other counts in the trace of one
   pass, so the seed does not change the work.
3. A corrupted output fails its check and counts in the error rate: an
   off-by-one N_D in a ``count`` summary and in a ``chain.csv`` row.

Exits 0 when every test passes, 1 otherwise.  Takes about two minutes.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = (11, 12)


def check_names() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = tracing.run_metrics([tracing.layer_metrics([], 0.0)], 0.0)
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    problems = []
    if {k: u for k, (_, u) in layer.items()} != want_layer:
        problems.append(f"per-layer metrics differ: printed {sorted(layer)}, "
                        f"declared {sorted(want_layer)}")
    if run.END_TO_END_UNITS != want_e2e:
        problems.append(f"end-to-end metrics differ: printed "
                        f"{run.END_TO_END_UNITS}, declared {want_e2e}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    return problems


def traced_counts(workload, seed: int, work: Path) -> dict:
    (work / f"in{seed}").mkdir()
    inputs = workload.make_inputs(seed, work / f"in{seed}")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall, outcomes = run.run_pass(workload, inputs, work / f"out{seed}", tracer)
    finally:
        tracer.uninstall()
    if any(code != 0 for _, code, _, _ in outcomes):
        raise RuntimeError(f"{workload.name} seed {seed}: an operation failed")
    metrics = tracing.layer_metrics(tracer.take(), wall)
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")}


def check_seed_invariance(workload, work: Path) -> list[str]:
    a, b = (traced_counts(workload, seed, work) for seed in SEEDS)
    return [f"{workload.name}: {k} is {a[k]} at seed {SEEDS[0]}, "
            f"{b[k]} at seed {SEEDS[1]}" for k in a if a[k] != b[k]]


def _bump_first(path: Path, column: str) -> None:
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    rows[0][column] = str(int(rows[0][column]) + 1)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def check_corruption(work: Path) -> list[str]:
    workload = workloads.WORKLOADS["inertia-count"]
    (work / "in").mkdir()
    inputs = workload.make_inputs(SEEDS[0], work / "in")
    _, outcomes = run.run_pass(workload, inputs, work / "out")
    ref = workload.reference(inputs)
    problems = []
    clean = run.check_outcomes(workload, inputs, ref, outcomes)
    if clean:
        problems.append(f"uncorrupted outputs failed: {clean}")
    outs = {label: value for label, _, value, _ in outcomes}
    summary_path = outs["count-dirichlet"] / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["results"]["count"] += 1
    summary_path.write_text(json.dumps(summary))
    _bump_first(outs["chain"] / "chain.csv", "n_dirichlet")
    failed = run.check_outcomes(workload, inputs, ref, outcomes)
    labels = sorted(m.split()[2].rstrip(":") for m in failed)
    if labels != ["chain", "count-dirichlet"]:
        problems.append(f"off-by-one N_D: expected chain and count-dirichlet "
                        f"to fail, got {failed}")
    return problems


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    results = {}
    try:
        results["metric names match BENCHMARK.json"] = check_names()
        for name in workloads.WORKLOADS:
            (work / name).mkdir()
            results[f"{name}: seed does not change the work"] = (
                check_seed_invariance(workloads.WORKLOADS[name], work / name))
        (work / "corrupt").mkdir()
        results["corrupted N_D is counted as failed"] = check_corruption(
            work / "corrupt")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for test, problems in results.items():
        print(f"{'FAIL' if problems else 'PASS'} {test}")
        for p in problems:
            print(f"    {p}")
    return 1 if any(results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
