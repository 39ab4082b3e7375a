"""Benchmark of the certify-or-refuse pipeline: end-to-end metrics, or per-layer ones.

    python3 benchmarks/run.py --workload search-mid --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root.  The program is imported from ./src; BLAS is
pinned to one thread here and in every CLI child.  Untraced runs report the
end-to-end metrics, traced runs the per-layer ones.  Human-readable lines come
first, then one JSON record with the environment, then the result as the last
line.  The exit code is 1 when any outcome was wrong, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# The result line carries the metrics that repeat within their bounds on a host
# whose speed drifts.  The others are printed and recorded but kept out of it:
# the host often runs faster than its usual speed, for seconds or for a whole
# run, so the mean (states_per_s), the median and even the 90th percentile move
# by up to a third from run to run, while the tail sees the usual speed in
# almost every run.  failed_frac is 0 whenever the program is correct; the
# result's "failed" count carries it.
RESULT_E2E = ("state_tail_ms", "peak_rss_mb", "setup_s")
TABLE_WORKLOADS = ("search-mid", "explicit-large")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, help="a workload name, a comma-separated list, or all"
    )
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _print_metrics(metrics: dict, notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "state_tail_ms":
            note = f"  (p{notes['state_tail_pct']:.1f} of {notes['samples']} states)"
        elif name == "setup_s":
            note = f"  (median of {notes['setup_reps']} set-ups)"
        print(f"  {name:40s} {value:14.6g} {unit}{note}")


def run_one(harness, workload, root: Path, seed: int, seconds: float, traced: bool):
    tracer = harness.Tracer() if traced else None
    try:
        cases, setup_times, warm_failures = harness.setup(workload, seed, tracer)
        run = harness.measure(workload, cases, seconds, tracer)
    finally:
        workload.close()
    run.failures[:0] = warm_failures
    correct = run.failed == 0 and not warm_failures
    notes = {}
    if traced:
        metrics = harness.per_layer(run, workload.dims.total)
    else:
        metrics, notes = harness.end_to_end(run, setup_times, workload.children)
    print(f"workload {workload.name}  dims {workload.dims.as_tuple()}  seed {seed}  "
          f"seconds {seconds:g}  trace {int(traced)}")
    _print_metrics(metrics, notes)
    print(f"  outcomes {dict(run.categories)}")
    for failure in run.failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    record = {
        "workload": workload.name,
        "environment": harness.environment(root, seed, traced),
        "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print("record " + json.dumps(record))
    if not traced:
        metrics = {k: metrics[k] for k in RESULT_E2E}
    return run, metrics, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "pptsep" / "__init__.py").is_file():
        print(f"error: no pptsep sources under {src}", file=sys.stderr)
        return 2
    # Before numpy is imported, here and (through the inherited environment) in CLI children.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src))
    import harness
    import workloads

    traced = bool(args.trace)
    workdir = root / ".bench_build" / f"work-{os.getpid()}"
    available = workloads.make_workloads(workdir, src)
    names = list(available) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in available]
    if unknown:
        print(f"error: unknown workload {', '.join(unknown)}; have {', '.join(available)}",
              file=sys.stderr)
        return 2
    results, tables = {}, {}
    for name in names:
        workload = available[name]
        run, metrics, correct = run_one(harness, workload, root, args.seed, args.seconds, traced)
        results[name] = {
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        if traced and name in TABLE_WORKLOADS:
            dims = ",".join(map(str, workload.dims.as_tuple()))
            tables[f"{name} {dims}"] = (run, workload.dims.total)
    if tables:
        print(harness.stage_tables(tables))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
