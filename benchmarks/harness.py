"""Measurement loop, metrics and environment record for the benchmark."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import subprocess
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Tracer, installed, self_times
from workloads import CORRECT

SETUP_REPS = 5  # setup_s is the median of this many set-ups

# Layers reported by self time.
SELF_LAYERS = (
    "canonical.find_witness",
    "linalg.numeric_rank",
    "ppt.ppt_report",
    "canonical.filter_corner",
    "canonical.rotate_to_corner",
    "linalg.conjugate_local",
    "canonical.extract_canonical",
    "ensembles.simultaneous_diagonalize",
    "ensembles.ensemble_from_form",
    "ensembles.verify_ensemble",
)
# Metrics that are the median duration of one kind of span.
DURATION_METRICS = {
    "ensembles.decompose.ms": "ensembles.decompose",
    "serialize.save_state.ms": "serialize.save_state",
    "serialize.load_state.ms": "serialize.load_state",
    "serialize.save_ensemble.ms": "serialize.save_ensemble",
    "serialize.load_ensemble.ms": "serialize.load_ensemble",
    "cli.startup_ms": "cli.startup",
    "cli.generate_ms": "cli.generate",
    "cli.check_ppt_ms": "cli.check_ppt",
    "cli.decompose_ms": "cli.decompose",
    "cli.verify_ms": "cli.verify",
    "generate.gen_canonical_state.ms": "generate.gen_canonical_state",
}


@dataclass
class Run:
    """Per-state wall times and outcome categories of one measured loop."""

    times: list[float] = field(default_factory=list)
    traced_times: list[float] = field(default_factory=list)
    categories: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    @property
    def attempted(self) -> int:
        return sum(self.categories.values())

    @property
    def failed(self) -> int:
        return self.attempted - sum(self.categories[c] for c in CORRECT)


def setup(workload, seed: int, tracer: Tracer | None = None) -> tuple[list, list[float], list[str]]:
    """Generate the inputs and warm up once, SETUP_REPS times; returns the last inputs."""
    times, warm_failures = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        cases = workload.make_cases(seed, tracer)
        category = workload.check(cases[0], workload.run(cases[0]))
        times.append(time.perf_counter() - t0)
        if category not in CORRECT:
            warm_failures.append(f"warm-up: {category}")
    return cases, times, warm_failures


def _timed(workload, case, tracer: Tracer | None) -> tuple[float, object]:
    t0 = time.perf_counter()
    outcome = workload.run(case, tracer)
    return time.perf_counter() - t0, outcome


def _classify(run: Run, workload, case, outcome, i: int) -> None:
    category = workload.check(case, outcome)
    run.categories[category] += 1
    if category not in CORRECT and len(run.failures) < 5:
        run.failures.append(f"state {i}: {category}: {outcome!r}"[:300])


def measure(workload, cases: list, seconds: float, tracer: Tracer | None = None) -> Run:
    """Closed loop over the inputs until `seconds` have passed (at least one state).

    Untraced, each state runs once.  Traced, each state runs untraced and then
    traced on the same input, so the pair gives the tracing overhead.  Checks
    and in-process extras run outside the timed calls.
    """
    run = Run(tracer=tracer)
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        case = cases[i % len(cases)]
        dt, outcome = _timed(workload, case, None)
        run.times.append(dt)
        _classify(run, workload, case, outcome, i)
        if tracer is not None:
            tracer.state = i
            with installed(tracer):
                dt, outcome = _timed(workload, case, tracer)
            run.traced_times.append(dt)
            workload.extras(case, tracer)
            tracer.state = None
            _classify(run, workload, case, outcome, i)
        i += 1
    return run


def tail(times: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile that leaves at least ten samples above it.

    Returns (value, percentile, samples).  Below 21 samples that percentile
    would not lie above the median, so the maximum is reported at p100.
    """
    xs = sorted(times)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(run: Run, setup_times: list[float], children: bool) -> dict:
    tail_s, tail_pct, n = tail(run.times)
    return {
        "states_per_s": (len(run.times) / sum(run.times), "1/s"),
        "state_p50_ms": (statistics.median(run.times) * 1e3, "ms"),
        "state_tail_ms": (tail_s * 1e3, "ms"),
        "failed_frac": (run.failed / run.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(children), "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }, {"state_tail_pct": tail_pct, "samples": n, "setup_reps": len(setup_times)}


def _per_state(run: Run, full_order: int) -> dict[str, list[float]]:
    """Metric name -> one value per traced state, summed over that state's spans."""
    tracer = run.tracer
    sums: dict[str, Counter] = defaultdict(Counter)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if span.state is None:
            continue
        sums[f"{span.name}.self_ms"][span.state] += own * 1e3
        sums[f"{span.name}.ms"][span.state] += span.duration * 1e3
        sums[f"{span.name}.calls"][span.state] += 1
        if span.name == "linalg.numeric_rank" and span.size == full_order:
            sums["linalg.numeric_rank.full_calls"][span.state] += 1
    for (state, name), count in tracer.counts.items():
        sums[name][state] += count
    witness = sums["canonical.find_witness.self_ms"]
    for state, ms in sums["ensembles.decompose.ms"].items():
        sums["canonical.find_witness.share"][state] = witness[state] / ms
    states = range(len(run.traced_times))
    return defaultdict(lambda: [0.0] * len(states), {
        metric: [values[s] for s in states] for metric, values in sums.items()
    })


def per_layer(run: Run, full_order: int) -> dict:
    """Per-layer medians over traced states; a layer never called there reads 0."""
    per_state = _per_state(run, full_order)
    out = {}
    for name in SELF_LAYERS:
        out[f"{name}.self_ms"] = (statistics.median(per_state[f"{name}.self_ms"]), "ms")
    for metric, unit in (
        ("linalg.numeric_rank.calls", "count"),
        ("linalg.numeric_rank.full_calls", "count"),
        ("ppt.ppt_report.calls", "count"),
        ("canonical.find_witness.share", "ratio"),
        ("canonical.find_witness.candidates", "count"),
        ("serialize.state_bytes", "bytes"),
    ):
        out[metric] = (float(statistics.median(per_state[metric])), unit)
    for metric, name in DURATION_METRICS.items():
        durations = [s.duration * 1e3 for s in run.tracer.spans if s.name == name]
        out[metric] = (statistics.median(durations) if durations else 0.0, "ms")
    out["errors.refused"] = (run.categories["refused"], "count")
    out["errors.wrong_class"] = (run.categories["wrong_class"], "count")
    out["trace.states"] = (len(run.traced_times), "count")
    out["trace.overhead_frac"] = (sum(run.traced_times) / sum(run.times) - 1.0, "ratio")
    return out


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None where it cannot be asked."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_sha(root: Path) -> str:
    """HEAD of the checkout, or "unknown"; git does not look above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path, seed: int, traced: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": _git_sha(root),
        "seed": seed,
        "trace": traced,
    }


ROADMAP_STAGES = (
    ("decompose", "ensembles.decompose"),
    ("witness search", "canonical.find_witness"),
    ("extract_canonical", "canonical.extract_canonical"),
    ("ensemble", "ensembles.ensemble_from_form"),
    ("verify", "ensembles.verify_ensemble"),
)


def stage_tables(traced: dict) -> str:
    """The ROADMAP baseline table (inclusive stage times) and a per-layer self-time table.

    `traced` maps a row label such as "search-mid 4,4,8" to (Run, matrix order KMN).
    """
    per_state = {label: _per_state(run, order) for label, (run, order) in traced.items()}
    lines = ["| workload dims | " + " | ".join(stage for stage, _ in ROADMAP_STAGES) + " |"]
    lines.append("|" + "---|" * (len(ROADMAP_STAGES) + 1))
    for label, values in per_state.items():
        cells = [f"{statistics.median(values[f'{name}.ms']):.1f} ms" for _, name in ROADMAP_STAGES]
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    lines += ["", "| layer self time | " + " | ".join(traced) + " |"]
    lines.append("|" + "---|" * (len(traced) + 1))
    for name in SELF_LAYERS:
        cells = [f"{statistics.median(v[f'{name}.self_ms']):.2f} ms" for v in per_state.values()]
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    return "\n".join(lines)
