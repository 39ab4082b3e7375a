"""The benchmark's workloads: inputs made from a seed, the call under test, its check.

Each workload is a closed loop with one client and one request in flight: the
next state is sent only after the previous one has finished.  The program only
ever sees the states generated from the workload seed.

A check returns the outcome's category.  "certified" and "refused" are the
correct outcomes; every other category is a failure that counts in failed_frac.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from pptsep import ensembles, serialize
from pptsep.ensembles import SeparableEnsemble
from pptsep.errors import NotPptError
from pptsep.generate import GenSpec, assemble_canonical_state, gen_canonical_state, haar_unitary
from pptsep.linalg import TripartiteDims

# Bound at import, so the correctness re-check never runs through a tracing wrapper.
from pptsep.ensembles import verify_ensemble as fresh_verify

from spans import Tracer

TOL = 1e-8
CORRECT = ("certified", "refused")
CLI_TIMEOUT_S = 120


def state_seeds(seed: int, count: int) -> list[int]:
    """Per-state generator seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _unit(dim: int, idx: int) -> np.ndarray:
    e = np.zeros(dim, dtype=complex)
    e[idx] = 1.0
    return e


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _commutation_defect(gens: list[np.ndarray]) -> float:
    """Largest normality or commutation defect of a family (benchmark-side ground truth)."""
    worst = 0.0
    for i, g in enumerate(gens):
        worst = max(worst, float(np.linalg.norm(g @ g.conj().T - g.conj().T @ g)))
        for h in gens[i + 1 :]:
            worst = max(worst, float(np.linalg.norm(g @ h - h @ g)))
    return worst


class Decompose:
    """decompose() on generated canonical states; every one must be certified."""

    children = False  # peak RSS is the benchmark process's own

    def __init__(self, name: str, dims: tuple[int, int, int], pool: int, explicit: bool):
        self.name, self.pool = name, pool
        self.dims = TripartiteDims(*dims)
        k, m, _ = dims
        self.kwargs = (
            {"witness": "explicit", "e_a": _unit(k, k - 1), "f_b": _unit(m, m - 1)}
            if explicit
            else {}
        )

    def make_cases(self, seed: int, tracer: Tracer | None = None) -> list:
        cases = []
        for s in state_seeds(seed, self.pool):
            with _span(tracer, "generate.gen_canonical_state"):
                state, _ = gen_canonical_state(GenSpec(self.dims, s))
            cases.append(state)
        return cases

    def run(self, state, tracer: Tracer | None = None):
        try:
            return ensembles.decompose(state, tol=TOL, **self.kwargs)
        except Exception as err:  # the check classifies it; the loop keeps going
            return err

    def check(self, state, outcome) -> str:
        if not isinstance(outcome, SeparableEnsemble):
            return "uncertified"
        _, ok = fresh_verify(state, outcome, tol=TOL)
        # The ground-truth form has N common eigenvectors, hence N product terms.
        return "certified" if ok and len(outcome.terms) == self.dims.n else "uncertified"

    def extras(self, state, tracer: Tracer) -> None:
        pass

    def close(self) -> None:
        pass


class RefuseNpt(Decompose):
    """decompose() on rank-N states built from non-commuting generators; all must refuse.

    The filtered state of such an input has exactly these generators in its
    last block row, so by the rank-N theorem it cannot be PPT: NotPptError is
    the only correct outcome.
    """

    def __init__(self, name: str, dims: tuple[int, int, int], pool: int):
        super().__init__(name, dims, pool, explicit=False)

    def make_cases(self, seed: int, tracer: Tracer | None = None) -> list:
        k, m, n = self.dims.as_tuple()
        cases = []
        for s in state_seeds(seed, self.pool):
            rng = np.random.default_rng(s)
            gens = [
                (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
                for _ in range((m - 1) + (k - 1))
            ]
            if _commutation_defect(gens) < 1e-2:
                raise RuntimeError(f"state seed {s}: generators commute; input would be PPT")
            q = haar_unitary(n, rng)
            mu = np.exp(rng.uniform(-np.log(100) / 2, np.log(100) / 2, n))
            f = q @ np.diag(mu) @ q.conj().T
            state, _ = assemble_canonical_state(self.dims, gens[: m - 1], gens[m - 1 :], f)
            cases.append(state)
        return cases

    def check(self, state, outcome) -> str:
        if type(outcome) is NotPptError:
            return "refused"
        return "wrong_class" if isinstance(outcome, Exception) else "not_refused"


class CliRoundTrip:
    """pptsep generate -> check-ppt -> decompose --out -> verify, one child at a time."""

    STEPS = ("generate", "check_ppt", "decompose", "verify")
    children = True  # peak RSS is the largest child's

    def __init__(self, name: str, dims: tuple[int, int, int], pool: int, workdir: Path, src: Path):
        self.name, self.pool = name, pool
        self.dims = TripartiteDims(*dims)
        self.workdir = workdir
        self.state_path = workdir / "state.json"
        self.cert_path = workdir / "cert.json"
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def make_cases(self, seed: int, tracer: Tracer | None = None) -> list:
        self.workdir.mkdir(parents=True, exist_ok=True)
        return state_seeds(seed, self.pool)

    def _argv(self, step: str, seed: int) -> list[str]:
        state, cert = str(self.state_path), str(self.cert_path)
        return {
            "generate": ["generate", "--kind", "canonical", "--dims", *map(str, self.dims.as_tuple()),
                         "--seed", str(seed), "--out", state],
            "check_ppt": ["check-ppt", state],
            "decompose": ["decompose", state, "--out", cert],
            "verify": ["verify", state, cert],
        }[step]

    def _child(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True,
            env=self.env, cwd=self.workdir, timeout=CLI_TIMEOUT_S,
        )

    def run(self, seed: int, tracer: Tracer | None = None):
        results = []
        for step in self.STEPS:
            with _span(tracer, f"cli.{step}"):
                try:
                    proc = self._child(["-m", "pptsep.cli", *self._argv(step, seed)])
                except subprocess.TimeoutExpired:  # run() has killed and reaped the child
                    return results
            results.append((proc.returncode, proc.stdout))
            if proc.returncode != 0:
                break
        return results

    def check(self, seed: int, outcome) -> str:
        if len(outcome) != len(self.STEPS) or any(code != 0 for code, _ in outcome):
            return "bad_exit"
        try:
            docs = dict(zip(self.STEPS, (json.loads(out) for _, out in outcome)))
        except json.JSONDecodeError:
            return "bad_stdout"
        if not all(isinstance(doc, dict) for doc in docs.values()):
            return "bad_stdout"
        n = self.dims.n
        if not (
            docs["check_ppt"].get("overall_ppt") is True
            and docs["decompose"].get("status") == "ok"
            and docs["decompose"].get("terms") == n
            and docs["decompose"].get("pass") is True
            and docs["verify"].get("pass") is True
        ):
            return "uncertified"
        state, _ = gen_canonical_state(GenSpec(self.dims, seed))
        ensemble = serialize.load_ensemble(self.cert_path)
        _, ok = fresh_verify(state, ensemble, tol=TOL)
        return "certified" if ok and len(ensemble.terms) == n else "uncertified"

    def extras(self, seed: int, tracer: Tracer) -> None:
        """Time start-up, generation and serialize in-process on the round trip's files."""
        with tracer.span("cli.startup"):
            self._child(["-c", "import pptsep.cli"]).check_returncode()
        with tracer.span("generate.gen_canonical_state"):
            gen_canonical_state(GenSpec(self.dims, seed))
        with tracer.span("serialize.load_state"):
            state = serialize.load_state(self.state_path)
        with tracer.span("serialize.save_state"):
            serialize.save_state(state, self.workdir / "copy.state.json")
        with tracer.span("serialize.load_ensemble"):
            ensemble = serialize.load_ensemble(self.cert_path)
        with tracer.span("serialize.save_ensemble"):
            serialize.save_ensemble(ensemble, self.workdir / "copy.cert.json")
        tracer.counts[(tracer.state, "serialize.state_bytes")] = self.state_path.stat().st_size

    def close(self) -> None:
        for path in self.workdir.glob("*.json"):
            path.unlink()
        if self.workdir.exists():
            self.workdir.rmdir()


def make_workloads(workdir: Path, src: Path) -> dict:
    """All workloads by name, in the order `--workload all` runs them."""
    items = [
        Decompose("search-mid", (4, 4, 8), pool=32, explicit=False),
        Decompose("explicit-large", (6, 6, 8), pool=16, explicit=True),
        CliRoundTrip("cli-roundtrip", (6, 6, 8), pool=16, workdir=workdir, src=src),
        RefuseNpt("refuse-npt", (4, 4, 8), pool=32),
    ]
    return {w.name: w for w in items}
