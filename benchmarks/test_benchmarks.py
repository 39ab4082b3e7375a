"""Tests for the benchmark's own code.  Run: PYTHONPATH=src python -m pytest benchmarks"""

from __future__ import annotations

import importlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import harness
import pptsep.ensembles
import spans
import workloads
from pptsep.errors import RankMismatch
from spans import Span, Tracer


def wrapped_targets() -> list[str]:
    """The layer attributes that currently hold a tracing wrapper."""
    out = []
    for module_name, attr, _ in spans.LAYER_TARGETS + spans.COUNT_TARGETS:
        module = importlib.import_module(module_name)
        if hasattr(getattr(module, attr), "__wrapped__"):
            out.append(f"{module_name}.{attr}")
    return out


def test_self_time_subtracts_the_union_of_child_spans():
    synthetic = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("c", 8.0, 9.5, 0, 0),  # overlaps b: the overlap is subtracted once
    ]
    assert spans.self_times(synthetic) == pytest.approx([2.5, 2.0, 1.0, 4.0, 1.5])


def test_tracer_spans_nest_in_call_order():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            with tracer.span("deep"):
                pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None), ("first", 0), ("second", 0), ("deep", 2)
    ]
    outer = tracer.spans[0]
    assert all(outer.start <= s.start <= s.end <= outer.end for s in tracer.spans)


class Probe:
    """A workload whose only work is to report which layer attributes are wrapped."""

    children = False

    def make_cases(self, seed, tracer=None):
        return [0]

    def run(self, case, tracer=None):
        return wrapped_targets()

    def check(self, case, outcome):
        return "certified"

    def extras(self, case, tracer):
        pass


def test_wrappers_only_live_during_traced_calls():
    assert wrapped_targets() == []
    untraced = harness.measure(Probe(), [0], 0.01)
    assert untraced.tracer is None and untraced.attempted >= 1
    assert wrapped_targets() == []

    seen = []

    class Recording(Probe):
        def check(self, case, outcome):
            seen.append(outcome)
            return "certified"

    harness.measure(Recording(), [0], 0.01, Tracer())
    expected = [f"{m}.{a}" for m, a, _ in spans.LAYER_TARGETS + spans.COUNT_TARGETS]
    assert seen[0] == [] and seen[1] == expected  # untraced, then traced, per state
    assert wrapped_targets() == []


def test_wrappers_are_removed_when_the_traced_call_raises():
    class Boom(Probe):
        def run(self, case, tracer=None):
            if tracer is not None:
                raise KeyboardInterrupt
            return []

    with pytest.raises(KeyboardInterrupt):
        harness.measure(Boom(), [0], 0.01, Tracer())
    assert wrapped_targets() == []


@pytest.fixture(scope="module")
def small_search():
    w = workloads.Decompose("small", (3, 3, 4), pool=2, explicit=False)
    return w, w.make_cases(seed=5)


def test_traced_decompose_records_the_real_call_path(small_search):
    workload, cases = small_search
    run = harness.measure(workload, cases, 0.05, Tracer())
    assert run.failed == 0 and run.categories["certified"] == run.attempted
    names = [s.name for s in run.tracer.spans]
    for s in run.tracer.spans:
        if s.name == "canonical.find_witness":
            assert names[s.parent] == "ensembles.decompose"
        if s.name == "ppt.ppt_report":
            assert names[s.parent] == "canonical.extract_canonical"
    layers = harness.per_layer(run, workload.dims.total)
    assert layers["linalg.numeric_rank.calls"][0] == 3
    assert layers["linalg.numeric_rank.full_calls"][0] == 2
    assert layers["ppt.ppt_report.calls"][0] == 1
    assert layers["canonical.find_witness.candidates"][0] == 3 * 3 + 256
    assert 0 < layers["canonical.find_witness.share"][0] < 1
    assert layers["errors.wrong_class"][0] == 0


def test_failed_frac_counts_an_injected_wrong_verdict(small_search, monkeypatch):
    workload, cases = small_search
    real = pptsep.ensembles.decompose
    calls = []

    def every_other_drops_a_term(state, **kwargs):
        ensemble = real(state, **kwargs)
        calls.append(1)
        if len(calls) % 2 == 0:
            return replace(ensemble, terms=ensemble.terms[:-1])
        return ensemble

    monkeypatch.setattr(pptsep.ensembles, "decompose", every_other_drops_a_term)
    run = harness.measure(workload, cases, 0.05)
    assert run.attempted >= 2
    assert run.failed == run.attempted // 2
    assert run.categories["uncertified"] == run.failed
    metrics, _ = harness.end_to_end(run, [0.1], children=False)
    assert metrics["failed_frac"][0] == pytest.approx(run.failed / run.attempted)


def test_refusal_with_the_wrong_error_class_is_a_failure(monkeypatch):
    workload = workloads.RefuseNpt("small-npt", (3, 3, 4), pool=2)
    cases = workload.make_cases(seed=5)
    assert workload.check(cases[0], workload.run(cases[0])) == "refused"

    def wrong_class(state, **kwargs):
        raise RankMismatch("injected")

    monkeypatch.setattr(pptsep.ensembles, "decompose", wrong_class)
    run = harness.measure(workload, cases, 0.02, Tracer())
    assert run.failed == run.attempted == run.categories["wrong_class"]
    assert harness.per_layer(run, workload.dims.total)["errors.wrong_class"][0] == run.attempted


def test_cli_check_rejects_bad_exit_codes_and_stdout(tmp_path):
    workload = workloads.CliRoundTrip("cli", (2, 2, 2), pool=1, workdir=tmp_path, src=Path("src"))
    ok_docs = [
        {"status": "ok"},
        {"overall_ppt": True},
        {"status": "ok", "terms": 2, "pass": True},
        {"pass": True, "terms": 2},
    ]
    outcome = [(0, json.dumps(d)) for d in ok_docs]
    assert workload.check(0, outcome[:3]) == "bad_exit"
    assert workload.check(0, outcome[:2] + [(3, outcome[2][1])] + outcome[3:]) == "bad_exit"
    two_docs = outcome[:3] + [(0, outcome[3][1] + "\n" + outcome[3][1])]
    assert workload.check(0, two_docs) == "bad_stdout"
    failed_verify = outcome[:3] + [(0, json.dumps({"pass": False, "terms": 2}))]
    assert workload.check(0, failed_verify) == "uncertified"


def test_tail_leaves_ten_samples_above():
    times = list(np.arange(1.0, 41.0))
    value, pct, n = harness.tail(times)
    assert (value, pct, n) == (30.0, 75.0, 40)
    assert sum(t > value for t in times) == 10
    few = [3.0, 1.0, 2.0] * 5
    assert harness.tail(few) == (3.0, 100.0, 15)
