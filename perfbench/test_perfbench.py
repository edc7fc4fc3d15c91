"""Tests of the benchmark itself: its checks catch wrong answers, its
reference is right, its traced counters repeat, and it refuses to run
without the odeform sources.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import cases
import reference
import run
import tracing
import worker

sys.path.insert(0, worker.SRC)

SEED = 7


def _outcomes(work):
    return [o for _, o in worker.run_pass(work)]


def test_verify_wrong_answer_is_a_failed_op():
    work = worker.Verify(SEED)
    cheap = next(c for c in work.cases if c["why"] == "bernoulli alpha = 3")
    wrong = dict(cheap, argv=cheap["argv"] + ["--perturb", "1e-3"])
    fault = work.cases[-1]
    assert fault["expect_error"]
    work.cases = [cheap, wrong, fault]
    records = worker.run_pass(work)
    assert [o for _, o in records] == [worker.OK, worker.WRONG, worker.ERROR]
    summary = worker.summarize(records)
    assert (summary["attempted"], summary["failed"]) == (3, 2)
    assert summary["correct"] is False


def test_verify_known_fault_fails_without_breaking_correct():
    work = worker.Verify(SEED)
    work.cases = work.cases[-1:]
    summary = worker.summarize(worker.run_pass(work))
    assert (summary["failed"], summary["correct"]) == (1, True)


def test_solve_wrong_answer_is_a_failed_op():
    work = worker.Solve(SEED)
    work.load_reference(reference.build("solve", SEED))
    keep = [1, 9]
    work.cases = [work.cases[i] for i in keep]
    work.exprs = [work.exprs[i] for i in keep]
    work.refs = [work.refs[i] for i in keep]
    build = work.build
    work.build = lambda i: build(i).perturbed(1e-6) if i == 1 else build(i)
    assert _outcomes(work) == [worker.OK, worker.WRONG]


def test_boundary_wrong_answer_is_a_failed_op():
    work = worker.Boundary(SEED)
    work.cases = work.cases[:2]
    work.exprs = work.exprs[:2]
    work.cases[1] = dict(work.cases[1], bound=work.cases[1]["bound"] + 1e-6)
    assert _outcomes(work) == [worker.OK, worker.WRONG]


def test_query_wrong_answer_is_a_failed_op():
    work = worker.Query(SEED)
    work.load_reference(reference.build("query", SEED))
    work.sols[2] = work.sols[2].perturbed(1e-6)
    out = _outcomes(work)
    per = cases.QUERY_OPS_PER_CASE
    assert out[2 * per:3 * per] == [worker.WRONG] * per
    assert out[:2 * per] + out[3 * per:] == [worker.OK] * (len(out) - per)


def test_query_order_check_catches_order_dependence():
    work = worker.Query(SEED)
    work.load_reference(reference.build("query", SEED))
    sol = work.sols[0]
    honest = sol.values
    # a last-bit change that depends on batch size, as a query-order
    # dependent cache could make
    sol.values = lambda xs: np.nextafter(honest(xs), np.inf) \
        if len(xs) < cases.QUERY_POINTS else honest(xs)
    assert _outcomes(work)[0] == worker.WRONG


def test_reference_matches_closed_form():
    case = {"why": "decay", "kind": "linear", "f": "1", "g": "0",
            "param": None, "x0": 0.5, "y0": 2.0, "lo": -3.0, "hi": 4.0}
    ref = reference.load({"cases": [reference.reference(case)]})[0]
    xs = np.linspace(-3.0, 4.0, 1001)
    exact = 2.0 * np.exp(-(xs - 0.5))
    assert np.max(np.abs(reference.interpolate(ref, xs) - exact)
                  / (1.0 + exact)) < 1e-11


def test_boundary_cases_bracket_their_boundary():
    for case in cases.boundary_cases(SEED):
        assert case["lo"] < case["x0"] < case["hi"]
        assert case["lo"] < case["bound"] < case["hi"]
        assert (case["bound"] > 0) == case["upward"]
        x = case["bound"] * 0.999
        assert math.isfinite(
            cases.analytic_value(case["family"], case["y0"], x))


def _traced_counts(workload: str) -> dict:
    stdin = None
    if workload in ("solve", "query"):
        stdin = json.dumps(reference.build(workload, SEED)).encode()
    argv = [sys.executable, worker.__file__, "trace", workload, str(SEED),
            "1", repr(time.monotonic())]
    proc = subprocess.run(argv, input=stdin, stdout=subprocess.PIPE,
                          check=True, timeout=120)
    layers = json.loads(proc.stdout.decode().splitlines()[-1])["layers"]
    return {k: v for k, v in layers.items()
            if not k.endswith(("ms", "_point", "_call"))}


@pytest.mark.parametrize("workload", ["boundary", "query"])
def test_traced_counters_repeat(workload):
    first = _traced_counts(workload)
    assert first["quad.integrand_points"] > 0
    assert _traced_counts(workload) == first


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    layers = list(tracing.Tracer("unused").metrics(1, 1)) \
        + ["trace.overhead_pct"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == [(name, run.layer_unit(name)) for name in layers]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
