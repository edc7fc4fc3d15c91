"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``).

Every tolerance below is asserted exactly as stated; nothing is loosened.
"""

import io
import json
import math
import random

import numpy as np
import pytest

from odeform import (
    EquationSpec,
    InitialCondition,
    antiderivative,
    full_verify,
    integrate,
    parse,
    residual_check,
    solve_bernoulli,
    solve_bernoulli_via_linear,
    solve_exp,
    solve_linear_ivp,
    solve_second_order_ivp,
)
from odeform.cli import run


def ic(x0, y0, yp0=None):
    return InitialCondition(x0, y0, yp0)


def criterion(n, label):
    """Decorator printing one PASS/FAIL line per criterion."""
    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException:
                print(f"\n[acceptance] criterion {n} ({label}): FAIL")
                raise
            print(f"\n[acceptance] criterion {n} ({label}): PASS")
        runner.__name__ = fn.__name__
        return runner
    return wrap


def check_named(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise AssertionError(f"no check named {name!r} in {report.checks}")


@criterion(1, "linear class")
def test_criterion_1_linear_class():
    instances = [
        ("1", "0", 1.0),
        ("1", "x", 0.0),
        ("2*x", "0", 1.0),
        ("sin(x)", "cos(x)", 1.0),
        ("0", "x^2", 0.0),
    ]
    x0 = 0.0
    for f, g, y0 in instances:
        spec = EquationSpec.linear(parse(f), parse(g))
        report = full_verify(spec, ic(x0, y0), (x0, x0 + 2.0))
        res = check_named(report, "residual")
        orc = check_named(report, "oracle")
        assert res.max_deviation <= 1e-6, (f, g, res)
        assert orc.max_deviation <= 1e-6, (f, g, orc)
        assert report.passed, (f, g)
        sol = solve_linear_ivp(parse(f), parse(g), ic(x0, y0))
        assert abs(sol.value(x0) - y0) <= 1e-12, (f, g)


@criterion(2, "bernoulli class")
def test_criterion_2_bernoulli_class():
    # The worked instance against its hand-solved closed form.
    sol = solve_bernoulli(parse("1"), parse("1"), 2.0, ic(0.0, 0.5))
    xs = np.linspace(0.0, 1.0, 101)
    exact = 1.0 / (1.0 + np.exp(xs))
    assert np.max(np.abs(sol.values(xs) - exact)) <= 1e-8

    # Route equivalence on 20 seeded randomized instances.
    rng = random.Random(20260814)

    def poly():
        cs = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        return parse(f"({cs[0]})+({cs[1]})*x+({cs[2]})*x^2+({cs[3]})*x^3")

    alphas = [-1.0, 0.5, 2.0, 3.0]
    for i in range(20):
        f, g = poly(), poly()
        alpha = alphas[i % 4]
        y0 = rng.uniform(0.5, 1.5)
        direct = solve_bernoulli(f, g, alpha, ic(0.0, y0))
        routed = solve_bernoulli_via_linear(f, g, alpha, ic(0.0, y0))
        pxs, pys = direct.sample(0.0, 0.5, 40)
        rys = routed.values(pxs)
        dev = float(np.max(np.abs(pys - rys) / (1.0 + np.abs(pys))))
        assert dev <= 1e-8, (i, f.text, g.text, alpha, y0, dev)

    # The zero solution for y0 = 0, alpha = 0.5: returned and residual-exact.
    zero = solve_bernoulli(parse("1"), parse("1"), 0.5, ic(0.0, 0.0))
    assert zero.non_unique
    assert np.all(zero.values(np.linspace(0.0, 2.0, 41)) == 0.0)
    res = residual_check(EquationSpec.bernoulli(parse("1"), parse("1"), 0.5),
                         zero, xrange=(0.0, 2.0))
    assert res.max_deviation == 0.0 and res.passed


@criterion(3, "exponential class")
def test_criterion_3_exponential_class():
    # y' + e^y = 0, y(0) = 0 against -log(x + 1) on [0, 2].
    sol = solve_exp(parse("1"), parse("0"), 1.0, ic(0.0, 0.0))
    xs = np.linspace(0.0, 2.0, 201)
    assert np.max(np.abs(sol.values(xs) + np.log(xs + 1.0))) <= 1e-8

    # The reported validity boundary sits within 1e-8 of the true -1.
    sol.ensure_validity(-2.0, 2.0)
    assert abs(sol.validity.lo - (-1.0)) <= 1e-8

    # Two further instances pass residual and oracle checks at 1e-6.
    further = [
        (EquationSpec.exp_class(parse("0"), parse("x"), 1.0), ic(0.0, 2.0)),
        (EquationSpec.exp_class(parse("1"), parse("1"), 2.0), ic(0.0, 0.0)),
    ]
    for spec, c in further:
        report = full_verify(spec, c, (0.0, 1.0))
        assert check_named(report, "residual").max_deviation <= 1e-6
        assert check_named(report, "oracle").max_deviation <= 1e-6
        assert report.passed


@criterion(4, "second order")
def test_criterion_4_second_order():
    pairs = [(-3.0, 2.0), (2.0, 1.0), (0.0, 1.0), (1.0, 5.0), (4.0, 4.0)]
    ic_sets = [(1.0, 0.0), (0.0, 1.0)]
    for b, c in pairs:
        for y0, yp0 in ic_sets:
            spec = EquationSpec.second_order(b, c)
            report = full_verify(spec, ic(0.0, y0, yp0), (0.0, 2.0))
            res = check_named(report, "residual")
            orc = check_named(report, "oracle")
            ric = check_named(report, "riccati")
            assert res.max_deviation <= 1e-5, (b, c, y0, yp0, res)
            assert orc.max_deviation <= 1e-6, (b, c, y0, yp0, orc)
            assert ric.max_deviation <= 1e-4, (b, c, y0, yp0, ric)
            assert report.passed, (b, c, y0, yp0)


@criterion(5, "case-boundary continuity")
def test_criterion_5_case_boundary_continuity():
    xs = np.linspace(0.0, 1.0, 101)
    mid = solve_second_order_ivp(2.0, 1.0, ic(0.0, 1.0, 0.0))
    assert mid.case == "repeated"
    base = mid.values(xs)
    for c in (1.0 + 1e-8, 1.0 - 1e-8):
        near = solve_second_order_ivp(2.0, c, ic(0.0, 1.0, 0.0))
        assert np.max(np.abs(near.values(xs) - base)) <= 1e-6, c


@criterion(6, "quadrature")
def test_criterion_6_quadrature():
    # The three documented definite integrals.
    assert abs(integrate(parse("x"), 0.0, 1.0) - 0.5) <= 1e-9
    assert abs(integrate(parse("exp(x)"), 0.0, 1.0) - (math.e - 1)) <= 1e-9
    assert abs(integrate(parse("1/(1+x^2)"), 0.0, 1.0) - math.pi / 4) <= 1e-9

    # Derivative recovery at 100 random points for 5 smooth integrands.
    rng = random.Random(42)
    pts = np.array([rng.uniform(-2.0, 2.5) for _ in range(100)])
    h = 1e-5
    for text in ["sin(x)", "exp(-x)", "1/(1+x^2)", "cos(3*x)", "x^3-2*x"]:
        phi = parse(text)
        F = antiderivative(phi, 0.0)
        approx = (F.values(pts + h) - F.values(pts - h)) / (2 * h)
        target = phi.eval_many(pts)
        assert np.all(np.abs(approx - target)
                      <= 1e-6 * np.maximum(1.0, np.abs(target))), text

    # Evaluation-count bound: one pass of cells, 17 samples each, and
    # re-queries cost no integrand evaluation.
    F = antiderivative(parse("exp(-x^2)"), 0.0)
    xs = np.array([rng.uniform(-2.0, 3.0) for _ in range(100)])
    cells = math.ceil(5.0 / F.spacing) + 2
    F.values(xs)
    first = F.eval_count
    assert 0 < first <= 17 * cells
    F.values(xs)
    assert F.eval_count == first


PERTURB_INVOCATIONS = {
    "linear": ["verify", "--class", "linear", "--f", "1", "--g", "x",
               "--x0", "0", "--y0", "0", "--range", "0:2"],
    "bernoulli": ["verify", "--class", "bernoulli", "--f", "1", "--g", "1",
                  "--alpha", "2", "--x0", "0", "--y0", "0.5",
                  "--range", "0:1"],
    "exp": ["verify", "--class", "exp", "--f", "1", "--g", "0",
            "--beta", "1", "--x0", "0", "--y0", "0", "--range", "0:2"],
    "second-order": ["verify", "--class", "second-order", "--b", "2",
                     "--c", "1", "--x0", "0", "--y0", "1", "--yp0", "0",
                     "--range", "0:2"],
}


@criterion(7, "defect sensitivity")
def test_criterion_7_defect_sensitivity():
    for klass, argv in PERTURB_INVOCATIONS.items():
        out, err = io.StringIO(), io.StringIO()
        code = run(argv + ["--perturb", "1e-3", "--format", "json"],
                   out=out, err=err)
        assert code == 3, (klass, code, err.getvalue())
        doc = json.loads(out.getvalue())
        assert doc["report"]["pass"] is False, klass
        assert doc["report"]["checks"], klass
        for check in doc["report"]["checks"]:
            assert check["pass"] is False, (klass, check)


DOCUMENTED_INVOCATIONS = [
    ["solve", "--class", "linear", "--f", "1", "--g", "0",
     "--x0", "0", "--y0", "1", "--range", "0:1", "--samples", "3"],
    ["solve", "--class", "second-order", "--b", "0", "--c", "1",
     "--x0", "0", "--y0", "0", "--yp0", "1",
     "--range", "0:3.1415926", "--samples", "2"],
    ["verify", "--class", "bernoulli", "--f", "1", "--g", "1",
     "--alpha", "2", "--x0", "0", "--y0", "0.5", "--range", "0:1",
     "--format", "json"],
]


@criterion(8, "command-line interface")
def test_criterion_8_cli():
    outputs = []
    for argv in DOCUMENTED_INVOCATIONS:
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            code = run(argv, out=out, err=err)
            assert code == 0, (argv, err.getvalue())
            assert err.getvalue() == ""
            runs.append(out.getvalue())
        assert runs[0].encode() == runs[1].encode(), argv  # byte determinism
        outputs.append(runs[0])

    # Documented rows of the first invocation: (0,1), (0.5,~0.60653),
    # (1,~0.36788).
    rows = [ln.split(",") for ln in outputs[0].splitlines()
            if ln and not ln.startswith("#") and ln != "x,y"]
    assert [r[0] for r in rows] == ["0", "0.5", "1"]
    assert float(rows[0][1]) == 1.0
    assert abs(float(rows[1][1]) - math.exp(-0.5)) <= 1e-9
    assert abs(float(rows[2][1]) - math.exp(-1.0)) <= 1e-9

    # Documented rows of the second: (0,0) and (pi,~0).
    rows = [ln.split(",") for ln in outputs[1].splitlines()
            if ln and not ln.startswith("#") and ln != "x,y"]
    assert [r[0] for r in rows] == ["0", "3.1415926000000001"]
    assert float(rows[0][1]) == 0.0
    assert abs(float(rows[1][1])) <= 1e-6

    # The third is a JSON report with the documented fields, overall pass.
    doc = json.loads(outputs[2])
    assert set(doc) == {"class", "parameters", "constants", "validity",
                        "provenance", "report"}
    assert doc["report"]["pass"] is True
    for check in doc["report"]["checks"]:
        assert set(check) == {"name", "max_deviation", "tolerance", "pass"}

    # Cross-format consistency: CSV and JSON carry the same numbers.
    argv = DOCUMENTED_INVOCATIONS[0]
    out_json = io.StringIO()
    assert run(argv + ["--format", "json"], out=out_json,
               err=io.StringIO()) == 0
    samples = json.loads(out_json.getvalue())["samples"]
    csv_rows = [ln.split(",") for ln in outputs[0].splitlines()
                if ln and not ln.startswith("#") and ln != "x,y"]
    assert [(float(r[0]), float(r[1])) for r in csv_rows] == \
        [(s["x"], s["y"]) for s in samples]

    out_csv = io.StringIO()
    assert run(DOCUMENTED_INVOCATIONS[2][:-2], out=out_csv,
               err=io.StringIO()) == 0
    report = json.loads(outputs[2])["report"]
    lines = [ln for ln in out_csv.getvalue().splitlines()
             if not ln.startswith("#")]
    assert lines[0] == "name,max_deviation,tolerance,pass"
    got = []
    for ln in lines[1:]:
        name, dev, tol, ok = ln.split(",")
        got.append((name, float(dev), float(tol), ok == "true"))
    want = [(c["name"], c["max_deviation"], c["tolerance"], c["pass"])
            for c in report["checks"]]
    assert got == want
