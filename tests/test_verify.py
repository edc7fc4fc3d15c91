"""Tests for the numerical verification layer: the Runge-Kutta oracle,
residual checks, the log-derivative invariant, and the combined driver."""

import json
import math
import warnings

import numpy as np
import pytest

from odeform import (
    ClosedFormSolution,
    EquationClass,
    EquationSpec,
    EvalDomainError,
    EvalOverflowError,
    InconclusiveError,
    InitialCondition,
    NoOverlapError,
    OdeformError,
    OracleSolution,
    ParameterError,
    StageError,
    compare,
    full_verify,
    QuadratureConfig,
    parse,
    residual_check,
    riccati_check,
    rk_reference,
    solve_bernoulli,
    solve_linear_ivp,
    solve_second_order_ivp,
)


def ic(x0, y0, yp0=None):
    return InitialCondition(x0, y0, yp0)


LINEAR_GROWTH = EquationSpec.linear(parse("-1"), parse("0"))   # y' = y
LINEAR_DECAY = EquationSpec.linear(parse("1"), parse("0"))     # y' = -y
OSCILLATOR = EquationSpec.second_order(0.0, 1.0)               # y'' + y = 0
BERNOULLI_WORKED = EquationSpec.bernoulli(parse("1"), parse("1"), 2.0)


# ---------------------------------------------------------------------------
# The Runge-Kutta oracle


def test_oracle_exponential_growth():
    oracle = rk_reference(LINEAR_GROWTH, ic(0.0, 1.0), (0.0, 1.0))
    assert abs(oracle.values[-1] - math.e) <= 1e-8
    assert oracle.method == "rk45"
    assert oracle.steps_taken > 0
    assert not oracle.truncated
    assert oracle.grid.shape == oracle.values.shape == (201,)
    assert oracle.slopes is None


def test_oracle_oscillator_over_half_period():
    oracle = rk_reference(OSCILLATOR, ic(0.0, 0.0, 1.0), (0.0, math.pi))
    assert abs(oracle.values[-1]) <= 1e-7
    assert oracle.slopes is not None
    assert abs(oracle.slopes[-1] + 1.0) <= 1e-6


def test_oracle_bernoulli_worked_instance():
    oracle = rk_reference(BERNOULLI_WORKED, ic(0.0, 0.5), (0.0, 1.0))
    assert abs(oracle.values[-1] - 1.0 / (1.0 + math.e)) <= 1e-7


def test_oracle_marches_both_directions():
    oracle = rk_reference(LINEAR_GROWTH, ic(0.0, 1.0), (-1.0, 1.0),
                          grid_size=21)
    assert np.all(np.diff(oracle.grid) > 0)
    assert oracle.grid[0] == -1.0 and oracle.grid[-1] == 1.0
    assert abs(oracle.values[0] - math.exp(-1.0)) <= 1e-8
    i0 = int(np.argmin(np.abs(oracle.grid)))
    assert oracle.values[i0] == 1.0  # the anchor row is exact


def test_oracle_truncates_at_blowup():
    spec = EquationSpec.bernoulli(parse("0"), parse("1"), 2.0)  # y' = y^2
    oracle = rk_reference(spec, ic(0.0, 1.0), (0.0, 2.0), grid_size=21)
    assert oracle.truncated
    assert 0.99 <= oracle.truncated_at <= 1.0
    # Every grid point before the blow-up is kept, and none past it.
    grid = np.linspace(0.0, 2.0, 21)
    assert np.array_equal(oracle.grid, grid[grid < oracle.truncated_at])
    near = oracle.grid <= 0.9 + 1e-12
    exact = 1.0 / (1.0 - oracle.grid[near])
    assert np.max(np.abs(oracle.values[near] - exact) / exact) <= 5e-8


def test_oracle_self_consistency():
    """Halving the tolerance moves terminal values by at most 10x tol."""
    suite = [
        (LINEAR_DECAY, ic(0.0, 1.0), (0.0, 2.0)),
        (OSCILLATOR, ic(0.0, 0.0, 1.0), (0.0, math.pi)),
        (BERNOULLI_WORKED, ic(0.0, 0.5), (0.0, 1.0)),
    ]
    for spec, c, rng in suite:
        for tol in (1e-6, 1e-8):
            a = rk_reference(spec, c, rng, tol=tol).values[-1]
            b = rk_reference(spec, c, rng, tol=tol / 2).values[-1]
            assert abs(a - b) <= 10.0 * tol, (spec.kind, tol)


def test_oracle_validation():
    with pytest.raises(ParameterError):
        rk_reference(LINEAR_DECAY, ic(5.0, 1.0), (0.0, 1.0))  # x0 outside
    with pytest.raises(ParameterError):
        rk_reference(LINEAR_DECAY, ic(0.0, 1.0), (1.0, 0.0))  # reversed
    with pytest.raises(ParameterError):
        rk_reference(LINEAR_DECAY, ic(0.0, 1.0), (0.0, 1.0), tol=2.0)
    with pytest.raises(ParameterError):
        rk_reference(OSCILLATOR, ic(0.0, 1.0), (0.0, 1.0))  # yp0 missing


def test_oracle_surfaces_anchor_failure():
    spec = EquationSpec.linear(parse("1/x"), parse("0"))
    with pytest.raises(EvalDomainError):
        rk_reference(spec, ic(0.0, 1.0), (0.0, 1.0))
    # y' = 1/y at y = 1e-310: the power overflows; a typed error, too.
    spec = EquationSpec.bernoulli(parse("0"), parse("1"), -1.0)
    with pytest.raises(EvalOverflowError):
        rk_reference(spec, ic(0.0, 1e-310), (0.0, 1.0))


def test_oracle_steps_do_not_depend_on_the_grid():
    suite = [
        (EquationSpec.linear(parse("sin(x)"), parse("cos(x)")),
         ic(0.0, 1.0), (0.0, 2.0)),
        (EquationSpec.linear(parse("1"), parse("sin(40*x)")),
         ic(0.0, 1.0), (0.0, 10.0)),
        (LINEAR_GROWTH, ic(0.3, 1.0), (-1.0, 1.0)),
        (BERNOULLI_WORKED, ic(0.0, 0.5), (0.0, 1.0)),
        (OSCILLATOR, ic(0.0, 0.0, 1.0), (0.0, 10.0)),
    ]
    for spec, c, rng in suite:
        counts = set()
        for n in (11, 201, 2001):
            oracle = rk_reference(spec, c, rng, grid_size=n)
            assert len(oracle.grid) == n
            counts.add((oracle.steps_taken, oracle.steps_rejected))
        assert len(counts) == 1, (spec.kind, counts)


_SIN40_C = 1.0 + 40.0 / 1601.0

# Problems with a known exact solution: (spec, initial data, range, exact).
GROUND_TRUTH = [
    (EquationSpec.linear(parse("1"), parse("x")), ic(0.0, 1.0), (0.0, 2.0),
     lambda x: x - 1.0 + 2.0 * np.exp(-x)),
    (EquationSpec.linear(parse("1"), parse("sin(40*x)")), ic(0.0, 1.0),
     (0.0, 10.0),
     lambda x: _SIN40_C * np.exp(-x)
     + (np.sin(40.0 * x) - 40.0 * np.cos(40.0 * x)) / 1601.0),
    (LINEAR_GROWTH, ic(0.0, 1.0), (-1.0, 1.0), np.exp),
    (BERNOULLI_WORKED, ic(0.0, 0.5), (0.0, 1.0),
     lambda x: 1.0 / (1.0 + np.exp(x))),
    (EquationSpec.exp_class(parse("1"), parse("0"), 1.0), ic(0.0, 0.0),
     (0.0, 2.0), lambda x: -np.log1p(x)),                  # y' + e^y = 0
    (OSCILLATOR, ic(0.0, 0.0, 1.0), (0.0, 10.0), np.sin),
]


@pytest.mark.parametrize("spec,c,rng,exact", GROUND_TRUTH,
                         ids=["forced", "sin40x", "growth-two-sided",
                              "bernoulli", "exp", "oscillator"])
def test_oracle_against_exact_solutions(spec, c, rng, exact):
    """Every grid value is within 5e-8 of the exact solution, relative to
    1 + |y| (the normalization the oracle comparison uses)."""
    oracle = rk_reference(spec, c, rng)
    assert not oracle.truncated
    assert oracle.grid[0] == rng[0] and oracle.grid[-1] == rng[1]
    y = exact(oracle.grid)
    assert np.max(np.abs(oracle.values - y) / (1.0 + np.abs(y))) <= 5e-8
    if oracle.slopes is not None:
        assert np.max(np.abs(oracle.slopes - np.cos(oracle.grid))) <= 5e-8


def test_oracle_grid_on_both_sides_of_an_interior_x0():
    oracle = rk_reference(LINEAR_GROWTH, ic(0.3, 1.0), (-1.0, 1.0),
                          grid_size=21)
    assert np.array_equal(oracle.grid, np.linspace(-1.0, 1.0, 21))
    exact = np.exp(oracle.grid - 0.3)
    assert np.max(np.abs(oracle.values - exact) / exact) <= 5e-8


def test_oracle_crosses_a_subnormal_span():
    # Left of x0 the span is one subnormal, and span/100 underflows to 0;
    # a zero first step never grew, and the march never ended.
    spec = EquationSpec.linear(parse("1"), parse("1"))  # y = 1 stays 1
    oracle = rk_reference(spec, ic(5e-324, 1.0), (0.0, 1e-300), grid_size=3)
    assert not oracle.truncated
    assert list(oracle.grid) == [0.0, 5e-301, 1e-300]
    assert list(oracle.values) == [1.0, 1.0, 1.0]


def test_oracle_truncates_where_a_coefficient_fails():
    # f = sqrt(1 - x) has no real value past x = 1: the steps shrink away
    # there, and the grid points before it are still reported.
    spec = EquationSpec.linear(parse("sqrt(1-x)"), parse("0"))
    oracle = rk_reference(spec, ic(0.0, 1.0), (0.0, 2.0), grid_size=5)
    assert oracle.truncated
    assert 1.0 - 1e-9 <= oracle.truncated_at <= 1.0
    assert list(oracle.grid) == [0.0, 0.5]
    exact = math.exp((2.0 / 3.0) * (0.5 ** 1.5 - 1.0))
    assert abs(oracle.values[1] - exact) <= 5e-8 * exact


# ---------------------------------------------------------------------------
# compare


def _identity_oracle(sol, xs):
    return OracleSolution(grid=xs, values=sol.values(xs), slopes=None,
                          method="rk45", steps_taken=0, steps_rejected=0,
                          truncated=False)


def test_compare_identity_is_exact():
    sol = solve_linear_ivp(parse("1"), parse("0"), ic(0.0, 1.0))
    res = compare(sol, _identity_oracle(sol, np.linspace(0.0, 2.0, 51)))
    assert res.max_deviation == 0.0
    assert res.passed
    assert res.name == "oracle"


def test_compare_against_rk():
    sol = solve_linear_ivp(parse("1"), parse("0"), ic(0.0, 1.0))
    oracle = rk_reference(LINEAR_DECAY, ic(0.0, 1.0), (0.0, 2.0))
    res = compare(sol, oracle, tol=1e-7)
    assert res.passed
    assert res.max_deviation <= 1e-7


def test_compare_catches_constant_offset():
    sol = solve_linear_ivp(parse("1"), parse("0"), ic(0.0, 1.0))
    oracle = rk_reference(LINEAR_DECAY, ic(0.0, 1.0), (0.0, 2.0))
    res = compare(sol.perturbed(1e-3), oracle)
    assert not res.passed
    assert 5e-4 <= res.max_deviation <= 2e-3


def test_compare_clips_to_validity():
    # y' = y^2 blows up at x = 1; feed an oracle grid that reaches past it.
    sol = solve_bernoulli(parse("0"), parse("1"), 2.0, ic(0.0, 1.0))
    xs_in = np.linspace(0.0, 0.9, 10)
    fake = OracleSolution(
        grid=np.concatenate([xs_in, [1.5, 2.0]]),
        values=np.concatenate([sol.values(xs_in), [0.0, 0.0]]),
        slopes=None, method="rk45", steps_taken=0, steps_rejected=0,
        truncated=False)
    res = compare(sol, fake)
    assert res.passed
    assert res.grid_size == 10
    assert "outside validity" in res.note

    fully_outside = OracleSolution(
        grid=np.array([1.5, 2.0]), values=np.array([0.0, 0.0]), slopes=None,
        method="rk45", steps_taken=0, steps_rejected=0, truncated=False)
    with pytest.raises(NoOverlapError):
        compare(sol, fully_outside)


# ---------------------------------------------------------------------------
# residual_check


def test_residual_linear_decay():
    sol = solve_linear_ivp(parse("1"), parse("0"), ic(0.0, 1.0))
    res = residual_check(LINEAR_DECAY, sol, xrange=(0.0, 2.0))
    assert res.name == "residual"
    assert res.passed
    assert res.max_deviation <= 1e-6
    assert res.grid_size == 200


def test_residual_zero_solution_is_exact():
    sol = solve_bernoulli(parse("1"), parse("1"), 0.5, ic(0.0, 0.0))
    spec = EquationSpec.bernoulli(parse("1"), parse("1"), 0.5)
    res = residual_check(spec, sol, xrange=(0.0, 2.0))
    assert res.max_deviation == 0.0
    assert res.passed


def test_residual_rejects_wrong_sign():
    # e^{+x} pretending to solve y' + y = 0: residual is 2 e^x.
    wrong = ClosedFormSolution(EquationClass.LINEAR, np.exp, 0.0, {},
                               "hand-built wrong answer")
    res = residual_check(LINEAR_DECAY, wrong, xrange=(0.0, 2.0))
    assert not res.passed
    assert res.max_deviation > 0.5


@pytest.mark.parametrize("kink", [0.3, 0.300004, 0.299996])
def test_residual_steps_around_a_kink_in_g(kink):
    # y' + y = |x - k|, y(0) = 1, in closed form. y'' jumps by 2 at k, which
    # costs a centered difference straddling it up to h/4 * 2 = 5e-6. On
    # the grid below, 0.3 is a grid point; the other two kinks sit inside
    # its stencil, on either side of it.
    # The one-sided stencils keep the exact solution's residual at the
    # O(h^2) of smooth points, and the check still fails it offset by 1e-5.
    c = 2.0 * math.exp(kink) - kink

    def exact(xs):
        return np.where(xs <= kink, 1.0 + kink - xs - kink * np.exp(-xs),
                        xs - 1.0 - kink + c * np.exp(-xs))

    spec = EquationSpec.linear(parse("1"), parse(f"abs(x-{kink})"))
    sol = ClosedFormSolution(EquationClass.LINEAR, exact, 0.0, {},
                             "the exact solution")
    res = residual_check(spec, sol, grid_size=201, xrange=(-1.0, 1.0))
    assert res.max_deviation <= 1e-9, res.max_deviation
    res = residual_check(spec, sol.perturbed(1e-5), grid_size=201,
                         xrange=(-1.0, 1.0))
    assert not res.passed
    # A defect of -1e-5 in y' just right of the kink, seen only by the
    # grid point on it: a centered difference there reads 4.5e-6 less,
    # which cancels its own 5e-6 error and would pass; the one-sided one
    # does not.
    if kink == 0.3:
        def defective(xs):
            d = np.maximum(xs - kink, 0.0)
            return exact(xs) - 1e-5 * d * np.exp(-d / 1e-4)

        res = residual_check(spec, ClosedFormSolution(
            EquationClass.LINEAR, defective, 0.0, {}, "a defect at the kink"),
            grid_size=201, xrange=(-1.0, 1.0))
        assert not res.passed, res.max_deviation


def test_extreme_parameters_raise_no_numpy_warning():
    # Every layer turns non-finite values into typed failures, so numpy's
    # floating-point warnings stay quiet in the library, not only in the
    # CLI, which switches them off.
    spec = EquationSpec.exp_class(parse("1"), parse("1"), 1e308)
    cfg = QuadratureConfig(checkpoint_spacing=(1e300 - 1e-9) / 256)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            report = full_verify(spec, ic(1e300, 0.0), (1e-9, 1e300), cfg)
        except OdeformError:
            return
    assert not report.passed


def test_residual_second_order_and_exp():
    so = solve_second_order_ivp(2.0, 1.0, ic(0.0, 1.0, 0.0))
    res = residual_check(EquationSpec.second_order(2.0, 1.0), so,
                         xrange=(0.0, 2.0))
    assert res.passed and res.tolerance == 1e-5

    from odeform import solve_exp
    es = solve_exp(parse("1"), parse("0"), 1.0, ic(0.0, 0.0))
    res = residual_check(EquationSpec.exp_class(parse("1"), parse("0"), 1.0),
                         es, xrange=(0.0, 2.0))
    assert res.passed and res.tolerance == 1e-6


def test_residual_needs_bounded_range():
    sol = solve_linear_ivp(parse("1"), parse("0"), ic(0.0, 1.0))
    with pytest.raises(ParameterError):
        residual_check(LINEAR_DECAY, sol)  # unbounded validity, no xrange


# ---------------------------------------------------------------------------
# riccati_check


def test_riccati_constant_log_derivative():
    sol = solve_second_order_ivp(-3.0, 2.0, ic(0.0, 1.0, 1.0))  # e^x, z = 1
    res = riccati_check(-3.0, 2.0, sol)
    assert res.passed
    assert res.max_deviation <= 1e-6
    assert res.grid_size == 200
    assert "0 points excluded" in res.note


def test_riccati_repeated_root():
    sol = solve_second_order_ivp(2.0, 1.0, ic(0.0, 1.0, 0.0))
    res = riccati_check(2.0, 1.0, sol, xrange=(0.0, 1.0))
    assert res.passed
    assert res.max_deviation <= 1e-4


def test_riccati_excludes_zeros_of_sine():
    sol = solve_second_order_ivp(0.0, 1.0, ic(0.0, 0.0, 1.0))  # sin x
    res = riccati_check(0.0, 1.0, sol, xrange=(0.0, math.pi))
    assert res.passed
    assert res.grid_size < 200  # endpoints of the grid sit near sin's zeros
    assert "excluded" in res.note


def test_riccati_inconclusive_on_zero_solution():
    sol = solve_second_order_ivp(0.0, 1.0, ic(0.0, 0.0, 0.0))
    with pytest.raises(InconclusiveError):
        riccati_check(0.0, 1.0, sol)


def test_riccati_detects_offset():
    sol = solve_second_order_ivp(2.0, 1.0, ic(0.0, 1.0, 0.0))
    res = riccati_check(2.0, 1.0, sol.perturbed(1e-3), xrange=(0.0, 1.0))
    assert not res.passed


def test_riccati_requires_second_order():
    sol = solve_linear_ivp(parse("1"), parse("0"), ic(0.0, 1.0))
    with pytest.raises(ParameterError):
        riccati_check(1.0, 0.0, sol)


# ---------------------------------------------------------------------------
# full_verify


def test_full_verify_linear():
    spec = EquationSpec.linear(parse("1"), parse("x"))
    report = full_verify(spec, ic(0.0, 0.0), (0.0, 1.0))
    assert report.passed
    assert [c.name for c in report.checks] == ["residual", "oracle"]
    assert all(c.passed for c in report.checks)
    assert report.validity == (-math.inf, math.inf)
    assert report.note == ""
    assert report.constants["C"] == 0.0
    assert report.provenance


def test_full_verify_bernoulli_records_route():
    report = full_verify(BERNOULLI_WORKED, ic(0.0, 0.5), (0.0, 1.0))
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["residual", "oracle", "route_equivalence"]
    route = report.checks[-1]
    assert route.max_deviation <= 1e-8
    assert route.tolerance == 1e-8


def test_full_verify_bernoulli_zero_solution_notes_skip():
    report = full_verify(BERNOULLI_WORKED, ic(0.0, 0.0), (0.0, 1.0))
    assert report.passed
    route = report.checks[-1]
    assert route.name == "route_equivalence"
    assert "skipped" in route.note


def test_full_verify_exp_clips_range():
    spec = EquationSpec.exp_class(parse("1"), parse("0"), 1.0)
    report = full_verify(spec, ic(0.0, 0.0), (-2.0, 2.0))
    assert report.passed
    assert "clipped" in report.note
    assert abs(report.validity[0] - (-1.0)) <= 1e-6
    assert report.validity[1] == math.inf


def test_full_verify_second_order_runs_riccati():
    spec = EquationSpec.second_order(2.0, 1.0)
    report = full_verify(spec, ic(0.0, 1.0, 0.0), (0.0, 2.0))
    assert report.passed
    assert [c.name for c in report.checks] == ["residual", "oracle", "riccati"]


@pytest.mark.parametrize(
    "spec,c,rng",
    [
        (EquationSpec.linear(parse("1"), parse("x")),
         ic(0.0, 0.0), (0.0, 2.0)),
        (BERNOULLI_WORKED, ic(0.0, 0.5), (0.0, 1.0)),
        (EquationSpec.exp_class(parse("1"), parse("0"), 1.0),
         ic(0.0, 0.0), (0.0, 2.0)),
        (EquationSpec.second_order(2.0, 1.0),
         ic(0.0, 1.0, 0.0), (0.0, 2.0)),
    ],
    ids=["linear", "bernoulli", "exp", "second-order"],
)
def test_full_verify_defect_sensitivity(spec, c, rng):
    """A 1e-3 offset makes every check fail, for every class."""
    report = full_verify(spec, c, rng, perturb=1e-3)
    assert not report.passed
    for check in report.checks:
        assert not check.passed, check.name


def test_full_verify_reports_constructor_stage():
    spec = EquationSpec.bernoulli(parse("1"), parse("1"), 0.5)
    with pytest.raises(StageError) as info:
        full_verify(spec, ic(0.0, -1.0), (0.0, 1.0))
    assert info.value.stage == "constructor"
    assert "constructor" in str(info.value)


def test_full_verify_validates_range():
    with pytest.raises(ParameterError):
        full_verify(LINEAR_DECAY, ic(0.0, 1.0), (1.0, 2.0))  # x0 outside
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterError):
            full_verify(LINEAR_DECAY, ic(0.0, 1.0), (0.0, 1.0), perturb=bad)


@pytest.mark.parametrize("grid_size", [0, 1, -5, 2.5, True, "3"])
def test_grid_size_must_be_an_integer_of_at_least_2(grid_size):
    c = ic(0.0, 1.0, 0.0)
    sol = solve_second_order_ivp(0.0, 1.0, c)
    calls = (
        lambda: full_verify(OSCILLATOR, c, (0.0, 1.0), grid_size=grid_size),
        lambda: rk_reference(OSCILLATOR, c, (0.0, 1.0),
                             grid_size=grid_size),
        lambda: residual_check(OSCILLATOR, sol, grid_size, (0.0, 1.0)),
        lambda: riccati_check(0.0, 1.0, sol, grid_size, (0.0, 1.0)),
    )
    for call in calls:
        with pytest.raises(ParameterError):
            call()


def test_grid_size_takes_numpy_integers():
    c = ic(0.0, 1.0, 0.0)
    sol = solve_second_order_ivp(0.0, 1.0, c)
    n = np.int64(7)
    assert residual_check(OSCILLATOR, sol, n, (0.0, 1.0)).grid_size == 7
    assert rk_reference(OSCILLATOR, c, (0.0, 1.0), grid_size=n).grid.size == 7
    report = full_verify(OSCILLATOR, c, (0.0, 1.0), grid_size=n)
    assert [check.grid_size for check in report.checks][:2] == [7, 7]


def test_full_verify_deterministic():
    spec = EquationSpec.second_order(2.0, 1.0)
    a = full_verify(spec, ic(0.0, 1.0, 0.0), (0.0, 2.0))
    b = full_verify(spec, ic(0.0, 1.0, 0.0), (0.0, 2.0))
    assert a == b
    assert json.dumps(a.to_dict(), sort_keys=True) == \
        json.dumps(b.to_dict(), sort_keys=True)


def test_report_serialization_schema():
    report = full_verify(BERNOULLI_WORKED, ic(0.0, 0.5), (0.0, 1.0))
    doc = report.to_dict()
    assert set(doc) == {"checks", "pass"}
    assert doc["pass"] is True
    for entry in doc["checks"]:
        assert set(entry) == {"name", "max_deviation", "tolerance", "pass"}
        assert isinstance(entry["pass"], bool)


def test_riccati_check_inconclusive_when_every_point_is_excluded():
    # y = e^(-100 x): |z| = 100 is past the conditioning cap everywhere.
    sol = solve_second_order_ivp(100.0, 0.0, ic(0.0, 1.0, -100.0))
    with pytest.raises(InconclusiveError, match="only 0 of 200"):
        riccati_check(100.0, 0.0, sol, xrange=(0.0, 2.0))


def test_residual_check_raises_where_the_equation_has_no_value():
    grid = (0.0, 1.0)
    negative = ClosedFormSolution(EquationClass.BERNOULLI,
                                  lambda xs: -np.ones(xs.shape), 0.0, {}, "")
    with pytest.raises(EvalDomainError, match="y\\^alpha has no real"):
        residual_check(EquationSpec.bernoulli(parse("1"), parse("1"), 0.5),
                       negative, xrange=grid)
    large = ClosedFormSolution(EquationClass.EXP,
                               lambda xs: np.full(xs.shape, 1000.0), 0.0,
                               {}, "")
    with pytest.raises(OdeformError, match="overflow in the residual"):
        residual_check(EquationSpec.exp_class(parse("1"), parse("1"), 1.0),
                       large, xrange=grid)


def test_oracle_raises_an_overflow_at_the_anchor():
    spec = EquationSpec.exp_class(parse("1"), parse("1"), 1.0)
    with pytest.raises(OdeformError, match="overflow in the oracle"):
        rk_reference(spec, ic(0.0, 1000.0), (0.0, 1.0))


def test_interior_grid_needs_room_inside_validity():
    # y' + y = y^2 from y(0) = 2 blows up at ln 2, just past the range's
    # start.
    spec = EquationSpec.bernoulli(parse("1"), parse("1"), 2.0)
    sol = solve_bernoulli(parse("1"), parse("1"), 2.0, ic(0.0, 2.0))
    ln2 = math.log(2.0)
    with pytest.raises(NoOverlapError, match="too small"):
        residual_check(spec, sol, xrange=(ln2 - 1e-5, ln2 + 1.0))


@pytest.mark.parametrize("xrange", [(0.0, math.inf), (-1e308, 1e308)])
def test_oracle_refuses_a_range_of_infinite_width(xrange):
    spec = EquationSpec.linear(parse("1"), parse("0"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="width"):
            rk_reference(spec, ic(0.0, 1.0), xrange)


@pytest.mark.parametrize("check_tol", [math.nan, -1.0, 0.0, 1.0])
def test_full_verify_refuses_a_check_tolerance_outside_0_1(check_tol):
    spec = EquationSpec.linear(parse("1"), parse("0"))
    with pytest.raises(ParameterError, match="check_tol"):
        full_verify(spec, ic(0.0, 1.0), (0.0, 1.0), check_tol=check_tol)
