"""Tests for the closed-form constructors of all four equation classes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odeform import (
    EquationClass,
    EquationSpec,
    EvalOverflowError,
    InitialCondition,
    NoOverlapError,
    OdeformError,
    OutsideValidityError,
    ParameterError,
    construct,
    parse,
    signed_power,
    solve_bernoulli,
    solve_bernoulli_via_linear,
    solve_exp,
    solve_linear_general,
    solve_linear_ivp,
    solve_second_order,
    solve_second_order_ivp,
)

from conftest import assert_ulps


def ic(x0, y0, yp0=None):
    return InitialCondition(x0, y0, yp0)


# ---------------------------------------------------------------------------
# Linear first order


def test_linear_ivp_decay():
    sol = solve_linear_ivp(parse("1"), parse("0"), ic(0.0, 1.0))
    assert abs(sol.value(1.0) - math.exp(-1.0)) <= 1e-9
    assert sol.value(0.0) == 1.0


def test_linear_ivp_pure_integral():
    sol = solve_linear_ivp(parse("0"), parse("1"), ic(0.0, 0.0))
    assert abs(sol.value(3.0) - 3.0) <= 1e-9


def test_linear_ivp_forced():
    sol = solve_linear_ivp(parse("1"), parse("x"), ic(0.0, 0.0))
    xs = np.linspace(0.0, 2.0, 41)
    exact = xs - 1.0 + np.exp(-xs)
    assert np.max(np.abs(sol.values(xs) - exact)) <= 1e-9
    assert sol.kind is EquationClass.LINEAR
    assert sol.constants["C"] == 0.0


def test_linear_general_constant_solutions():
    sol = solve_linear_general(parse("0"), parse("0"), 7.0, 0.0)
    for x in (-2.0, 0.0, 5.0):
        assert sol.value(x) == 7.0

    sol = solve_linear_general(parse("1"), parse("0"), 2.0, 0.0)
    assert abs(sol.value(1.0) - 2.0 * math.exp(-1.0)) <= 1e-9

    sol = solve_linear_general(parse("2*x"), parse("0"), 1.0, 0.0)
    xs = np.linspace(-1.5, 1.5, 31)
    assert np.max(np.abs(sol.values(xs) - np.exp(-xs**2))) <= 1e-9


def test_linear_accepts_plain_callables():
    sol = solve_linear_ivp(lambda x: np.ones_like(x), lambda x: x,
                           ic(0.0, 0.0))
    assert abs(sol.value(1.0) - math.exp(-1.0)) <= 1e-9


def test_linear_anchored_away_from_zero():
    # y' + y = 0, y(2) = 5  ->  y = 5 e^{2-x}
    sol = solve_linear_ivp(parse("1"), parse("0"), ic(2.0, 5.0))
    assert sol.value(2.0) == 5.0
    assert abs(sol.value(3.0) - 5.0 * math.exp(-1.0)) <= 1e-9
    assert abs(sol.value(0.0) - 5.0 * math.exp(2.0)) <= 2e-9


# ---------------------------------------------------------------------------
# Bernoulli


def test_bernoulli_worked_instance():
    # y' + y = y^2, y(0) = 1/2  ->  y = 1 / (1 + e^x)
    sol = solve_bernoulli(parse("1"), parse("1"), 2.0, ic(0.0, 0.5))
    xs = np.linspace(0.0, 1.0, 101)
    exact = 1.0 / (1.0 + np.exp(xs))
    assert np.max(np.abs(sol.values(xs) - exact)) <= 1e-9
    assert not sol.non_unique


def test_bernoulli_sqrt_growth():
    # y' = sqrt(y), y(0) = 1  ->  y = (x/2 + 1)^2
    sol = solve_bernoulli(parse("0"), parse("1"), 0.5, ic(0.0, 1.0))
    assert abs(sol.value(2.0) - 4.0) <= 1e-9


def test_bernoulli_zero_solution_flagging():
    # y(0) = 0 with 0 < alpha < 1: y = 0 works but is not unique.
    sol = solve_bernoulli(parse("1"), parse("1"), 0.5, ic(0.0, 0.0))
    assert sol.non_unique
    assert np.all(sol.values(np.linspace(0.0, 3.0, 7)) == 0.0)

    # alpha > 1 keeps uniqueness.
    sol2 = solve_bernoulli(parse("1"), parse("1"), 2.0, ic(0.0, 0.0))
    assert not sol2.non_unique
    assert sol2.value(1.5) == 0.0


def test_bernoulli_negative_initial_value():
    # Odd symmetry case: y' + y = 0*y^3, y(0) = -1  ->  y = -e^{-x}
    sol = solve_bernoulli(parse("1"), parse("0"), 3.0, ic(0.0, -1.0))
    xs = np.linspace(0.0, 2.0, 21)
    assert np.max(np.abs(sol.values(xs) + np.exp(-xs))) <= 1e-9


def test_bernoulli_parameter_validation():
    good = ic(0.0, 1.0)
    with pytest.raises(ParameterError):
        solve_bernoulli(parse("1"), parse("1"), 0.0, good)  # linear already
    with pytest.raises(ParameterError):
        solve_bernoulli(parse("1"), parse("1"), 1.0, good)  # linear already
    with pytest.raises(ParameterError):
        # negative start with fractional exponent has no real branch
        solve_bernoulli(parse("1"), parse("1"), 0.5, ic(0.0, -1.0))
    with pytest.raises(ParameterError):
        # y = 0 start with alpha <= 0 puts y^alpha outside its domain
        solve_bernoulli(parse("1"), parse("1"), -1.0, ic(0.0, 0.0))


def test_bernoulli_power_overflow_is_typed():
    with pytest.raises(EvalOverflowError):
        signed_power(1e300, 2.0)
    with pytest.raises(EvalOverflowError):
        solve_bernoulli(parse("1"), parse("1"), -1.0, ic(0.0, 1e300))


def test_bernoulli_blowup_validity():
    # y' = y^2, y(0) = 1  ->  y = 1/(1 - x), valid below x = 1.
    sol = solve_bernoulli(parse("0"), parse("1"), 2.0, ic(0.0, 1.0))
    assert abs(sol.value(0.5) - 2.0) <= 1e-9
    with pytest.raises(OutsideValidityError):
        sol.value(1.5)
    lo, hi = sol.validity.lo, sol.validity.hi
    assert abs(hi - 1.0) <= 1e-8
    assert lo == -math.inf or lo < -1e6
    assert sol.limit_note is not None


def test_bernoulli_route_equivalence_fixed_instances():
    cases = [
        ("1", "1", 2.0, 0.5),   # the worked instance
        ("0", "1", 0.5, 1.0),   # sqrt growth
        ("0", "0", 2.0, 1.0),   # constant solution y = 1
        ("1", "0", 3.0, 1.0),   # pure decay through the u = y^{-2} route
    ]
    xs = np.linspace(0.0, 1.0, 41)
    for f, g, alpha, y0 in cases:
        direct = solve_bernoulli(parse(f), parse(g), alpha, ic(0.0, y0))
        routed = solve_bernoulli_via_linear(parse(f), parse(g), alpha,
                                            ic(0.0, y0))
        a = direct.values(xs)
        b = routed.values(xs)
        assert np.max(np.abs(a - b) / (1.0 + np.abs(a))) <= 1e-8, (f, g, alpha)


def test_bernoulli_via_linear_rejects_zero_start():
    with pytest.raises(ParameterError):
        solve_bernoulli_via_linear(parse("1"), parse("1"), 2.0, ic(0.0, 0.0))


def test_bernoulli_sample_no_overlap():
    # Solution blows up at x = 1e-12; sampling [0.001, 2] has nothing left.
    sol = solve_bernoulli(parse("0"), parse("1"), 2.0, ic(0.0, 1e12))
    with pytest.raises(NoOverlapError):
        sol.sample(0.001, 2.0, 10)


# ---------------------------------------------------------------------------
# Exponential class


def test_exp_log_solution_and_validity():
    # y' + e^y = 0, y(0) = 0  ->  y = -log(1 + x), valid on (-1, inf).
    sol = solve_exp(parse("1"), parse("0"), 1.0, ic(0.0, 0.0))
    assert abs(sol.value(1.0) + math.log(2.0)) <= 1e-9
    assert abs(sol.value(-0.9) + math.log(0.1)) <= 1e-9
    sol.ensure_validity(-2.0, 1.0)
    assert abs(sol.validity.lo - (-1.0)) <= 1e-8
    with pytest.raises(OutsideValidityError):
        sol.value(-1.5)


def test_exp_pure_forcing():
    # y' = x e^0 ... beta only multiplies the f-term; here f = 0 so
    # y' = x, y(0) = 2  ->  y = 2 + x^2/2.
    sol = solve_exp(parse("0"), parse("x"), 1.0, ic(0.0, 2.0))
    assert abs(sol.value(2.0) - 4.0) <= 1e-9


def test_exp_balanced_instance_stays_at_zero():
    # y' + e^{2y} = 1 with y(0) = 0 keeps y identically zero.
    sol = solve_exp(parse("1"), parse("1"), 2.0, ic(0.0, 0.0))
    xs = np.linspace(0.0, 1.0, 51)
    assert np.max(np.abs(sol.values(xs))) <= 1e-8


def test_exp_parameter_validation():
    with pytest.raises(ParameterError):
        solve_exp(parse("1"), parse("0"), 0.0, ic(0.0, 0.0))
    with pytest.raises(ParameterError):
        # e^{-beta y0} overflows double precision
        solve_exp(parse("1"), parse("0"), 1.0, ic(0.0, -800.0))


@pytest.mark.parametrize("f, g, cause", [
    ("sqrt(1-x)", "sqrt(1-x)", "square root of a negative argument"),
    ("1/(x-1)", "0", "did not converge"),
])
def test_quadrature_failure_boundaries_are_located(f, g, cause):
    # A coefficient outside its domain, and an antiderivative that diverges,
    # both end the validity interval at x = 1; the note names the cause.
    sol = solve_linear_ivp(parse(f), parse(g), ic(0.0, 1.0))
    sol.ensure_validity(-1.0, 2.0)
    assert abs(sol.validity.hi - 1.0) <= 1e-8
    assert sol.validity.lo == -math.inf
    assert cause in sol.limit_note
    xs = np.linspace(-1.0, sol.validity.hi - 1e-6, 9)
    assert np.all(np.isfinite(sol.values(xs)))


def test_overflowing_quadrature_sums_raise_no_numpy_warning():
    # W = integral of exp(t^2) * e^t leaves double range near t = 26.6;
    # that ends the validity interval quietly, without a RuntimeWarning.
    sol = solve_linear_ivp(parse("1"), parse("exp(x^2)"), ic(0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs, ys = sol.sample(0.0, 40.0, 3)
    assert 26.0 < sol.validity.hi < 27.0
    assert np.all(np.isfinite(ys))


BATCH_SOLUTIONS = {
    "blow-up": lambda: solve_bernoulli(parse("0"), parse("1"), 2.0,
                                       ic(0.0, 1.0)),
    "coefficient domain": lambda: solve_linear_ivp(
        parse("sqrt(1-x)"), parse("sqrt(1-x)"), ic(0.0, 1.0)),
    "log argument": lambda: solve_exp(parse("1"), parse("0"), 1.0,
                                      ic(0.0, 0.0)),
}


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(BATCH_SOLUTIONS)),
       xs=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=12))
def test_bad_flags_do_not_depend_on_the_batch(kind, xs):
    """A point fails in a batch exactly when it fails alone, so the
    validity search never needs to look at a point twice."""
    sol = BATCH_SOLUTIONS[kind]()
    xs = np.array(xs)
    _, bad, cause = sol._masked(xs)
    alone = [bool(sol._masked(xs[i:i + 1])[1][0]) for i in range(xs.size)]
    assert bad.tolist() == alone
    assert (cause is None) == (not bad.any())
    if bad.any():
        assert isinstance(cause(), OdeformError)


# ---------------------------------------------------------------------------
# Second order, constant coefficients


def test_second_order_distinct_real():
    sol = solve_second_order(-3.0, 2.0, 1.0, 0.0)
    assert sol.case == "real"
    assert_ulps(sol.value(1.0), math.e)
    xs = np.linspace(-1.0, 2.0, 31)
    assert np.max(np.abs(sol.values(xs) - np.exp(xs))) <= 1e-12


def test_second_order_repeated():
    sol = solve_second_order(2.0, 1.0, 1.0, 1.0)
    assert sol.case == "repeated"
    assert abs(sol.value(1.0) - 2.0 / math.e) <= 1e-12
    xs = np.linspace(0.0, 2.0, 31)
    assert np.max(np.abs(sol.values(xs) - (1 + xs) * np.exp(-xs))) <= 1e-12


def test_second_order_oscillator():
    sol = solve_second_order(0.0, 1.0, 0.0, 1.0)
    assert sol.case == "complex"
    xs = np.linspace(0.0, 2.0 * math.pi, 64)
    assert np.max(np.abs(sol.values(xs) - np.sin(xs))) <= 1e-12


def test_second_order_ivp_examples():
    sol = solve_second_order_ivp(-3.0, 2.0, ic(0.0, 1.0, 1.0))
    assert abs(sol.constants["C1"] - 1.0) <= 1e-12
    assert abs(sol.constants["C2"]) <= 1e-12
    assert abs(sol.value(1.0) - math.e) <= 1e-12

    sol = solve_second_order_ivp(2.0, 1.0, ic(0.0, 1.0, 0.0))
    assert abs(sol.value(1.0) - 2.0 / math.e) <= 1e-12

    sol = solve_second_order_ivp(0.0, 1.0, ic(0.0, 0.0, 1.0))
    assert abs(sol.value(math.pi / 2) - 1.0) <= 1e-12
    assert abs(sol.value(math.pi)) <= 1e-12


def test_second_order_superposition():
    xs = np.linspace(-1.0, 1.5, 23)
    eps = np.finfo(np.float64).eps
    for b, c, c1, c2 in [(-3.0, 2.0, 0.7, -1.2), (2.0, 1.0, 1.1, 0.4),
                         (1.0, 5.0, -0.6, 0.9)]:
        base = solve_second_order(b, c, c1, c2).values(xs)
        scaled = solve_second_order(b, c, 2.5 * c1, 2.5 * c2).values(xs)
        # Where the two basis terms nearly cancel, machine precision means
        # relative to the term magnitudes, not the (tiny) sum.
        scale = np.abs(solve_second_order(b, c, c1, 0.0).values(xs)) + \
            np.abs(solve_second_order(b, c, 0.0, c2).values(xs))
        tol = 8.0 * eps * 2.5 * np.maximum(scale, 1e-300)
        assert np.all(np.abs(scaled - 2.5 * base) <= tol), (b, c)


def test_second_order_case_threshold():
    assert solve_second_order(2.0, 1.0 + 1e-13, 1.0, 0.0).case == "repeated"
    assert solve_second_order(2.0, 1.0 - 1e-13, 1.0, 0.0).case == "repeated"
    assert solve_second_order(2.0, 1.1, 1.0, 0.0).case == "complex"
    assert solve_second_order(2.0, 0.9, 1.0, 0.0).case == "real"
    assert solve_second_order(0.0, -1.0, 1.0, 1.0).case == "real"


def test_second_order_ivp_far_from_origin():
    # The basis is anchored at x0, so e^(r x0) never enters the constants.
    sol = solve_second_order_ivp(-2.0, 5.0, ic(400.0, 1.0, 0.0))
    assert sol.constants == {"C1": 1.0, "C2": -0.5}
    exact = math.exp(0.5) * (math.cos(1.0) - 0.5 * math.sin(1.0))
    assert abs(sol.value(400.5) - exact) <= 1e-12
    # e^(2 x0) overflows at x0 = 1000; anchored, y stays 1 near x0
    sol = solve_second_order_ivp(-2.0, 0.0, ic(1000.0, 1.0, 0.0))
    assert np.array_equal(sol.values(np.array([999.0, 1001.0])), [1.0, 1.0])


def test_second_order_ivp_matches_initial_data_in_every_case():
    for b, c in [(-3.0, 2.0), (2.0, 1.0), (0.5, 4.0)]:
        sol = solve_second_order_ivp(b, c, ic(-7.5, 0.8, -0.3))
        h = 1e-5
        ym, y0, yp = sol.values(np.array([-7.5 - h, -7.5, -7.5 + h]))
        assert abs(y0 - 0.8) <= 1e-15, sol.case
        assert abs((yp - ym) / (2 * h) + 0.3) <= 1e-8, sol.case


def test_case_is_set_at_construction_and_kept_by_perturbed():
    sol = solve_second_order_ivp(2.0, 5.0, ic(0.0, 1.0, 0.0))
    assert sol.case == "complex"
    assert sol.perturbed(1e-3).case == "complex"
    assert solve_linear_ivp(parse("1"), parse("0"), ic(0.0, 1.0)).case is None


def test_construct_dispatches_on_the_class():
    f, g = parse("1"), parse("x")
    xs = np.linspace(0.0, 0.5, 5)
    pairs = [
        (EquationSpec.linear(f, g), ic(0.0, 1.0),
         solve_linear_ivp(f, g, ic(0.0, 1.0))),
        (EquationSpec.bernoulli(f, g, 2.0), ic(0.0, 0.5),
         solve_bernoulli(f, g, 2.0, ic(0.0, 0.5))),
        (EquationSpec.exp_class(f, g, 1.0), ic(0.0, 0.0),
         solve_exp(f, g, 1.0, ic(0.0, 0.0))),
        (EquationSpec.second_order(1.0, 2.0), ic(0.0, 1.0, 0.0),
         solve_second_order_ivp(1.0, 2.0, ic(0.0, 1.0, 0.0))),
    ]
    for spec, initial, direct in pairs:
        sol = construct(spec, initial)
        assert sol.kind == spec.kind
        assert np.array_equal(sol.values(xs), direct.values(xs))


def test_second_order_case_boundary_continuity():
    xs = np.linspace(0.0, 1.0, 101)
    mid = solve_second_order_ivp(2.0, 1.0, ic(0.0, 1.0, 0.0)).values(xs)
    for c in (1.0 + 1e-8, 1.0 - 1e-8):
        near = solve_second_order_ivp(2.0, c, ic(0.0, 1.0, 0.0)).values(xs)
        assert np.max(np.abs(near - mid)) <= 1e-6


def test_second_order_overflow_limits_validity():
    sol = solve_second_order(-3.0, 2.0, 1.0, 0.0)  # y = e^x
    with pytest.raises(OutsideValidityError):
        sol.value(1000.0)
    hi = sol.validity.hi
    assert abs(hi - math.log(1.7976931348623157e308)) <= 1.0


def test_second_order_parameter_validation():
    with pytest.raises(ParameterError):
        solve_second_order(float("nan"), 1.0, 1.0, 0.0)
    with pytest.raises(ParameterError):
        solve_second_order(1.0, 1.0, float("inf"), 0.0)
    with pytest.raises(ParameterError):
        solve_second_order_ivp(1.0, 1.0, ic(0.0, 1.0))  # yp0 missing


# ---------------------------------------------------------------------------
# Shared behavior


def test_initial_condition_exactness():
    """The anchored construction reproduces initial data almost exactly."""
    data = [
        (solve_linear_ivp(parse("sin(x)"), parse("cos(x)"), ic(0.5, 3.0)),
         0.5, 3.0),
        (solve_linear_ivp(parse("1"), parse("x"), ic(-1.0, -2.5)),
         -1.0, -2.5),
        (solve_bernoulli(parse("1"), parse("1"), 2.0, ic(0.0, 2.0)),
         0.0, 2.0),
        (solve_bernoulli(parse("1"), parse("0"), 3.0, ic(0.5, -1.0)),
         0.5, -1.0),
        (solve_exp(parse("1"), parse("x"), 1.5, ic(0.25, 0.5)),
         0.25, 0.5),
        (solve_second_order_ivp(1.0, 5.0, ic(0.3, 1.2, -0.7)),
         0.3, 1.2),
    ]
    for sol, x0, y0 in data:
        assert sol.x0 == x0
        assert abs(sol.value(x0) - y0) <= 1e-12 * max(1.0, abs(y0))


def test_second_order_ivp_slope():
    sol = solve_second_order_ivp(1.0, 5.0, ic(0.3, 1.2, -0.7))
    h = 1e-6
    slope = (sol.value(0.3 + h) - sol.value(0.3 - h)) / (2 * h)
    assert abs(slope - (-0.7)) <= 1e-6


def test_initial_condition_validation():
    with pytest.raises(ParameterError):
        InitialCondition(float("inf"), 1.0)
    with pytest.raises(ParameterError):
        InitialCondition(0.0, float("nan"))
    with pytest.raises(ParameterError):
        InitialCondition(0.0, 1.0, float("inf"))


def test_equation_spec_validation():
    with pytest.raises(ParameterError):
        EquationSpec.linear(None, parse("0"))
    with pytest.raises(ParameterError):
        EquationSpec.bernoulli(parse("1"), parse("1"), 1.0)
    with pytest.raises(ParameterError):
        EquationSpec.exp_class(parse("1"), parse("1"), 0.0)
    with pytest.raises(ParameterError):
        EquationSpec.second_order(float("nan"), 1.0)
    spec = EquationSpec.second_order(2.0, 1.0)
    assert spec.kind is EquationClass.SECOND_ORDER


def test_perturbed_twin_offsets_values():
    sol = solve_linear_ivp(parse("1"), parse("0"), ic(0.0, 1.0))
    twin = sol.perturbed(1e-3)
    xs = np.linspace(0.0, 1.0, 11)
    assert np.max(np.abs(twin.values(xs) - sol.values(xs) - 1e-3)) <= 1e-15


def test_values_rejects_bad_input():
    sol = solve_linear_ivp(parse("1"), parse("0"), ic(0.0, 1.0))
    with pytest.raises(ValueError):
        sol.values(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        sol.values(np.array([0.0, float("nan")]))
    with pytest.raises(ParameterError):
        sol.sample(1.0, 0.0, 10)
    with pytest.raises(ParameterError):
        sol.sample(0.0, 1.0, 1)
