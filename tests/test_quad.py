"""Tests for adaptive quadrature, anchored antiderivatives, and weighted
cumulative integrals."""

import concurrent.futures
import math
import random

import numpy as np
import pytest

from odeform import (
    Antiderivative,
    ConvergenceError,
    EvalDomainError,
    EvalError,
    EvalOverflowError,
    ParameterError,
    QuadratureConfig,
    antiderivative,
    integrate,
    integrate_many,
    parse,
    quad,
    weighted_cumulative,
)


def test_documented_definite_integrals():
    assert abs(integrate(parse("x"), 0.0, 1.0) - 0.5) <= 1e-9
    assert abs(integrate(parse("exp(x)"), 0.0, 1.0) - (math.e - 1)) <= 1e-9
    assert abs(integrate(parse("1/(1+x^2)"), 0.0, 1.0) - math.pi / 4) <= 1e-9


def test_more_analytic_integrals():
    assert abs(integrate(parse("sin(x)"), 0.0, math.pi) - 2.0) <= 1e-9
    assert abs(integrate(parse("x^3-2*x"), -1.0, 2.0) - 0.75) <= 1e-9
    assert abs(integrate(parse("1/x"), 1.0, math.e) - 1.0) <= 1e-9
    assert abs(integrate(lambda x: np.cos(10 * x), 0.0, 2.0)
               - math.sin(20.0) / 10.0) <= 1e-9


def test_exact_antisymmetry():
    fn = parse("exp(-x^2)+sin(x)")
    fwd = integrate(fn, -0.75, 1.5)
    rev = integrate(fn, 1.5, -0.75)
    assert rev == -fwd  # bitwise, not just approximately


def test_zero_width_interval_is_exact_zero():
    calls = []

    def fn(xs):
        calls.append(xs)
        return np.exp(xs)

    out = integrate_many(fn, np.array([0.3]), np.array([0.3]))
    assert out[0] == 0.0
    assert not calls  # the integrand was never evaluated


def test_scalar_only_callable_is_adapted():
    def fn(x):
        return math.sin(x) + 1.0  # rejects arrays via TypeError

    assert abs(integrate(fn, 0.0, math.pi) - (2.0 + math.pi)) <= 1e-9


def test_constant_returning_callable_is_broadcast():
    assert abs(integrate(lambda x: 2.0, 0.0, 3.0) - 6.0) <= 1e-9


def test_integrate_rejects_bad_bounds():
    with pytest.raises(ParameterError):
        integrate(parse("x"), 0.0, float("inf"))
    with pytest.raises(ParameterError):
        integrate_many(parse("x"), np.array([0.0, 1.0]), np.array([2.0]))


def test_additivity_within_combined_tolerance():
    cfg = QuadratureConfig()
    cases = [
        (parse("exp(-x^2)"), -1.0, 0.25, 2.0),
        (parse("sin(x)/(2+cos(x))"), 0.0, 1.3, 4.0),
        (parse("x^3-2*x"), -2.0, 0.5, 3.0),
    ]
    for fn, a, b, c in cases:
        i_ab = integrate(fn, a, b, cfg)
        i_bc = integrate(fn, b, c, cfg)
        i_ac = integrate(fn, a, c, cfg)
        tol = sum(max(cfg.abs_tol, cfg.rel_tol * abs(v))
                  for v in (i_ab, i_bc, i_ac))
        assert abs(i_ab + i_bc - i_ac) <= 2.0 * tol


def test_divergent_integrand_raises_convergence_error():
    with pytest.raises(ConvergenceError) as info:
        integrate(parse("1/x"), 0.0, 1.0)
    err = info.value
    assert err.interval == (0.0, 1.0)
    assert math.isfinite(err.estimate)
    assert err.error_estimate > 0.0
    assert "converge" in str(err)


@pytest.mark.parametrize("bad, kind", [(np.inf, EvalOverflowError),
                                       (np.nan, EvalDomainError)])
def test_non_finite_integrand_raises_naming_a_node(bad, kind):
    # A plain callable marks the points it cannot evaluate with inf or NaN;
    # the integral must not come back as inf or NaN.
    def fn(xs):
        return np.where(xs > 0.5, bad, 1.0)

    with pytest.raises(kind) as info:
        integrate(fn, 0.0, 1.0)
    assert 0.5 < info.value.x < 1.0
    out = integrate_many(fn, [0.0, 0.0], [0.4, 1.0], masked=True)
    assert abs(out[0] - 0.4) <= 1e-12 and math.isnan(out[1])


def test_failed_intervals_leave_the_rest_of_the_batch_alone():
    # log(x) fails below 0 and 1/x diverges at 0; the other intervals of
    # the batch fail and succeed as they do alone, with the same values
    # bit for bit.
    for text in ("log(x)", "1/x"):
        fn = parse(text)
        a = np.array([1.0, -1.0, 2.0, 0.0, 0.5])
        b = np.array([2.0, 1.0, 3.0, 1.0, 4.0])
        out = integrate_many(fn, a, b, masked=True)
        alone = [integrate_many(fn, a[i:i + 1], b[i:i + 1], masked=True)[0]
                 for i in range(a.size)]
        alone = np.array(alone)
        assert np.array_equal(np.isnan(out), np.isnan(alone)), text
        assert np.array_equal(out, alone, equal_nan=True), text
        assert np.isnan(out[1])
        with pytest.raises((EvalError, ConvergenceError)):
            integrate_many(fn, a, b)


def test_antiderivative_is_undefined_past_a_failed_segment():
    F = antiderivative(parse("sqrt(1-x)"), 0.0)
    xs = np.array([0.5, 0.99, 1.5, 3.0, -2.0])
    out = F.values(xs, masked=True)
    assert np.all(np.isfinite(out[[0, 1, 4]]))
    assert np.isnan(out[2]) and np.isnan(out[3])
    with pytest.raises(EvalDomainError) as info:
        F.values(xs)
    assert "square root" in str(info.value) and info.value.x > 1.0
    assert np.array_equal(F.values(xs[[0, 1, 4]]), out[[0, 1, 4]])


def test_failed_segment_names_its_ordered_interval_on_either_side():
    # 1/x diverges at 0, which a checkpoint segment straddles whether the
    # table grows right (anchor -0.3) or left (anchor 0.3) to reach it.
    fn = parse("1/x")
    seg_cfg = QuadratureConfig(abs_tol=quad._SEGMENT_TOL * 1e-10)
    for x0, x in ((-0.3, 1.0), (0.3, -1.0)):
        with pytest.raises(ConvergenceError) as info:
            antiderivative(fn, x0).value(x)
        a, b = info.value.interval
        assert a < 0.0 < b, x0
        # The same error as the segment run forward on its own.
        with pytest.raises(ConvergenceError) as alone:
            integrate(fn, a, b, seg_cfg)
        assert info.value.estimate == alone.value.estimate, x0
        assert info.value.error_estimate == alone.value.error_estimate, x0


def test_max_depth_limit_enforced():
    cfg = QuadratureConfig(max_depth=1, abs_tol=1e-14, rel_tol=1e-14)
    with pytest.raises(ConvergenceError):
        integrate(parse("sin(x^2)"), 0.0, 10.0, cfg)


def test_nonsmooth_integrands_still_converge():
    # A kink off any panel midpoint and a steep logistic step.
    assert abs(integrate(parse("abs(x-0.3)"), 0.0, 1.0)
               - (0.3**2 + 0.7**2) / 2.0) <= 1e-9
    steep = parse("1/(1+exp(-200*(x-0.5)))")
    exact = 0.5 + (math.log(1 + math.exp(-100)) -
                   math.log(1 + math.exp(100))) / 200.0 + 0.5
    assert abs(integrate(steep, 0.0, 1.0) - exact) <= 1e-8


def test_subnormal_abs_tol_still_integrates():
    # abs_tol/256 for the checkpoint segments rounds to 0 here; rel_tol
    # alone then sets the tolerance.
    F = antiderivative(parse("cos(x)"), 0.0, QuadratureConfig(abs_tol=1e-322))
    assert abs(F.value(2.0) - math.sin(2.0)) <= 1e-9


def test_config_validation():
    with pytest.raises(ParameterError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ParameterError):
        QuadratureConfig(rel_tol=-1e-9)
    with pytest.raises(ParameterError):
        QuadratureConfig(max_depth=0)
    with pytest.raises(ParameterError):
        QuadratureConfig(checkpoint_spacing=0.0)


# ---------------------------------------------------------------------------
# Anchored antiderivatives


def test_documented_antiderivative_values():
    F = antiderivative(parse("cos(x)"), 0.0)
    assert abs(F.value(math.pi / 2) - 1.0) <= 1e-9

    Z = antiderivative(parse("0"), 5.0)
    for x in (-3.0, 5.0, 11.0):
        assert Z.value(x) == 0.0

    E = antiderivative(parse("exp(x)"), 0.0)
    assert abs(E.value(1.0) - (math.e - 1)) <= 1e-9


def test_anchor_value_is_exact_zero():
    F = antiderivative(parse("exp(x)*sin(x)"), 1.25)
    assert F.value(1.25) == 0.0
    assert F.eval_count == 0  # no integrand work for the anchor itself


def test_negative_side_queries():
    F = antiderivative(parse("exp(x)"), 0.0)
    assert abs(F.value(-1.0) - (math.exp(-1.0) - 1.0)) <= 1e-9
    assert abs(F.value(-3.2) - (math.exp(-3.2) - 1.0)) <= 1e-9


def test_values_vectorized_and_order_independent():
    xs = np.array([2.0, -1.5, 0.0, 0.31, -0.31, 1.999])
    F1 = antiderivative(parse("cos(x)"), 0.0)
    got = F1.values(xs)
    F2 = antiderivative(parse("cos(x)"), 0.0)
    one_by_one = np.array([F2.value(float(x)) for x in np.sort(xs)])
    order = np.argsort(xs)
    assert np.array_equal(got[order], one_by_one)
    assert np.max(np.abs(got - np.sin(xs))) <= 1e-9


def test_checkpoints_strictly_increasing():
    F = antiderivative(parse("sin(x)"), 0.5)
    F.values(np.array([-1.0, 2.0]))
    pts = F.checkpoints()
    xs = np.array([x for x, _ in pts])
    assert np.all(np.diff(xs) > 0)
    vals = dict(pts)
    assert vals[0.5] == 0.0
    # Checkpoint values agree with the analytic antiderivative.
    for x, v in pts:
        assert abs(v - (math.cos(0.5) - math.cos(x))) <= 1e-9


def test_checkpoints_are_running_sums_of_single_segments():
    """The table equals a loop adding one segment at a time, each
    integrated alone, outward from x0 on both sides, bit for bit."""
    fn = parse("exp(-x^2)*cos(3*x)")
    x0 = 0.3
    F = antiderivative(fn, x0)
    F.values(np.array([-1.7, 2.3]))
    h = F.spacing
    seg_cfg = QuadratureConfig(abs_tol=quad._SEGMENT_TOL * 1e-10)
    ks = [round((x - x0) / h) for x, _ in F.checkpoints()]
    expected = {0: 0.0}
    for step, k_end in ((1, max(ks)), (-1, min(ks))):
        acc = 0.0
        for k in range(0, k_end, step):
            start = x0 + k * h
            acc += integrate(fn, start, start + step * h, seg_cfg)
            expected[k + step] = acc
    assert [v for _, v in F.checkpoints()] == [expected[k] for k in ks]


def test_derivative_recovery():
    """Centered differences of F recover the integrand at random points."""
    integrands = ["sin(x)", "exp(-x)", "1/(1+x^2)", "cos(3*x)", "x^3-2*x"]
    rng = random.Random(42)
    pts = np.array([rng.uniform(-2.0, 2.5) for _ in range(100)])
    h = 1e-5
    for text in integrands:
        phi = parse(text)
        F = antiderivative(phi, 0.0)
        approx = (F.values(pts + h) - F.values(pts - h)) / (2 * h)
        target = phi.eval_many(pts)
        bound = 1e-6 * np.maximum(1.0, np.abs(target))
        assert np.all(np.abs(approx - target) <= bound), text


def test_eval_counter_monotone_and_linear():
    F = antiderivative(parse("exp(-x^2)"), 0.0)
    rng = random.Random(7)
    xs = np.array([rng.uniform(-2.0, 3.0) for _ in range(100)])
    n = xs.size
    segments = math.ceil(5.0 / F.spacing) + 2

    assert F.eval_count == 0
    F.values(xs)
    first = F.eval_count
    # One pass of checkpoint segments plus one bounded tail per point.
    assert 0 < first <= 64 * (n + segments)

    F.values(xs)
    second = F.eval_count
    assert second >= first  # monotone
    # Re-querying the same points only pays for tails, not new checkpoints.
    assert second - first <= 64 * n

    F.values(xs)
    third = F.eval_count
    assert third - second == second - first  # steady state is deterministic


def test_antiderivative_is_pure_function_of_x():
    """Query history must not change returned values, bit for bit."""
    xs = np.linspace(-1.0, 2.0, 17)
    F_sorted = antiderivative(parse("exp(x)"), 0.0)
    a = F_sorted.values(xs)
    F_scrambled = antiderivative(parse("exp(x)"), 0.0)
    idx = [9, 3, 16, 0, 12, 5, 1, 14, 7, 11, 2, 15, 6, 10, 4, 13, 8]
    for i in idx:
        F_scrambled.value(float(xs[i]))
    b = F_scrambled.values(xs)
    assert np.array_equal(a, b)


def test_table_is_independent_of_growth_order():
    """Checkpoints grown by several two-sided queries equal those grown by
    one, bit for bit, though their segments ran in other batches."""
    fn = parse("exp(-x^2)*cos(3*x)")
    one = antiderivative(fn, 0.3)
    one.values(np.array([-3.7, 4.3]))
    many = antiderivative(fn, 0.3)
    for lo, hi in ((0.25, 1.0), (-2.0, 2.5), (-3.7, 4.3)):
        many.values(np.array([lo, hi]))
    assert len(one.checkpoints()) == 1025
    assert one.checkpoints() == many.checkpoints()


def test_value_matches_batched_values():
    F = antiderivative(parse("exp(-x^2)*cos(3*x)"), 0.0)
    xs = np.random.default_rng(3).uniform(-3.0, 3.0, 2000)
    batch = F.values(xs)
    assert np.array_equal(batch, [F.value(float(x)) for x in xs])


def test_concurrent_queries_match_serial():
    serial = antiderivative(parse("cos(x)"), 0.0)
    grids = [np.linspace(-1.0 - 0.1 * i, 2.0 + 0.1 * i, 101)
             for i in range(8)]
    expected = [serial.values(g) for g in grids]

    shared = antiderivative(parse("cos(x)"), 0.0)
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(shared.values, grids))
    for e, g in zip(expected, got):
        assert np.array_equal(e, g)


def test_custom_checkpoint_spacing():
    cfg = QuadratureConfig(checkpoint_spacing=0.5)
    F = antiderivative(parse("x"), 0.0, cfg)
    assert F.spacing == 0.5
    F.values(np.array([1.6]))
    xs = [x for x, _ in F.checkpoints()]
    assert xs == [0.0, 0.5, 1.0, 1.5]


def test_anchor_must_be_finite():
    with pytest.raises(ParameterError):
        antiderivative(parse("x"), float("nan"))


def test_query_span_guard():
    cfg = QuadratureConfig(checkpoint_spacing=1e-6)
    F = antiderivative(parse("0"), 0.0, cfg)
    with pytest.raises(ParameterError):
        F.value(1e17)


# ---------------------------------------------------------------------------
# Weighted cumulative integrals


def test_weighted_cumulative_examples():
    # g = 1, F(t) = t, scale = 1:  W(x) = e^x - 1.
    F = antiderivative(parse("1"), 0.0)
    W = weighted_cumulative(parse("1"), F, 1.0, 0.0)
    assert abs(W.value(1.0) - (math.e - 1)) <= 1e-9

    # g = 0 gives the zero function without error.
    W0 = weighted_cumulative(parse("0"), F, 1.0, 0.0)
    assert W0.value(2.0) == 0.0

    # g = 1, F(t) = -t, scale = 1:  W(x) = 1 - e^{-x}.
    Fm = antiderivative(parse("-1"), 0.0)
    Wm = weighted_cumulative(parse("1"), Fm, 1.0, 0.0)
    assert abs(Wm.value(1.0) - (1 - math.exp(-1.0))) <= 1e-9


def test_weighted_cumulative_composition():
    # g = cos, F(t) = t, scale = 1: W(x) = (e^x (sin x + cos x) - 1) / 2.
    F = antiderivative(parse("1"), 0.0)
    W = weighted_cumulative(parse("cos(x)"), F, 1.0, 0.0)
    for x in (0.5, 1.5, -0.75):
        exact = (math.exp(x) * (math.sin(x) + math.cos(x)) - 1.0) / 2.0
        assert abs(W.value(x) - exact) <= 1e-9


def test_weighted_cumulative_anchor_mismatch():
    F = antiderivative(parse("1"), 0.0)
    with pytest.raises(ParameterError):
        weighted_cumulative(parse("1"), F, 1.0, 0.5)
    with pytest.raises(ParameterError):
        weighted_cumulative(parse("1"), "not an antiderivative", 1.0, 0.0)


def test_weighted_cumulative_overflow_reports_location():
    F = antiderivative(parse("1"), 0.0)  # F(t) = t
    W = weighted_cumulative(parse("1"), F, 1000.0, 0.0)
    with pytest.raises(EvalOverflowError) as info:
        W.value(1.0)
    # exp(1000 t) overflows once t exceeds ~0.7098.
    assert 0.70 <= info.value.x <= 1.0
