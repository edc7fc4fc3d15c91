"""Tests for the expression parser, the tape kernel and the power rule."""

import concurrent.futures
import math
import random

import numpy as np
import pytest

from odeform import (
    EvalDomainError,
    EvalError,
    EvalOverflowError,
    ExprSyntaxError,
    parse,
)
from odeform import expr as bk
from odeform.expr import pow_scalar, pow_vector, tape_eval

from conftest import assert_ulps

# A single-valued kernel parameter keeps the "[numpy-...]" test ids stable.
numpy_kernel = pytest.mark.parametrize("kernel", ["numpy"])

# Each entry: (source text, evaluation point, directly computed reference).
# The references are evaluated with plain Python floating point, so agreement
# is required to within a few ulp rather than an epsilon band.
CORPUS = [
    ("0", 0.7, 0.0),
    ("1.5", -2.0, 1.5),
    ("x", 1.25, 1.25),
    ("-x", 0.5, -0.5),
    ("x+1", 2.0, 3.0),
    ("2-x", 0.5, 1.5),
    ("3*x", 1.5, 4.5),
    ("x/4", 3.0, 0.75),
    ("x^2", 3.0, 9.0),
    ("2^3^2", 1.0, 512.0),
    ("-x^2", 2.0, -4.0),
    ("2^-3", 9.9, 0.125),
    ("(x+1)*(x-1)", 3.0, 8.0),
    ("sin(x)", 0.7, math.sin(0.7)),
    ("cos(x)", 0.7, math.cos(0.7)),
    ("tan(x)", 0.7, math.tan(0.7)),
    ("exp(x)", 0.7, math.exp(0.7)),
    ("log(x)", 0.7, math.log(0.7)),
    ("sqrt(x)", 0.49, 0.7),
    ("abs(x)", -0.7, 0.7),
    ("atan(x)", 0.7, math.atan(0.7)),
    ("sin(x)+2*x^2", 0.0, 0.0),
    ("sin(x)+2*x^2", 1.3, math.sin(1.3) + 2 * 1.3**2),
    ("exp(-x)", 0.0, 1.0),
    ("exp(-x)", 1.0, math.exp(-1.0)),
    ("1/(1+x^2)", 1.0, 0.5),
    ("x^0.5", 2.0, 2.0**0.5),
    ("(0-2)^3", 1.0, -8.0),
    ("(0-2)^2", 1.0, 4.0),
    ("exp(log(x))", 2.5, math.exp(math.log(2.5))),
    ("sqrt(x^2)", -3.0, 3.0),
    ("sin(x)^2+cos(x)^2", 0.9, math.sin(0.9) ** 2 + math.cos(0.9) ** 2),
    ("log(exp(x))", 1.2, math.log(math.exp(1.2))),
    ("2*x-3/x", 2.0, 2 * 2.0 - 3 / 2.0),
    ("atan(tan(x))", 0.5, math.atan(math.tan(0.5))),
    ("x*x*x", 1.7, 1.7 * 1.7 * 1.7),
    ("-(x-5)", 2.0, 3.0),
    ("1e2*x", 0.25, 25.0),
    (".5*x", 4.0, 2.0),
    ("abs(0-x)^3", 2.0, 8.0),
]


def test_corpus_size():
    assert len(CORPUS) >= 30


@pytest.mark.parametrize("text,x,expected", CORPUS)
@numpy_kernel
def test_corpus_values(kernel, text, x, expected):
    expr = parse(text)
    assert_ulps(expr.eval(x), expected, ulps=4)
    # Array evaluation must agree with scalar evaluation.
    many = expr.eval_many(np.array([x, x]))
    assert many.shape == (2,)
    assert_ulps(float(many[0]), expected, ulps=4)


def test_precedence_and_associativity():
    assert parse("2^3^2").eval(0.0) == 512.0
    assert parse("-x^2").eval(2.0) == -4.0
    assert parse("2^-3").eval(0.0) == 0.125
    assert parse("2*3^2").eval(0.0) == 18.0
    assert parse("-2^2").eval(0.0) == -4.0
    assert parse("(0-2)^2").eval(0.0) == 4.0
    assert parse("1-2-3").eval(0.0) == -4.0
    assert parse("8/4/2").eval(0.0) == 1.0


def test_constant_expression_ignores_x():
    expr = parse("0")
    assert expr.eval(123.0) == 0.0
    out = expr.eval_many(np.linspace(-5, 5, 7))
    assert out.shape == (7,)
    assert np.all(out == 0.0)


def test_documented_evaluations():
    assert parse("x^2").eval(3.0) == 9.0
    assert_ulps(parse("1/(1+x^2)").eval(1.0), 0.5)
    with pytest.raises(EvalDomainError):
        parse("log(x)").eval(0.0)


@pytest.mark.parametrize(
    "text,offset,fragment",
    [
        ("2*+x", 2, "'+'"),
        ("2x", 1, "'x'"),
        ("(x", 2, "')'"),
        ("foo(x)", 0, "foo"),
        ("", 0, "empty"),
        ("sin x", 4, "'('"),
        ("1+", 2, "end of input"),
        ("$", 0, "character"),
        ("x + $", 4, "character"),
        ("()", 1, None),
        ("1..2", 2, None),
        # a digit outside ASCII is a malformed number, other characters
        # no token starts with are unexpected
        ("x*\u0663", 2, "malformed number"),
        ("x^\u00b2", 2, "malformed number"),
        ("x\f", 1, "unexpected character"),
    ],
)
def test_syntax_errors(text, offset, fragment):
    with pytest.raises(ExprSyntaxError) as info:
        parse(text)
    err = info.value
    assert err.offset == offset
    assert f"offset {offset}" in str(err)
    if fragment is not None:
        assert fragment in str(err)


def test_syntax_error_offset_is_in_bytes():
    # Multi-byte characters before the error position count per byte.
    with pytest.raises(ExprSyntaxError) as info:
        parse("x*é")  # e-acute encodes to two UTF-8 bytes
    assert info.value.offset == 2


def test_number_literal_overflow_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("1e999")


def test_nesting_too_deep_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError) as info:
        parse("(" * 300 + "x" + ")" * 300)
    assert "nests too deeply" in str(info.value)
    assert 0 < info.value.offset < 300  # at one of the opening parentheses


def test_long_flat_sum_compiles_without_recursion():
    # Each "+" appends its opcode as it is read; 3000 terms need a stack of
    # two and no recursion.
    expr = parse("+".join(["1"] * 3000))
    assert expr._need == 2
    assert expr.eval(0.5) == 3000.0


@pytest.mark.parametrize(
    "text,x,exc",
    [
        ("1/x", 0.0, EvalDomainError),
        ("log(x)", 0.0, EvalDomainError),
        ("log(x)", -1.0, EvalDomainError),
        ("sqrt(x)", -1.0, EvalDomainError),
        ("x^0.5", -2.0, EvalDomainError),
        ("x^-1", 0.0, EvalDomainError),
        ("exp(x)", 1000.0, EvalOverflowError),
        ("exp(exp(x))", 10.0, EvalOverflowError),
        ("x^x", 1e300, EvalOverflowError),
    ],
)
@numpy_kernel
def test_evaluation_errors(kernel, text, x, exc):
    expr = parse(text)
    with pytest.raises(exc) as info:
        expr.eval(x)
    assert info.value.x == x
    assert isinstance(info.value, EvalError)


@numpy_kernel
def test_eval_many_reports_first_failing_point(kernel):
    expr = parse("log(x)")
    with pytest.raises(EvalDomainError) as info:
        expr.eval_many(np.array([1.0, 2.0, -3.0, -4.0]))
    assert info.value.x == -3.0


@numpy_kernel
def test_negative_base_integer_power(kernel):
    expr = parse("x^3")
    assert expr.eval(-2.0) == -8.0
    assert parse("x^2").eval(-2.0) == 4.0
    assert parse("x^-2").eval(-2.0) == 0.25
    # An exponent within a relative half-ulp of an integer counts as integral.
    assert_ulps(parse("x^2.0000000000000004").eval(-2.0), 4.0)
    with pytest.raises(EvalDomainError):
        parse("x^2.000000001").eval(-2.0)


@numpy_kernel
def test_zero_base_powers(kernel):
    assert parse("x^2").eval(0.0) == 0.0
    assert parse("x^0").eval(0.0) == 1.0
    with pytest.raises(EvalDomainError):
        parse("x^-2").eval(0.0)


def test_non_finite_input_rejected():
    expr = parse("x+1")
    with pytest.raises(ValueError):
        expr.eval(float("nan"))
    with pytest.raises(ValueError):
        expr.eval_many(np.array([0.0, float("inf")]))
    with pytest.raises(ValueError):
        expr.eval_many(np.zeros((2, 2)))


def _random_tree(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return "x"
        return format(rng.uniform(-3.0, 3.0), ".17g")
    kind = rng.randrange(3)
    if kind == 0:
        return f"-({_random_tree(rng, depth - 1)})"
    if kind == 1:
        fn = rng.choice(["sin", "cos", "tan", "exp", "log", "sqrt", "abs", "atan"])
        return f"{fn}({_random_tree(rng, depth - 1)})"
    op = rng.choice(["+", "-", "*", "/", "^"])
    left = _random_tree(rng, depth - 1)
    right = _random_tree(rng, depth - 1)
    return f"({left}){op}({right})"


@numpy_kernel
def test_totality_on_random_trees(kernel):
    """Random expressions either produce finite values or raise a typed error."""
    rng = random.Random(20260814)
    trees = [_random_tree(rng, rng.randrange(1, 7)) for _ in range(60)]
    xs = [rng.uniform(-10.0, 10.0) for _ in range(100)]
    for text in trees:
        expr = parse(text)
        for x in xs:
            try:
                value = expr.eval(x)
            except (EvalDomainError, EvalOverflowError):
                continue
            assert math.isfinite(value), (text, x, value)


def scalar_tape_eval(code, cval, need, xs):
    """Reference interpreter: one point at a time, stopping at the first
    error, with the same statuses and power rule as ``tape_eval``."""
    n = xs.shape[0]
    m = code.shape[0]
    out = np.empty(n)
    status = np.zeros(n, np.int8)
    stack = np.empty(need)
    for i in range(n):
        x = xs[i]
        sp = 0
        st = 0
        for k in range(m):
            op = code[k]
            if op == bk.OP_CONST:
                stack[sp] = cval[k]
                sp += 1
            elif op == bk.OP_X:
                stack[sp] = x
                sp += 1
            elif op == bk.OP_NEG:
                stack[sp - 1] = -stack[sp - 1]
            elif op <= bk.OP_POW:
                b = stack[sp - 1]
                a = stack[sp - 2]
                sp -= 1
                if op == bk.OP_ADD:
                    r = a + b
                elif op == bk.OP_SUB:
                    r = a - b
                elif op == bk.OP_MUL:
                    r = a * b
                elif op == bk.OP_DIV:
                    if b == 0.0:
                        st = bk.ERR_DIV_ZERO
                        break
                    r = a / b
                else:
                    r = pow_scalar(a, b)
                    if r is None:
                        st = bk.ERR_POW_DOMAIN
                        break
                stack[sp - 1] = r
                if not np.isfinite(r):
                    st = bk.ERR_OVERFLOW
                    break
            else:
                a = stack[sp - 1]
                if op == bk.OP_SIN:
                    r = np.sin(a)
                elif op == bk.OP_COS:
                    r = np.cos(a)
                elif op == bk.OP_TAN:
                    r = np.tan(a)
                elif op == bk.OP_EXP:
                    if a > bk.EXP_MAX:
                        st = bk.ERR_OVERFLOW
                        break
                    r = np.exp(a)
                elif op == bk.OP_LOG:
                    if a <= 0.0:
                        st = bk.ERR_LOG_DOMAIN
                        break
                    r = np.log(a)
                elif op == bk.OP_SQRT:
                    if a < 0.0:
                        st = bk.ERR_SQRT_DOMAIN
                        break
                    r = np.sqrt(a)
                elif op == bk.OP_ABS:
                    r = abs(a)
                else:
                    r = np.arctan(a)
                stack[sp - 1] = r
                if not np.isfinite(r):
                    st = bk.ERR_OVERFLOW
                    break
        if st == bk.OK:
            out[i] = stack[0]
        else:
            out[i] = np.nan
            status[i] = st
    return out, status


def test_backend_parity_values_and_statuses():
    """The numpy kernel matches the scalar reference interpreter on statuses
    and (to 4 ulp) on values, over random trees and the corpus."""
    rng = random.Random(911)
    trees = [_random_tree(rng, rng.randrange(1, 7)) for _ in range(40)]
    trees += [text for text, _, _ in CORPUS]
    xs = np.array([rng.uniform(-6.0, 6.0) for _ in range(64)])
    for text in trees:
        expr = parse(text)
        args = (expr._code, expr._cval, expr._need, xs)
        r_ref, s_ref = scalar_tape_eval(*args)
        r, s = tape_eval(*args)
        assert np.array_equal(s, s_ref), text
        ok = s_ref == 0
        for a, b in zip(r[ok], r_ref[ok]):
            assert_ulps(float(a), float(b), ulps=4)


def test_power_rules_agree():
    """pow_vector and pow_scalar agree on validity and (to 4 ulp) on values,
    over bases and exponents around every special case."""
    bases = [-3.0, -2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 7.25]
    expos = [-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 2.5,
             2.0000000000000004, 2.000000001, -3.0000000000000004, 1e300]
    a = np.array([p for p in bases for _ in expos])
    b = np.array([q for _ in bases for q in expos])
    with np.errstate(all="ignore"):
        vals, bad = pow_vector(a, b)
        # numpy scalars, as in the reference interpreter: overflow gives inf
        refs = [pow_scalar(x, e) for x, e in zip(a, b)]
    for x, e, v, is_bad, ref in zip(a, b, vals, bad, refs):
        assert is_bad == (ref is None), (x, e)
        if ref is None:
            continue
        if math.isfinite(ref):
            assert_ulps(float(v), float(ref), ulps=4)
        else:
            assert v == ref, (x, e)


def test_thread_safety_of_shared_expression():
    expr = parse("sin(x)+2*x^2")
    xs = np.linspace(-4.0, 4.0, 501)
    expected = expr.eval_many(xs)
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: expr.eval_many(xs), range(32)))
    for out in results:
        assert np.array_equal(out, expected)


def test_callable_interface_dispatch():
    expr = parse("x^2")
    assert expr(3.0) == 9.0
    out = expr(np.array([1.0, 2.0]))
    assert isinstance(out, np.ndarray)
    assert np.array_equal(out, np.array([1.0, 4.0]))
