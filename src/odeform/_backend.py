"""Tape interpreters and the package-wide power rule.

Expressions compile to a postfix tape (opcode array plus aligned constant
array). ``tape_eval`` interprets it over an array of evaluation points,
applying each opcode to whole arrays. The test suite holds a scalar
reference interpreter with the same semantics and checks the kernel
against it.

Every evaluated point gets a status and a failed point's value is NaN.
Callers either raise from the first nonzero status or, as the quadrature
integrands do, keep the NaN as a per-point failure mask.

Powers follow one rule, written once per shape: ``pow_vector`` for arrays
(the kernel, the residual check) and ``pow_scalar`` for single floats
(``signed_power``, the constructors, the oracle).
Positive bases behave as usual, 0**positive is 0 and 0**0 is 1, and a
negative base is accepted only for an exponent within a relative 2^-52 of
an integer, with the sign following that integer's parity.
"""

from __future__ import annotations

import numpy as np

# Tape opcodes. OP_CONST and OP_X push, OP_NEG and the functions rewrite the
# top of the stack, the arithmetic ops pop two and push one.
OP_CONST = 0
OP_X = 1
OP_NEG = 2
OP_ADD = 3
OP_SUB = 4
OP_MUL = 5
OP_DIV = 6
OP_POW = 7
OP_SIN = 8
OP_COS = 9
OP_TAN = 10
OP_EXP = 11
OP_LOG = 12
OP_SQRT = 13
OP_ABS = 14
OP_ATAN = 15

# Per-point evaluation status.
OK = 0
ERR_DIV_ZERO = 1
ERR_LOG_DOMAIN = 2
ERR_SQRT_DOMAIN = 3
ERR_POW_DOMAIN = 4
ERR_OVERFLOW = 5

EXP_MAX = 709.782712893384  # log of the largest finite double
INT_REL_TOL = 2.0 ** -52    # exponents this close to an integer count as one


def is_integer_valued(v: float) -> bool:
    """Whether ``v`` counts as an integer exponent."""
    return abs(v - round(v)) <= INT_REL_TOL * max(1.0, abs(v))


def pow_scalar(a, b):
    """a**b by the power rule, or None where it has no real value."""
    if a > 0.0:
        return a ** b
    if a == 0.0:
        if b > 0.0:
            return 0.0
        if b == 0.0:
            return 1.0
        return None
    if not is_integer_valued(b):
        return None
    r = (-a) ** b
    return -r if round(b) % 2 == 1 else r


def pow_vector(a: np.ndarray, b):
    """Elementwise a**b by the power rule; returns (values, bad), where
    ``bad`` marks the points with no real value (their values are junk)."""
    neg = a < 0.0
    nb = np.rint(b)
    isint = np.abs(b - nb) <= INT_REL_TOL * np.maximum(np.abs(b), 1.0)
    bad = (neg & ~isint) | ((a == 0.0) & (b < 0.0))
    r = np.abs(a) ** b
    odd = np.fmod(np.abs(nb), 2.0) == 1.0
    return np.where(neg & odd, -r, r), bad


def tape_eval(code, cval, need, xs, abs_args=None):
    """Run the compiled tape over ``xs``; returns (values, statuses).

    A list passed as ``abs_args`` receives the argument of each abs, in
    tape order.
    """
    # Status is sticky: once a lane errors, later ops may compute garbage
    # there but never change its status, and the output lane is forced to
    # NaN at the end, as if the lane had stopped at its first error.
    n = xs.shape[0]
    status = np.zeros(n, np.int8)
    stack = np.empty((need, n))
    sp = 0
    with np.errstate(all="ignore"):
        for k in range(code.shape[0]):
            op = int(code[k])
            if op == OP_CONST:
                stack[sp, :] = cval[k]
                sp += 1
                continue
            if op == OP_X:
                stack[sp, :] = xs
                sp += 1
                continue
            if op == OP_NEG:
                np.negative(stack[sp - 1], out=stack[sp - 1])
                continue
            ok = status == OK
            if op <= OP_POW:
                b = stack[sp - 1]
                a = stack[sp - 2]
                sp -= 1
                if op == OP_ADD:
                    r = a + b
                elif op == OP_SUB:
                    r = a - b
                elif op == OP_MUL:
                    r = a * b
                elif op == OP_DIV:
                    status[(b == 0.0) & ok] = ERR_DIV_ZERO
                    r = a / b
                else:
                    r, bad = pow_vector(a, b)
                    status[bad & ok] = ERR_POW_DOMAIN
                stack[sp - 1] = r
            else:
                a = stack[sp - 1]
                if op == OP_SIN:
                    r = np.sin(a)
                elif op == OP_COS:
                    r = np.cos(a)
                elif op == OP_TAN:
                    r = np.tan(a)
                elif op == OP_EXP:
                    r = np.exp(a)
                elif op == OP_LOG:
                    status[(a <= 0.0) & ok] = ERR_LOG_DOMAIN
                    r = np.log(a)
                elif op == OP_SQRT:
                    status[(a < 0.0) & ok] = ERR_SQRT_DOMAIN
                    r = np.sqrt(a)
                elif op == OP_ABS:
                    if abs_args is not None:
                        abs_args.append(a.copy())
                    r = np.abs(a)
                else:
                    r = np.arctan(a)
                stack[sp - 1] = r
            status[~np.isfinite(stack[sp - 1]) & (status == OK)] = ERR_OVERFLOW
    out = stack[0].copy()
    out[status != OK] = np.nan
    return out, status
