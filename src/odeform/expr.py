"""Parsing and evaluation of univariate real expressions.

Accepted language: floating literals, the variable ``x``, the operators
``+ - * / ^``, parentheses, and the functions sin cos tan exp log sqrt abs
atan (``log`` is the natural logarithm). Grammar, highest binding first::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | "x" | NAME "(" expr ")" | "(" expr ")"

``^`` is right-associative and binds tighter than unary minus, so ``-x^2``
is ``-(x^2)`` and ``2^3^2`` is ``2^(3^2)``. There is no unary plus and no
implicit multiplication; ``2x`` and ``2*+x`` are syntax errors.

The text is cut into tokens by one regular expression, one named
alternative per token kind, each match skipping the blanks before its
token (the tokenizer recipe of Python's ``re`` documentation); a character
no token can start with is a syntax error. parse() reads the tokens in one
recursive-descent pass that emits the postfix tape as it goes, each rule
appending its opcode after its operands' code (the one-pass scheme of
Wirth, *Compiler Construction*, 1996); no syntax tree is built. One rule
reads both left-associative levels, ``expr`` and ``term`` of the grammar.
Nesting too deep for that recursion is a syntax error. The result is an
immutable Expression.

Evaluation is reentrant, safe to call from multiple threads, and total:
every point either yields a finite float or raises EvalDomainError /
EvalOverflowError naming the offending x. NaN and infinity never propagate
to callers, except through the opt-in ``eval_many(xs, masked=True)``,
which marks each failing point NaN.

``tape_eval`` interprets the tape over an array of points, applying each
opcode to whole arrays, and gives every point a status; a failed point's
value is NaN. The test suite holds a scalar reference interpreter with the
same semantics and checks the kernel against it.

Powers follow one rule, written once per shape: ``pow_vector`` for arrays
(the kernel, the residual check) and ``pow_scalar`` for single floats
(``signed_power``, the constructors, the oracle). Positive bases behave as
usual, 0**positive is 0 and 0**0 is 1, and a negative base is accepted
only for an exponent within a relative 2^-52 of an integer, with the sign
following that integer's parity.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from .errors import (EvalDomainError, EvalError, EvalOverflowError,
                     ExprSyntaxError)

__all__ = ["Expression", "parse"]

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


def _points(xs) -> np.ndarray:
    """``xs`` as a contiguous float64 array, checked to be 1-D and finite;
    the one guard of every public query taking an array of points."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.ndim != 1:
        raise ValueError("expected a 1-D array of points")
    if not np.isfinite(xs).all():
        raise ValueError("points must be finite")
    return xs


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


_FUNCTIONS = {
    "sin": OP_SIN,
    "cos": OP_COS,
    "tan": OP_TAN,
    "exp": OP_EXP,
    "log": OP_LOG,
    "sqrt": OP_SQRT,
    "abs": OP_ABS,
    "atan": OP_ATAN,
}

_STATUS_MESSAGES = {
    ERR_DIV_ZERO: "division by zero",
    ERR_LOG_DOMAIN: "log of a non-positive argument",
    ERR_SQRT_DOMAIN: "square root of a negative argument",
    ERR_POW_DOMAIN: ("power has no real value (negative base with "
                     "non-integer exponent, or zero base with negative "
                     "exponent)"),
    ERR_OVERFLOW: "overflow",
}

# One alternative per token kind, after any blanks; ``bad`` takes the one
# character no other alternative can start with.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^])"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<end>\Z)|(?P<bad>.))", re.S)

# The operators of the two left-associative levels, loosest first.
_BINARY = ({"+": OP_ADD, "-": OP_SUB}, {"*": OP_MUL, "/": OP_DIV})


class _Token(NamedTuple):
    kind: str   # a group name of _TOKEN_RE other than "bad"
    text: str
    pos: int    # character position; converted to bytes when reporting


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _syntax_error(text: str, pos: int, message: str):
    raise ExprSyntaxError(message, _byte_offset(text, pos))


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        tok = _Token(kind, m.group(kind), m.start(kind))
        if kind == "bad":
            ch = tok.text
            _syntax_error(text, tok.pos,
                          f"malformed number starting at {ch!r}"
                          if ch.isdigit() or ch == "." else
                          f"unexpected character {ch!r}")
        tokens.append(tok)
        if kind == "end":
            return tokens
        pos = m.end()


class _Parser:
    """One-pass recursive descent from text to tape (see the module
    docstring)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.code: list[int] = []
        self.cval: list[float] = []

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, tok: _Token, message: str):
        _syntax_error(self.text, tok.pos, message)

    def close(self):
        tok = self.advance()
        if tok.kind != "rparen":
            self.fail(tok, "expected ')'")

    def emit(self, op: int, value: float = 0.0):
        self.code.append(op)
        self.cval.append(value)

    def parse(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(code, cval, need): the tape and the stack depth it needs."""
        try:
            self.expr()
        except RecursionError:
            self.fail(self.peek(), "expression nests too deeply")
        tok = self.peek()
        if tok.kind != "end":
            self.fail(tok, f"unexpected {tok.text!r}")
        depth = 0
        need = 0
        for op in self.code:
            if op in (OP_CONST, OP_X):
                depth += 1
                need = max(need, depth)
            elif OP_ADD <= op <= OP_POW:
                depth -= 1
        return (np.asarray(self.code, dtype=np.int64),
                np.asarray(self.cval, dtype=np.float64),
                need)

    def expr(self, level: int = 0):
        """A left-associative chain joined by the operators of
        ``_BINARY[level]``; its operands are level-1 chains at level 0 and
        factors at level 1."""
        op = None
        while True:
            if level:
                self.factor()
            else:
                self.expr(1)
            if op is not None:
                self.emit(op)
            op = _BINARY[level].get(self.peek().text)
            if op is None:
                return
            self.advance()

    def factor(self):
        if self.peek().text == "-":
            self.advance()
            self.factor()
            self.emit(OP_NEG)
        else:
            self.power()

    def power(self):
        self.atom()
        if self.peek().text == "^":
            self.advance()
            # right-associative; the exponent may carry a unary minus
            self.factor()
            self.emit(OP_POW)

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if not np.isfinite(value):
                self.fail(tok, f"number constant {tok.text!r} overflows")
            self.emit(OP_CONST, value)
            return
        if tok.kind == "name":
            if tok.text == "x":
                self.emit(OP_X)
                return
            if tok.text in _FUNCTIONS:
                opening = self.peek()
                if opening.kind != "lparen":
                    self.fail(opening,
                              f"expected '(' after function {tok.text!r}")
                self.advance()
                self.expr()
                self.close()
                self.emit(_FUNCTIONS[tok.text])
                return
            self.fail(tok, f"unknown identifier {tok.text!r}")
        if tok.kind == "lparen":
            self.expr()
            self.close()
            return
        if tok.kind == "end":
            self.fail(tok, "unexpected end of input")
        self.fail(tok, f"unexpected {tok.text!r}")


class Expression:
    """A parsed coefficient function, evaluable at scalars or 1-D arrays."""

    __slots__ = ("text", "_code", "_cval", "_need")

    def __init__(self, text: str, code: np.ndarray, cval: np.ndarray,
                 need: int):
        self.text = text
        self._code = code
        self._cval = cval
        self._need = need

    def eval_many(self, xs, *, masked: bool = False) -> np.ndarray:
        """Evaluate at a 1-D array of finite points.

        Raises EvalDomainError / EvalOverflowError at the first failing
        point; on success every returned value is finite. With ``masked``
        nothing is raised and failing points read NaN instead.
        """
        xs = _points(xs)
        out, status = tape_eval(self._code, self._cval, self._need, xs)
        if masked or not status.any():
            return out
        i = int(np.argmax(status > 0))
        raise self._error(int(status[i]), float(xs[i]))

    def eval(self, x: float) -> float:
        return float(self.eval_many(np.array([x], dtype=np.float64))[0])

    def __call__(self, x):
        if np.ndim(x) == 0:
            return self.eval(float(x))
        return self.eval_many(x)

    def _error(self, status: int, x: float) -> EvalError:
        message = f"{_STATUS_MESSAGES[status]} in {self.text!r}"
        if status == ERR_OVERFLOW:
            return EvalOverflowError(message, x)
        return EvalDomainError(message, x)

    def _error_at(self, x: float) -> EvalError | None:
        """The typed error of evaluating at x, or None where x is fine."""
        _, status = tape_eval(self._code, self._cval, self._need,
                              np.array([x], dtype=np.float64))
        return self._error(int(status[0]), x) if status[0] else None

    def abs_arguments(self, xs) -> list[np.ndarray]:
        """The argument of each abs at the points xs, in tape order: where
        one changes sign, the expression has a kink."""
        if OP_ABS not in self._code:
            return []
        args = []
        tape_eval(self._code, self._cval, self._need,
                  np.ascontiguousarray(xs, dtype=np.float64), args)
        return args

    def __repr__(self):
        return f"Expression({self.text!r})"


def parse(text: str) -> Expression:
    """Parse expression text into an evaluable Expression."""
    if not isinstance(text, str):
        raise TypeError("expression must be a string")
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return Expression(text, *_Parser(text).parse())
