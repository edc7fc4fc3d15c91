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

parse() builds an immutable Expression. Evaluation is reentrant, safe to
call from multiple threads, and total: every point either yields a finite
float or raises EvalDomainError / EvalOverflowError naming the offending x.
NaN and infinity never propagate to callers, except through the opt-in
``eval_many(xs, masked=True)``, which marks each failing point NaN. Powers
with a negative base are real only for integer exponents; exponents within
a relative 2^-52 of an integer are accepted as integers.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from ._backend import (ERR_DIV_ZERO, ERR_LOG_DOMAIN, ERR_OVERFLOW,
                       ERR_POW_DOMAIN, ERR_SQRT_DOMAIN, OP_ABS, OP_ADD,
                       OP_ATAN, OP_CONST, OP_COS, OP_DIV, OP_EXP, OP_LOG,
                       OP_MUL, OP_NEG, OP_POW, OP_SIN, OP_SQRT, OP_SUB,
                       OP_TAN, OP_X, tape_eval)
from .errors import (EvalDomainError, EvalError, EvalOverflowError,
                     ExprSyntaxError)

__all__ = ["Expression", "parse"]

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

_NUMBER_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Token(NamedTuple):
    kind: str   # "num", "name", "op", "lparen", "rparen", "end"
    text: str
    pos: int    # character position; converted to bytes when reporting


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _syntax_error(text: str, pos: int, message: str):
    raise ExprSyntaxError(message, _byte_offset(text, pos))


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(text, i)
            if not m:
                _syntax_error(text, i, f"malformed number starting at {ch!r}")
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _NAME_RE.match(text, i)
            if not m:  # alphabetic but outside ASCII, e.g. a Greek letter
                _syntax_error(text, i, f"unexpected character {ch!r}")
            tokens.append(_Token("name", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
            continue
        _syntax_error(text, i, f"unexpected character {ch!r}")
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    # AST nodes are tuples:
    #   ("const", value) | ("x",) | ("neg", a) | ("bin", op, a, b)
    #   | ("fn", op, a)

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, tok: _Token, message: str):
        _syntax_error(self.text, tok.pos, message)

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(tok, f"unexpected {tok.text!r}")
        return node

    def expr(self):
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                node = ("bin", OP_ADD if tok.text == "+" else OP_SUB, node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.factor()
                node = ("bin", OP_MUL if tok.text == "*" else OP_DIV, node, rhs)
            else:
                return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # right-associative; the exponent may carry a unary minus
            return ("bin", OP_POW, node, self.factor())
        return node

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if not np.isfinite(value):
                self.fail(tok, f"number constant {tok.text!r} overflows")
            return ("const", value)
        if tok.kind == "name":
            if tok.text == "x":
                return ("x",)
            if tok.text in _FUNCTIONS:
                opening = self.peek()
                if opening.kind != "lparen":
                    self.fail(opening,
                              f"expected '(' after function {tok.text!r}")
                self.advance()
                arg = self.expr()
                closing = self.peek()
                if closing.kind != "rparen":
                    self.fail(closing, "expected ')'")
                self.advance()
                return ("fn", _FUNCTIONS[tok.text], arg)
            self.fail(tok, f"unknown identifier {tok.text!r}")
        if tok.kind == "lparen":
            node = self.expr()
            closing = self.peek()
            if closing.kind != "rparen":
                self.fail(closing, "expected ')'")
            self.advance()
            return node
        if tok.kind == "end":
            self.fail(tok, "unexpected end of input")
        self.fail(tok, f"unexpected {tok.text!r}")


def _compile(node) -> tuple[np.ndarray, np.ndarray, int]:
    code: list[int] = []
    cval: list[float] = []

    def emit(n):
        kind = n[0]
        if kind == "const":
            code.append(OP_CONST)
            cval.append(n[1])
        elif kind == "x":
            code.append(OP_X)
            cval.append(0.0)
        elif kind == "neg":
            emit(n[1])
            code.append(OP_NEG)
            cval.append(0.0)
        elif kind == "fn":
            emit(n[2])
            code.append(n[1])
            cval.append(0.0)
        else:
            emit(n[2])
            emit(n[3])
            code.append(n[1])
            cval.append(0.0)

    emit(node)
    depth = 0
    need = 0
    for op in code:
        if op in (OP_CONST, OP_X):
            depth += 1
            need = max(need, depth)
        elif OP_ADD <= op <= OP_POW:
            depth -= 1
    return (np.asarray(code, dtype=np.int64),
            np.asarray(cval, dtype=np.float64),
            need)


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
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        if xs.ndim != 1:
            raise ValueError("expected a 1-D array of points")
        if xs.size and not np.all(np.isfinite(xs)):
            raise ValueError("evaluation points must be finite")
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

    def __repr__(self):
        return f"Expression({self.text!r})"


def parse(text: str) -> Expression:
    """Parse expression text into an evaluable Expression."""
    if not isinstance(text, str):
        raise TypeError("expression must be a string")
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    node = _Parser(text).parse()
    code, cval, need = _compile(node)
    return Expression(text, code, cval, need)
