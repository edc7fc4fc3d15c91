"""Closed-form solution constructors for four equation classes.

Supported forms (y is the unknown, f and g arbitrary evaluable coefficient
functions, anchored antiderivatives realized by the quad module):

* linear first order   y' + f(x) y = g(x)
* bernoulli            y' + f(x) y = g(x) y^alpha,  alpha not in {0, 1}
* exponential class    y' + f(x) e^(beta y) = g(x),  beta != 0
* constant-coefficient second order   y'' + b y' + c y = 0

The three first-order classes are one linear equation in disguise: u = y
for the linear class, u = y^(1-alpha) for bernoulli and u = e^(-beta y)
for the exponential class solve u' + s r u = s w, with (s, r, w) = (1, f,
g), (1 - alpha, f, g) and (beta, g, f). One builder, _scaled_form, makes
its integrating-factor solution u = P, and one map per class turns P
into y: y = P, y = sign(y0) |P|^(1/(1-alpha)) and y = -log(P)/beta. P is
carried as a scale and a factor in double range (quad._Scaled), so that
validity ends where y does, not where P or the weighted antiderivative
inside it leaves double range. Antiderivatives are anchored at the
initial point, so the free constant of each family maps directly onto
the initial value: C = y0 for the linear class, C = y0^(1-alpha) for
bernoulli, C = e^(-beta y0) for the exponential class. The second-order
solution is one formula in t = x - x0 anchored the same way, so its
constants are C1 = y0 and C2 = y'(x0).

A ClosedFormSolution evaluates lazily and tracks the maximal interval
around x0 on which its formula stays defined (power bases positive, log
arguments positive, exponentials within double range, antiderivatives
defined). Each formula evaluates a whole array at once and reports which
points failed, with the cause of the first. Probing happens on demand:
querying or sampling a window evaluates a grid of 257 probes in one call,
and the bracket around the first failing probe is cut into 32 sections
per round, again in one call, until it is narrower than 1e-10.
Constructors perform no integration themselves and are cheap.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
import threading

import numpy as np

from .errors import (EvalDomainError, EvalOverflowError, NoOverlapError,
                     OutsideValidityError, ParameterError)
from .expr import EXP_MAX, _points, is_integer_valued, pow_scalar
from .quad import QuadratureConfig, _Scaled, as_array_fn

__all__ = [
    "EquationClass",
    "EquationSpec",
    "InitialCondition",
    "Interval",
    "ClosedFormSolution",
    "signed_power",
    "construct",
    "solve_linear_ivp",
    "solve_linear_general",
    "solve_bernoulli",
    "solve_bernoulli_via_linear",
    "solve_exp",
    "solve_second_order_ivp",
]

_BOUNDARY_WIDTH = 1e-10   # sectioning stops once the bracket is this narrow
_PROBES = 257             # validity probe points per freshly explored window
_SECTIONS = 32            # sections per round of the boundary search


class EquationClass(str, Enum):
    LINEAR = "linear"
    BERNOULLI = "bernoulli"
    EXP = "exp"
    SECOND_ORDER = "second-order"


@dataclass(frozen=True)
class InitialCondition:
    """Initial data (x0, y0) and, for second-order equations, y'(x0)."""

    x0: float
    y0: float
    yp0: float | None = None

    def __post_init__(self):
        for name in ("x0", "y0"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ParameterError(f"{name} must be a finite number")
        if self.yp0 is not None and not math.isfinite(self.yp0):
            raise ParameterError("yp0 must be finite when given")


@dataclass(frozen=True)
class EquationSpec:
    """One equation instance: class tag plus its coefficients."""

    kind: EquationClass
    f: object | None = None
    g: object | None = None
    alpha: float | None = None
    beta: float | None = None
    b: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind in (EquationClass.LINEAR, EquationClass.BERNOULLI,
                         EquationClass.EXP):
            if self.f is None or self.g is None:
                raise ParameterError(f"{self.kind.value} needs f and g")
        if self.kind == EquationClass.BERNOULLI:
            _check_alpha(self.alpha)
        if self.kind == EquationClass.EXP:
            _check_beta(self.beta)
        if self.kind == EquationClass.SECOND_ORDER:
            for name in ("b", "c"):
                v = getattr(self, name)
                if v is None or not math.isfinite(v):
                    raise ParameterError(
                        f"second-order needs finite coefficient {name}")

    @staticmethod
    def linear(f, g) -> "EquationSpec":
        return EquationSpec(EquationClass.LINEAR, f=f, g=g)

    @staticmethod
    def bernoulli(f, g, alpha: float) -> "EquationSpec":
        return EquationSpec(EquationClass.BERNOULLI, f=f, g=g, alpha=alpha)

    @staticmethod
    def exp_class(f, g, beta: float) -> "EquationSpec":
        return EquationSpec(EquationClass.EXP, f=f, g=g, beta=beta)

    @staticmethod
    def second_order(b: float, c: float) -> "EquationSpec":
        return EquationSpec(EquationClass.SECOND_ORDER, b=b, c=c)


def _check_alpha(alpha):
    if alpha is None or not math.isfinite(alpha):
        raise ParameterError("alpha must be a finite number")
    if alpha == 0.0 or alpha == 1.0:
        raise ParameterError(
            "alpha 0 and 1 are linear equations, not bernoulli ones")


def _check_beta(beta):
    if beta is None or not math.isfinite(beta) or beta == 0.0:
        raise ParameterError("beta must be finite and nonzero")


def signed_power(base: float, expo: float, x: float = math.nan) -> float:
    """Real-valued base**expo with the package-wide power semantics.

    Positive bases behave as usual, 0**positive is 0, and negative bases
    are only accepted for (numerically) integer exponents, with the sign
    following the exponent's parity. A power with no real value raises
    EvalDomainError, and one outside double range EvalOverflowError; both
    name ``x``, the point the power is taken for.
    """
    try:
        r = pow_scalar(base, expo)
    except OverflowError:
        r = math.inf
    if r is None:
        raise EvalDomainError(
            "zero base with a negative exponent" if base == 0.0 else
            "negative base with a non-integer exponent", x)
    if not math.isfinite(r):
        raise EvalOverflowError("power outside double range", x)
    return r


def _point_count(n) -> int:
    """A count of sample or grid points as an int: an integer, numpy's
    included, of at least 2."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ParameterError(
            f"the point count must be an integer, got {n!r}") from None
    if n < 2:
        raise ParameterError(f"need at least 2 points, got {n}")
    return n


def _overflow(message: str):
    return lambda x: EvalOverflowError(message, x)


def _domain(message: str):
    return lambda x: EvalDomainError(message, x)


_EXP_OVERFLOW = _overflow("exponential overflow in the closed form")
_BASE_ZERO = _domain("power base reached zero")
_LOG_ZERO = _domain("log argument reached zero")


def _outcome(xs: np.ndarray, vals: np.ndarray, checks):
    """A closed form's (values, bad, cause) at ``xs``.

    ``checks`` are (mask, error) pairs in priority order, error(x) building
    the typed error for a point of its mask. A point is bad where a mask
    holds or its value is not finite. cause() builds the error of the first
    bad point, the first check that holds there naming it; it is None when
    no point is bad.
    """
    bad = ~np.isfinite(vals)
    for mask, _ in checks:
        bad |= mask
    if not bad.any():
        return vals, bad, None
    i = int(np.argmax(bad))
    x = float(xs[i])

    def cause():
        for mask, error in checks:
            if mask[i]:
                return error(x)
        return EvalOverflowError("closed form overflowed double range", x)

    return vals, bad, cause


@dataclass
class Interval:
    lo: float
    hi: float


class ClosedFormSolution:
    """An evaluable closed-form solution with a lazily refined validity
    interval around its anchor x0.

    ``evaluate(xs)`` returns (values, bad, cause): the formula at every
    point of the array, a mask of the points where it failed, and a
    function building the typed error of the first failed point (None when
    none failed). It never raises for a point. An ``evaluate`` that returns
    only the values marks its failed points with non-finite values.

    ``constants`` holds the free constants of the family as named floats.
    ``provenance`` is a one-line description of the instantiated formula.
    ``non_unique`` marks solutions known to share initial data with others
    (the zero bernoulli solution for alpha in (0, 1)). ``case`` names the
    second-order rates by the sign of the discriminant b^2 - 4c ("real",
    "complex", or "repeated" where it is exactly 0), else None.
    """

    def __init__(self, kind: EquationClass, evaluate, x0: float,
                 constants: dict[str, float], provenance: str,
                 non_unique: bool = False, case: str | None = None):
        self.kind = kind
        self._evaluate = evaluate
        self.x0 = float(x0)
        self.constants = dict(constants)
        self.provenance = provenance
        self.non_unique = non_unique
        self.case = case
        self._lo = -math.inf
        self._hi = math.inf
        self._probed_lo = self.x0
        self._probed_hi = self.x0
        self._limit_note: str | None = None
        self._lock = threading.RLock()

    def _masked(self, xs: np.ndarray):
        """(values, bad, cause) of the formula at ``xs``."""
        out = self._evaluate(xs)
        if isinstance(out, tuple):
            return out
        return _outcome(xs, np.asarray(out, dtype=np.float64), ())

    @property
    def validity(self) -> Interval:
        return Interval(self._lo, self._hi)

    @property
    def limit_note(self) -> str | None:
        """What stopped the formula at the nearest located boundary."""
        return self._limit_note

    def _explore(self, target: float):
        """Probe from the probed end on target's side of x0 out to target.

        The probed end is known good. The first failing probe and the one
        before it bracket the boundary; each round evaluates the bracket's
        interior section points in one call and keeps the section around
        its first failure. The failures of a batch are those of its points
        alone, so no point needs a second look.
        """
        up = target > self.x0
        pts = np.linspace(self._probed_hi if up else self._probed_lo,
                          target, _PROBES)
        end = target
        _, bad, cause = self._masked(pts)
        if bad.any():
            i = int(np.argmax(bad))
            good, fail = float(pts[max(i - 1, 0)]), float(pts[i])
            while abs(fail - good) > _BOUNDARY_WIDTH:
                sec = np.linspace(good, fail, _SECTIONS + 1)[1:-1]
                _, bad, c = self._masked(sec)
                i = int(np.argmax(bad)) if bad.any() else sec.size
                was = (good, fail)
                if i > 0:
                    good = float(sec[i - 1])
                if i < sec.size:
                    fail, cause = float(sec[i]), c
                if (good, fail) == was:
                    break  # the bracket is down to adjacent doubles
            end = 0.5 * (good + fail)
            self._limit_note = str(cause())
            if up:
                self._hi = end
            else:
                self._lo = end
        if up:
            self._probed_hi = end
        else:
            self._probed_lo = end

    def ensure_validity(self, lo: float, hi: float):
        """Probe the window [lo, hi] and refine the validity interval.

        One call evaluates 257 probes on each side of x0 the window reaches
        beyond the part probed before. Failures between probe points
        narrower than the probe spacing can go unnoticed; a boundary that
        is found is located to 1e-10 by 32-way sectioning, and the cause
        at it becomes ``limit_note``.
        """
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ParameterError("validity window must be finite")
        with self._lock:
            up = min(max(hi, self.x0), self._hi)
            if up > self._probed_hi:
                self._explore(up)
            down = max(min(lo, self.x0), self._lo)
            if down < self._probed_lo:
                self._explore(down)

    def values(self, xs) -> np.ndarray:
        """Evaluate at a 1-D array of points inside the validity interval."""
        xs = _points(xs)
        if xs.size == 0:
            return np.empty(0)
        self.ensure_validity(float(xs.min()), float(xs.max()))
        outside = (xs < self._lo) | (xs > self._hi)
        if outside.any():
            raise OutsideValidityError(
                float(xs[int(np.argmax(outside))]), (self._lo, self._hi))
        vals, bad, cause = self._masked(xs)
        if bad.any():
            raise cause()
        return vals

    def value(self, x: float) -> float:
        return float(self.values(np.array([x], dtype=np.float64))[0])

    def __call__(self, x):
        if np.ndim(x) == 0:
            return self.value(float(x))
        return self.values(x)

    def sample(self, lo: float, hi: float,
               n: int) -> tuple[np.ndarray, np.ndarray]:
        """Uniform samples over [lo, hi] clipped to the validity interval."""
        n = _point_count(n)
        if not (lo < hi):
            raise ParameterError("need lo < hi")
        self.ensure_validity(lo, hi)
        clo, chi = lo, hi
        if self._lo > lo:
            clo = self._lo + max(1e-9, 1e-9 * abs(self._lo))
        if self._hi < hi:
            chi = self._hi - max(1e-9, 1e-9 * abs(self._hi))
        if not (clo < chi):
            raise NoOverlapError(
                f"range [{lo!r}, {hi!r}] does not overlap the validity "
                f"interval ({self._lo!r}, {self._hi!r})")
        xs = np.linspace(clo, chi, n)
        return xs, self.values(xs)

    def perturbed(self, eps: float) -> "ClosedFormSolution":
        """Copy whose values are offset by eps.

        A deliberately wrong solution, used to demonstrate that the
        verification checks catch defects.
        """
        inner = self._masked

        def evaluate(xs):
            vals, bad, cause = inner(xs)
            return vals + eps, bad, cause

        twin = ClosedFormSolution(
            self.kind, evaluate, self.x0,
            self.constants, self.provenance + f" (offset by {eps!r})",
            self.non_unique, self.case)
        twin._lo, twin._hi = self._lo, self._hi
        twin._probed_lo, twin._probed_hi = self._probed_lo, self._probed_hi
        return twin

    def __repr__(self):
        return (f"ClosedFormSolution(kind={self.kind.value!r}, "
                f"x0={self.x0!r}, constants={self.constants!r})")


def _scaled_form(kind, rate, weight, s, C, x0, cfg, finish, provenance):
    """A first-order closed form y = finish(q, shift) of P = q exp(shift),
    the solution of the linear equation u' + s rate u = s weight with
    u(x0) = C that each class reduces to.

    quad._Scaled reads, at once, z = s F for F the antiderivative of
    ``rate`` anchored at x0, lam = max(z, 0) and the scaled antiderivative
    V = exp(-lam) W of W = integral of weight * exp(z) from x0. The
    integrating-factor form P = exp(-z) (s W + C) is exp(lam - z) q with
    q = s V + C exp(-lam), which stays in double range where P need not;
    where s V is 0, q = C and shift = -z instead, as exp(-lam) can
    underflow there. ``finish`` returns the values and the (mask, error)
    checks of the class's own failures.
    """
    V = _Scaled(rate, weight, s, x0, cfg)

    def evaluate(xs):
        z, lam, Vv = V.read(xs)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            a = s * Vv
            zero = a == 0.0
            vals, checks = finish(np.where(zero, C, a + C * np.exp(-lam)),
                                  np.where(zero, -z, lam - z))
        return _outcome(xs, vals, ((~np.isfinite(Vv), V.error_at), *checks))

    return ClosedFormSolution(kind, evaluate, x0, {"C": C}, provenance)


def solve_linear_ivp(f, g, ic: InitialCondition,
                     cfg: QuadratureConfig | None = None) -> ClosedFormSolution:
    """Solve y' + f y = g with y(x0) = y0.

    The solution is P = exp(-F) (W + y0) of _scaled_form, with F the
    antiderivative of f and W that of g exp(F), both anchored at x0;
    anchoring makes the free constant equal to y0 and the initial value
    exact.
    """
    return _scaled_form(
        EquationClass.LINEAR, f, g, 1.0, float(ic.y0), ic.x0, cfg,
        lambda q, shift: (np.exp(shift) * q, ()),
        "y = exp(-F)*(W + C), W = integral of g*exp(F), F and W anchored "
        "at x0, carried as V = exp(-max(F, 0))*W")


def solve_linear_general(f, g, C: float, x0: float,
                         cfg: QuadratureConfig | None = None
                         ) -> ClosedFormSolution:
    """General solution of y' + f y = g with an explicit free constant."""
    if not math.isfinite(C):
        raise ParameterError("C must be finite")
    return solve_linear_ivp(f, g, InitialCondition(x0, C), cfg)


def _bernoulli_branch(alpha: float, ic: InitialCondition):
    """(1 - alpha, C = y0^(1-alpha), finish): the real branch through
    y0 != 0 that both bernoulli routes follow, and the _scaled_form map of
    P = y^(1-alpha) to y = sign(y0) |P|^(1/(1-alpha)) on it, which ends
    where P reaches zero."""
    om = 1.0 - alpha
    if ic.y0 < 0.0 and not is_integer_valued(om):
        raise ParameterError(
            "negative y0 needs an integer 1-alpha; no real branch otherwise")
    C = signed_power(ic.y0, om, ic.x0)
    s_y, pos = math.copysign(1.0, ic.y0), C > 0.0

    def finish(q, shift):
        return (s_y * np.exp((shift + np.log(np.abs(q))) / om),
                (((q > 0.0) != pos, _BASE_ZERO),))

    return om, C, finish


def solve_bernoulli(f, g, alpha: float, ic: InitialCondition,
                    cfg: QuadratureConfig | None = None) -> ClosedFormSolution:
    """Solve y' + f y = g y^alpha with y(x0) = y0, alpha not in {0, 1}.

    For y0 = 0 and alpha > 0 the zero function solves the equation; it is
    returned for any such alpha and flagged non-unique for alpha in (0, 1),
    where other solutions share the same initial data. For y0 != 0 the
    solution is sign(y0) * |P|^(1/(1-alpha)) with P = exp(-(1-alpha) F) *
    ((1-alpha) W + C) of _scaled_form, C = y0^(1-alpha) and W the
    antiderivative of g exp((1-alpha) F), taken through log|P|; validity
    ends where P reaches zero. Negative y0 requires an integer 1-alpha,
    otherwise no real branch exists.
    """
    _check_alpha(alpha)
    if ic.y0 == 0.0:
        if alpha <= 0.0:
            raise ParameterError(
                "y0 = 0 requires alpha > 0 (g*y^alpha must vanish at 0)")
        return ClosedFormSolution(
            EquationClass.BERNOULLI,
            lambda xs: np.zeros(xs.shape), ic.x0, {"C": 0.0},
            "zero particular solution of the bernoulli equation",
            non_unique=(0.0 < alpha < 1.0))
    om, C, finish = _bernoulli_branch(alpha, ic)
    return _scaled_form(
        EquationClass.BERNOULLI, f, g, om, C, ic.x0, cfg, finish,
        "y = sign(y0)*|exp(-(1-alpha)*F)*((1-alpha)*W + C)|^(1/(1-alpha)), "
        "W = integral of g*exp((1-alpha)*F), F and W anchored at x0, taken "
        "through logs")


def solve_bernoulli_via_linear(f, g, alpha: float, ic: InitialCondition,
                               cfg: QuadratureConfig | None = None
                               ) -> ClosedFormSolution:
    """Solve the bernoulli equation through its linear substitute.

    u = y^(1-alpha) satisfies u' + (1-alpha) f u = (1-alpha) g; this
    builds that linear solution's scaled form on antiderivatives of its
    own coefficients and maps it back with y = sign(y0) *
    |u|^(1/(1-alpha)). Requires y0 != 0. Serves as the second route for
    the equivalence check in verification.
    """
    _check_alpha(alpha)
    if ic.y0 == 0.0:
        raise ParameterError("the linear substitution needs y0 != 0")
    om, u0, finish = _bernoulli_branch(alpha, ic)
    ffn = as_array_fn(f, masked=True)
    gfn = as_array_fn(g, masked=True)
    return _scaled_form(
        EquationClass.BERNOULLI, lambda t: om * ffn(t), lambda t: om * gfn(t),
        1.0, u0, ic.x0, cfg, finish,
        "bernoulli solved through the linear substitution u = y^(1-alpha)")


def solve_exp(f, g, beta: float, ic: InitialCondition,
              cfg: QuadratureConfig | None = None) -> ClosedFormSolution:
    """Solve y' + f e^(beta y) = g with y(x0) = y0, beta != 0.

    The solution is -log(P) / beta with P = exp(-beta G) (beta W + C) of
    _scaled_form, G the antiderivative of g and W that of f exp(beta G),
    both anchored at x0, and C = exp(-beta y0), taken through log P.
    Validity ends where P reaches zero.
    """
    _check_beta(beta)
    z0 = -beta * ic.y0
    if z0 > EXP_MAX:
        raise ParameterError(
            "exp(-beta*y0) overflows; the initial condition is out of range")
    C = math.exp(z0)

    def finish(q, shift):
        return -(shift + np.log(q)) / beta, ((~(q > 0.0), _LOG_ZERO),)

    return _scaled_form(
        EquationClass.EXP, g, f, beta, C, ic.x0, cfg, finish,
        "y = G - log(beta*W + C)/beta, W = integral of f*exp(beta*G), G "
        "and W anchored at x0, taken through logs")


def _classify_roots(b: float, c: float):
    """(case, r, q) of y'' + b y' + c y = 0, the case the sign of the
    discriminant b^2 - 4c: for real rates r is the one of smaller
    magnitude and q the other, for a repeated rate both are -b/2, and for
    complex rates r +- i q."""
    # b and c scaled by 2^-e and 2^-2e keep b^2 in range; powers of two
    # scale exactly, so the sign is the unscaled one wherever that fits.
    e = max(0, math.frexp(max(abs(b), math.sqrt(abs(c))))[1])
    bs, cs = math.ldexp(b, -e), math.ldexp(c, -2 * e)
    disc = bs * bs - 4.0 * cs
    r = -0.5 * b + 0.0  # normalize -0.0
    if disc == 0.0:
        return "repeated", r, r
    s = math.ldexp(0.5 * math.sqrt(abs(disc)), e)
    if disc < 0.0:
        return "complex", r, s
    # The rate of larger magnitude adds two terms of one sign; the other is
    # c divided by it (Vieta), not a difference that cancels.
    big = r - math.copysign(s, b)
    return "real", c / big + 0.0, big


def solve_second_order_ivp(b: float, c: float,
                           ic: InitialCondition) -> ClosedFormSolution:
    """Solve y'' + b y' + c y = 0 with y(x0) = y0 and y'(x0) = yp0.

    One formula in t = x - x0, anchored at the initial data, so the
    constants are C1 = y0 and C2 = yp0 and none divides by a difference of
    rates. With d = yp0 - r y0:

    * real rates r and q, r the one of smaller magnitude, g = q - r:
      y = e^(r t) (y0 + d expm1(g t)/g);
    * a repeated rate r: y = e^(r t) (y0 + d t);
    * complex rates r +- i w: y = e^(r t) (y0 cos(w t) + (d/w) sin(w t)).

    The case is the sign of the discriminant b^2 - 4c, formed from b and c
    scaled by 2^-e and 2^-2e, e the binary exponent of max(|b|, sqrt|c|)
    where that is positive, so b^2 cannot overflow; the rate is repeated
    only where it is exactly 0, as both forms are accurate on either side.
    The real rate of larger magnitude is -b/2 - sign(b) sqrt(disc)/2 and
    the other c divided by it, so neither is a cancelling difference.
    Where g t > 0 the real bracket is carried scaled by e^(-g t), with g t
    added to the exponent, so that no factor overflows before y does.
    A d (or d/w) outside double range raises ParameterError.
    """
    for name, v in (("b", b), ("c", c)):
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise ParameterError(f"{name} must be a finite number")
    if ic.yp0 is None:
        raise ParameterError("second-order initial data needs yp0")
    case, r, q = _classify_roots(b, c)
    x0, y0 = ic.x0, ic.y0
    d = ic.yp0 - r * y0
    if case == "complex":
        d /= q
    if not math.isfinite(d):
        raise ParameterError(
            "the second-order basis constants overflow for this initial data")
    g = q - r

    def evaluate(xs: np.ndarray):
        ts = xs - x0
        with np.errstate(over="ignore", invalid="ignore"):
            if case == "complex":
                z = r * ts
                vals = np.exp(z) * (y0 * np.cos(q * ts) + d * np.sin(q * ts))
            else:
                gt = g * ts
                # A pure slow mode (d = 0) is y0 e^(r t) exactly, even where
                # e^(q t) overflows.
                u = np.maximum(gt, 0.0) if d else np.zeros(ts.shape)
                k = ts if g == 0.0 else np.where(
                    gt > 0.0, -np.expm1(-gt), np.expm1(gt)) / g
                z = r * ts + u
                vals = np.exp(z) * (y0 * np.exp(-u) + d * k)
        return _outcome(xs, vals, ((z > EXP_MAX, _EXP_OVERFLOW),))

    form = {
        "real": "(y0 + (yp0 - r*y0)*expm1(g*t)/g), real rates "
                f"r = {r!r} and r + g = {q!r}",
        "repeated": f"(y0 + (yp0 - r*y0)*t), repeated real rate r = {r!r}",
        "complex": "(y0*cos(w*t) + (yp0 - r*y0)*sin(w*t)/w), rate "
                   f"r = {r!r}, angular frequency w = {q!r}",
    }[case]
    return ClosedFormSolution(
        EquationClass.SECOND_ORDER, evaluate, x0,
        {"C1": float(y0), "C2": float(ic.yp0)},
        f"anchored second order, t = x - x0: y = exp(r*t)*{form}", case=case)


def construct(spec: EquationSpec, ic: InitialCondition,
              cfg: QuadratureConfig | None = None) -> ClosedFormSolution:
    """Closed-form solution of the initial-value problem ``spec``, ``ic``."""
    if spec.kind == EquationClass.LINEAR:
        return solve_linear_ivp(spec.f, spec.g, ic, cfg)
    if spec.kind == EquationClass.BERNOULLI:
        return solve_bernoulli(spec.f, spec.g, float(spec.alpha), ic, cfg)
    if spec.kind == EquationClass.EXP:
        return solve_exp(spec.f, spec.g, float(spec.beta), ic, cfg)
    return solve_second_order_ivp(float(spec.b), float(spec.c), ic)
