"""Independent numerical verification of closed-form solutions.

Four checks, all deterministic:

* rk_reference / compare -- integrate the same initial-value problem with
  an embedded Dormand-Prince 5(4) pair and compare pointwise with relative
  normalization |sol - oracle| / (1 + |oracle|). The steps follow the
  tolerance alone; values at the requested grid come from the pair's
  continuous extension (Shampine 1986), so the step count does not depend
  on the grid.
* residual_check -- differentiate the closed form with centered finite
  differences (h = 1e-5 first order; 3-point second difference with
  h = 1e-4 for second order) and push it through the equation. The
  reported deviation is max |residual| / (1 + scale) where scale is the
  largest magnitude any single equation term reaches on the grid.
* riccati_check -- second order only: z = (log|y|)' must satisfy
  z' + z^2 + b z + c = 0. Points where |y| <= 1e-3 max|y| are excluded,
  and so are points where the numerical |z| is large enough that the
  finite-difference error budget alone exceeds the tolerance (near zeros
  of y, z grows like 1/distance and no double-precision stencil can meet
  the tolerance there).
* route equivalence -- bernoulli only: the direct power-transform solution
  and the solution through the linear substitution must agree.

full_verify runs every check that applies and aggregates a report whose
overall flag is the conjunction of the individual ones.
"""

from __future__ import annotations

import bisect
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .errors import (EvalDomainError, InconclusiveError, NoOverlapError,
                     OdeformError, ParameterError, StageError)
from .expr import EXP_MAX, Expression, pow_vector
from .quad import QuadratureConfig, as_array_fn
from .solvers import (ClosedFormSolution, EquationClass, EquationSpec,
                      InitialCondition, _point_count, construct,
                      signed_power, solve_bernoulli_via_linear)

__all__ = [
    "CheckResult",
    "OracleSolution",
    "VerificationReport",
    "rk_reference",
    "compare",
    "residual_check",
    "riccati_check",
    "full_verify",
]

_BLOWUP = 1e12           # |y| beyond this truncates the oracle
_H_FIRST = 1e-5          # centered-difference step, first derivatives
_H_SECOND = 1e-4         # step for the 3-point second difference
_H_RICCATI_OUTER = 5e-5  # outer step differencing z itself
_ORACLE_TOL = 1e-9
_CHECK_TOL = 1e-6
_RESIDUAL_TOL2 = 1e-5
_RICCATI_TOL = 1e-4
_ROUTE_TOL = 1e-8
_STEP_BUDGET = 50_000    # step attempts per oracle run before it gives up

# Dormand-Prince 5(4) tableau; the propagated solution is 5th order and the
# last stage is the derivative at the step end (reused as the next first
# stage).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
         22 / 525, -1 / 40)   # 5th- minus 4th-order weights
# Shampine's continuous extension of the pair (the coefficients scipy's RK45
# uses): y(x + th) = y + h * sum_i k_i * sum_j P[i][j] * th**(j + 1).
_DP_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423,
     69997945 / 29380423),
)
_DP_PT = tuple(zip(*_DP_P))   # by power of th
_STAGE_C = np.array(_DP_C[1:])   # abscissae of the stages after the first


@dataclass
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    grid_size: int
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class OracleSolution:
    """Reference trajectory from the adaptive Runge-Kutta integrator."""

    grid: np.ndarray
    values: np.ndarray
    slopes: np.ndarray | None
    method: str
    steps_taken: int
    steps_rejected: int
    truncated: bool
    truncated_at: float | None = None


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)
    passed: bool = True
    validity: tuple[float, float] = (-math.inf, math.inf)
    note: str = ""
    constants: dict = field(default_factory=dict)
    provenance: str = ""

    def to_dict(self) -> dict:
        return {
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
        }


def _stage_fns(spec: EquationSpec):
    """The right-hand side on Python floats, as (coefs, rhs).

    The state is a sequence: [y] for first order, [y, y'] for second.
    ``coefs(xs)`` evaluates the coefficients at an array of abscissae in one
    call per coefficient and returns one (f, g) pair per point;
    ``rhs(fg, y)`` is the derivative given the pair at the stage's x.
    """
    if spec.kind == EquationClass.SECOND_ORDER:
        b, c = float(spec.b), float(spec.c)

        def rhs(fg, y):
            return (y[1], -b * y[1] - c * y[0])

        return (lambda xs: (None,) * len(xs)), rhs

    f = as_array_fn(spec.f)
    g = as_array_fn(spec.g)

    def coefs(xs):
        return tuple(zip(f(xs).tolist(), g(xs).tolist()))

    if spec.kind == EquationClass.LINEAR:
        def rhs(fg, y):
            return (fg[1] - fg[0] * y[0],)
    elif spec.kind == EquationClass.BERNOULLI:
        alpha = float(spec.alpha)

        def rhs(fg, y):
            return (fg[1] * signed_power(y[0], alpha) - fg[0] * y[0],)
    else:
        beta = float(spec.beta)

        def rhs(fg, y):
            z = beta * y[0]
            if z > EXP_MAX:
                raise OdeformError("exp(beta*y) overflow in the oracle")
            return (fg[1] - fg[0] * math.exp(z),)

    return coefs, rhs


def _dp_step(coefs, rhs, x, y, h, k1):
    """One Dormand-Prince attempt; returns (y5, err, ks) with ks[j] the
    stage derivatives of component j. f and g are evaluated once, at all
    stage abscissae together; k1 comes from the previous step."""
    fg = coefs(x + h * _STAGE_C)
    ks = [[k] for k in k1]
    for i in range(1, 7):
        yi = [yj + h * sum(map(mul, _DP_A[i], kj)) for yj, kj in zip(y, ks)]
        for kj, k in zip(ks, rhs(fg[i - 1], yi)):
            kj.append(k)
    # The last stage is taken at the 5th-order solution itself.
    return yi, [h * sum(map(mul, _DP_E, kj)) for kj in ks], ks


def _dense(ts, x, y, h, ks):
    """Continuous extension of an accepted step at the points ts (an array
    inside it); returns one array per state component."""
    th = (ts - x) / h
    out = []
    for yj, kj in zip(y, ks):
        q0, q1, q2, q3 = (sum(map(mul, p, kj)) for p in _DP_PT)
        out.append(yj + h * th * (q0 + th * (q1 + th * (q2 + th * q3))))
    return out


def _march(coefs, rhs, x0, y0, k0, grid, cols, out, tol, counters):
    """Step from (x0, y0) to the last of the targets grid[cols], which are
    ordered away from x0, writing the state at each target reached into its
    column of ``out``.

    The step size follows the error controller alone; only the last step is
    clipped, to end on the last target. Grid values come from the
    continuous extension of the step that covers them. Returns None, or
    where |y| blew up or the step shrank away because stage evaluation kept
    failing. Raises InconclusiveError once the attempts counted in
    ``counters`` reach _STEP_BUDGET, as on a stiff problem, whose explicit
    steps stability keeps tiny.
    """
    targets = grid[cols]
    end = float(targets[-1])
    direction = 1.0 if end > x0 else -1.0
    span = abs(end - x0)
    # span / 100 underflows to 0 on a span of a few subnormals, and a zero
    # step never grows.
    h = direction * span / 100.0 or end - x0
    hmin = 1e-13 * max(1.0, span)
    reach = [(t - x0) * direction for t in targets.tolist()]
    done = 0
    x, y, k1 = x0, y0, k0
    while x != end:
        if counters["taken"] + counters["rejected"] >= _STEP_BUDGET:
            raise InconclusiveError(
                f"oracle stopped at x={x!r} after its budget of "
                f"{_STEP_BUDGET} step attempts; the problem may be stiff")
        last = abs(h) >= abs(end - x)
        if last:
            h = end - x
        try:
            y5, err, ks = _dp_step(coefs, rhs, x, y, h, k1)
            ok = all(map(math.isfinite, y5))
        except OdeformError:
            ok = False
        if ok:
            # q * q, not q ** 2: a float power raises OverflowError where a
            # product reads inf, which rejects the step.
            enorm = math.sqrt(sum(
                q * q for q in (e / (tol + tol * max(abs(a), abs(b)))
                                for e, a, b in zip(err, y, y5))) / len(y))
            if enorm <= 1.0:
                counters["taken"] += 1
                xn = end if last else x + h
                if max(map(abs, y5)) > _BLOWUP:
                    return xn
                stop = bisect.bisect_right(reach, (xn - x0) * direction)
                if stop > done:
                    out[:, cols[done:stop]] = _dense(targets[done:stop], x,
                                                     y, h, ks)
                    done = stop
                x, y, k1 = xn, y5, [kj[6] for kj in ks]
                h *= 5.0 if enorm == 0.0 else min(5.0, max(
                    0.2, 0.9 * enorm ** -0.2))
                continue
            h *= max(0.2, 0.9 * enorm ** -0.2)
        else:
            h *= 0.5
        counters["rejected"] += 1
        if abs(h) < hmin:
            return x
    return None


def _range(xrange, x0: float) -> tuple[float, float]:
    """(lo, hi) of xrange as floats, checked to hold x0 and to be an
    interval of positive, finite width."""
    lo, hi = float(xrange[0]), float(xrange[1])
    if not (lo < hi):
        raise ParameterError("need lo < hi")
    if not math.isfinite(hi - lo):
        raise ParameterError("the range width hi - lo must be finite")
    if not (lo <= x0 <= hi):
        raise ParameterError("x0 must lie inside the range")
    return lo, hi


def rk_reference(spec: EquationSpec, ic: InitialCondition,
                 xrange: tuple[float, float], tol: float = _ORACLE_TOL,
                 grid_size: int = 201) -> OracleSolution:
    """Integrate the initial-value problem over xrange with an adaptive
    embedded Runge-Kutta 5(4) pair, reporting values on a uniform grid.

    atol and rtol are both set to ``tol``. Steps follow the tolerance, not
    the grid: the grid values come from the pair's continuous extension, so
    the step counts do not depend on ``grid_size``. If |y| exceeds 1e12, or
    coefficient evaluation keeps failing while the step shrinks away, the
    trajectory is truncated there and flagged, keeping the grid points
    reached before; failure at x0 itself raises, and so does a run past
    _STEP_BUDGET (50,000) step attempts, with InconclusiveError.
    """
    lo, hi = _range(xrange, ic.x0)
    if not (0 < tol < 1):
        raise ParameterError("tol must be in (0, 1)")
    n = _point_count(grid_size)
    second = spec.kind == EquationClass.SECOND_ORDER
    if second and ic.yp0 is None:
        raise ParameterError("second-order initial data needs yp0")
    coefs, rhs = _stage_fns(spec)
    x0 = float(ic.x0)
    y0 = [float(ic.y0), float(ic.yp0)] if second else [float(ic.y0)]
    # A failure at the anchor is a caller error: surface it.
    k0 = rhs(coefs(np.array([x0]))[0], y0)

    grid = np.linspace(lo, hi, n)
    ys = np.full((len(y0), n), np.nan)
    ys[:, grid == x0] = np.array(y0)[:, None]
    counters = {"taken": 0, "rejected": 0}
    truncated_at = None
    for cols in (np.flatnonzero(grid < x0)[::-1], np.flatnonzero(grid > x0)):
        if cols.size:
            stop = _march(coefs, rhs, x0, y0, k0, grid, cols, ys, tol,
                          counters)
            if stop is not None:
                truncated_at = stop
    reached = ~np.isnan(ys[0])   # the points no march reached stay NaN
    return OracleSolution(
        grid=grid[reached], values=ys[0, reached],
        slopes=ys[1, reached] if second else None,
        method="rk45", steps_taken=counters["taken"],
        steps_rejected=counters["rejected"],
        truncated=truncated_at is not None, truncated_at=truncated_at)


def compare(sol: ClosedFormSolution, oracle: OracleSolution,
            tol: float = _CHECK_TOL) -> CheckResult:
    """Max pointwise deviation |sol - oracle| / (1 + |oracle|) on the part
    of the oracle grid inside the solution's validity interval."""
    sol.ensure_validity(float(oracle.grid.min()), float(oracle.grid.max()))
    v = sol.validity
    inside = (oracle.grid > v.lo) & (oracle.grid < v.hi)
    note = ""
    if not inside.all():
        note = f"{int((~inside).sum())} oracle points outside validity"
    if not inside.any():
        raise NoOverlapError(
            "the oracle grid and the validity interval do not overlap")
    ys = sol.values(oracle.grid[inside])
    ref = oracle.values[inside]
    dev = float(np.max(np.abs(ys - ref) / (1.0 + np.abs(ref))))
    return CheckResult("oracle", dev, tol, dev <= tol,
                       int(inside.sum()), note)


def _interior_grid(sol: ClosedFormSolution, xrange, grid_size: int,
                   reach: float) -> np.ndarray:
    n = _point_count(grid_size)
    if xrange is None:
        v = sol.validity
        if not (math.isfinite(v.lo) and math.isfinite(v.hi)):
            raise ParameterError(
                "an explicit xrange is needed when validity is unbounded")
        lo, hi = v.lo, v.hi
    else:
        lo, hi = float(xrange[0]), float(xrange[1])
    sol.ensure_validity(lo, hi)
    v = sol.validity
    span = hi - lo
    margin = max(10.0 * reach, 1e-3 * span)
    glo = max(lo, v.lo + margin) if v.lo > -math.inf else lo
    ghi = min(hi, v.hi - margin) if v.hi < math.inf else hi
    if not (glo < ghi):
        raise NoOverlapError(
            "validity interval too small for a finite-difference grid")
    return np.linspace(glo, ghi, n)


def _kink_sides(spec: EquationSpec, xs: np.ndarray,
                h: np.ndarray) -> np.ndarray:
    """The first-difference stencil of each grid point x, with its step h:
    0 for the centered one, +1 or -1 for the one-sided 3-point one on
    [x, x + 2h] or [x - 2h, x]. A point leaves the centered stencil only
    where the argument of an abs in f or g takes both signs on it, and then
    for a side where none does."""
    pts = (xs[None, :] + h * np.arange(-2.0, 3.0)[:, None]).ravel()
    args = [a for e in (spec.f, spec.g) if isinstance(e, Expression)
            for a in e.abs_arguments(pts)]
    side = np.zeros(xs.size)
    if not args:
        return side
    sg = np.sign(np.stack(args)).reshape(len(args), 5, xs.size)

    def straddled(lo):
        w = sg[:, lo:lo + 3]
        return ((w.min(axis=1) < 0.0) & (w.max(axis=1) > 0.0)).any(axis=0)

    centered, left, right = straddled(1), straddled(0), straddled(2)
    side[centered & ~left] = -1.0
    side[centered & left & ~right] = 1.0
    return side


def residual_check(spec: EquationSpec, sol: ClosedFormSolution,
                   grid_size: int = 200, xrange=None,
                   tol: float | None = None) -> CheckResult:
    """Finite-difference residual of the equation on an interior grid.

    Deviation is max |residual| / (1 + scale); scale is the largest grid
    magnitude among the equation's individual terms, so steep solutions are
    judged relative to their own size. Default tolerance is 1e-6 for the
    first-order classes and 1e-5 for second order (the second difference
    amplifies rounding by 1/h^2).

    y' is the centered difference, except where f or g has a kink, found
    as a sign change of an abs argument, inside the stencil: y'' jumps
    there, which leaves the centered difference only O(h) accurate, so the
    one-sided 3-point difference on the kink-free side is used instead.
    Each grid point x steps by the representable h = (x + h) - x
    (*Numerical Recipes* 3rd ed., section 5.7), so the differences divide
    by the step the stencil really takes, however large |x|.
    """
    second = spec.kind == EquationClass.SECOND_ORDER
    h = _H_SECOND if second else _H_FIRST
    if tol is None:
        tol = _RESIDUAL_TOL2 if second else _CHECK_TOL
    xs = _interior_grid(sol, xrange, grid_size, h)
    n = len(xs)
    h = (xs + h) - xs
    vals = sol.values(np.concatenate([xs - h, xs, xs + h]))
    ym, y0, yp = vals[:n], vals[n:2 * n], vals[2 * n:]
    if not second:
        side = _kink_sides(spec, xs, h)
        k = np.flatnonzero(side)
        far = sol.values(xs[k] + 2.0 * h[k] * side[k])

    with np.errstate(over="ignore", invalid="ignore"):
        d1 = (yp - ym) / (2.0 * h)
        if second:
            d2 = (yp - 2.0 * y0 + ym) / (h * h)
            terms = (d2, spec.b * d1, spec.c * y0)
            residual = d2 + spec.b * d1 + spec.c * y0
        else:
            if k.size:
                near = np.where(side[k] > 0.0, yp[k], ym[k])
                d1[k] = (side[k] * (4.0 * near - 3.0 * y0[k] - far)
                         / (2.0 * h[k]))
            # y' + f u - g w = 0: u is y, or e^(beta y) for the exp class;
            # w is 1, or y^alpha for bernoulli.
            fv = as_array_fn(spec.f)(xs)
            gv = as_array_fn(spec.g)(xs)
            u, w = y0, 1.0
            if spec.kind == EquationClass.BERNOULLI:
                w, bad = pow_vector(y0, float(spec.alpha))
                if bad.any():
                    raise EvalDomainError(
                        "y^alpha has no real value in the residual",
                        float(xs[int(np.argmax(bad))]))
            elif spec.kind == EquationClass.EXP:
                z = float(spec.beta) * y0
                if (z > EXP_MAX).any():
                    raise OdeformError("exp(beta*y) overflow in the residual")
                u = np.exp(z)
            terms = (d1, fv * u, gv * w)
            residual = d1 + fv * u - gv * w

    scale = max(float(np.max(np.abs(t))) for t in terms)
    dev = float(np.max(np.abs(residual))) / (1.0 + scale)
    return CheckResult("residual", dev, float(tol), dev <= tol, len(xs))


def riccati_check(b: float, c: float, sol: ClosedFormSolution,
                  grid_size: int = 200, xrange=None,
                  tol: float = _RICCATI_TOL) -> CheckResult:
    """Check z' + z^2 + b z + c = 0 for z = (log|y|)' on an interior grid.

    z comes from centered differences of log|y| (h = 1e-5) and z' from
    centered differences of z (outer step 5e-5). Excluded points: those
    with |y| <= 1e-3 max|y| on the grid, and those where |z| exceeds the
    conditioning cap (tol / (6 (h^2 + H^2)))^(1/4) -- beyond it the
    finite-difference truncation error alone would swamp the tolerance, as
    happens arbitrarily close to any zero of y. If more than 90% of the
    grid is excluded the check is inconclusive and raises. Both steps are
    the representable ones at each grid point x, (x + h) - x and
    (x + H) - x, as in residual_check.
    """
    if sol.kind != EquationClass.SECOND_ORDER:
        raise ParameterError("the invariant applies to second-order solutions")
    h = _H_FIRST
    H = _H_RICCATI_OUTER
    if xrange is None:
        xrange = (sol.x0, sol.x0 + 2.0)
    xs = _interior_grid(sol, xrange, grid_size, h + H)
    n = len(xs)
    h, H = (xs + h) - xs, (xs + H) - xs
    # the last row is y itself
    offsets = (-H - h, -H + h, -h, h, H - h, H + h, 0.0)
    vals = sol.values(np.concatenate([xs + o for o in offsets])).reshape(
        len(offsets), n)
    y0 = vals[6]
    ymax = float(np.max(np.abs(y0)))
    if ymax == 0.0:
        raise InconclusiveError("the solution vanishes on the whole grid")

    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.log(np.abs(vals))
        z_m = (L[1] - L[0]) / (2.0 * h)   # z at x - H
        z_0 = (L[3] - L[2]) / (2.0 * h)   # z at x
        z_p = (L[5] - L[4]) / (2.0 * h)   # z at x + H
        zp = (z_p - z_m) / (2.0 * H)
        residual = zp + z_0 * z_0 + b * z_0 + c

    zcap = (tol / (6.0 * (h * h + H * H))) ** 0.25
    keep = (np.abs(y0) > 1e-3 * ymax) & np.isfinite(residual) \
        & (np.abs(z_0) <= zcap)
    kept = int(keep.sum())
    if kept < max(1, n // 10):
        raise InconclusiveError(
            f"only {kept} of {n} grid points usable; the solution is too "
            "close to zero almost everywhere")
    dev = float(np.max(np.abs(residual[keep])))
    return CheckResult("riccati", dev, tol, dev <= tol, kept,
                       f"{n - kept} points excluded near zeros of y")


@contextmanager
def _stage(name: str):
    """Raise an OdeformError from the block as StageError(name, e)."""
    try:
        yield
    except OdeformError as e:
        raise StageError(name, e)


def full_verify(spec: EquationSpec, ic: InitialCondition,
                xrange: tuple[float, float],
                cfg: QuadratureConfig | None = None, *,
                grid_size: int = 200, oracle_tol: float = _ORACLE_TOL,
                check_tol: float = _CHECK_TOL,
                perturb: float = 0.0) -> VerificationReport:
    """Construct the closed form and run every applicable check.

    The range is clipped to the discovered validity interval, and away
    from a range end other than x0 where f or g is not finite (noted in the
    report). ``perturb`` offsets the constructed solution by a finite
    constant before checking -- a diagnostic knob demonstrating that
    defects of that size are caught. Stage failures raise StageError
    naming the stage.
    """
    lo, hi = _range(xrange, ic.x0)
    if not (0 < check_tol < 1):
        raise ParameterError("check_tol must be in (0, 1)")
    if not math.isfinite(perturb):
        raise ParameterError("perturb must be finite")
    grid_size = _point_count(grid_size)
    second = spec.kind == EquationClass.SECOND_ORDER

    with _stage("constructor"):
        sol = construct(spec, ic, cfg)

    with _stage("validity probe"):
        sol.ensure_validity(lo, hi)
        # The checks' stencils step past the range by up to ``reach``; a
        # boundary there must be found now, not after clipping.
        reach = (max(_H_SECOND, _H_FIRST + _H_RICCATI_OUTER) if second
                 else 2.0 * _H_FIRST)
        sol.ensure_validity(lo - reach, hi + reach)
        v = sol.validity
        span = hi - lo
        # A coefficient that fails at a range end, but not at x0, ends the
        # oracle there, though the closed form's cells, which never sample
        # their ends, reach past it: such an end counts as a boundary.
        ends = np.array([lo, hi])
        cut = np.zeros(2, bool)
        for coef in (spec.f, spec.g):
            if coef is not None:
                cut |= ~np.isfinite(as_array_fn(coef, masked=True)(ends))
        cut &= ends != ic.x0
        # Keep 1% of the span away from a boundary: solutions are
        # typically singular there and finite differences lose accuracy
        # faster than the term scale grows.
        clo = lo if v.lo <= lo and not cut[0] else max(lo, v.lo) + 1e-2 * span
        chi = hi if v.hi >= hi and not cut[1] else min(hi, v.hi) - 1e-2 * span
        if not (clo < chi) or not (clo <= ic.x0 <= chi):
            raise NoOverlapError(
                "the validity interval covers too little of the range")
    note = ""
    if clo > lo or chi < hi:
        note = (f"range clipped to [{clo!r}, {chi!r}] inside validity "
                f"({v.lo!r}, {v.hi!r})")
        if cut.any():
            note += "; a coefficient is not finite at a range end"

    checked = sol.perturbed(perturb) if perturb else sol
    checks = []

    with _stage("residual check"):
        rtol = (10.0 * check_tol) if second else check_tol
        checks.append(residual_check(spec, checked, grid_size, (clo, chi),
                                     tol=rtol))

    with _stage("oracle comparison"):
        oracle = rk_reference(spec, ic, (clo, chi), oracle_tol, grid_size)
        if oracle.truncated:
            raise InconclusiveError(
                f"oracle truncated at x={oracle.truncated_at!r}")
        checks.append(compare(checked, oracle, check_tol))

    if second:
        with _stage("riccati check"):
            checks.append(riccati_check(float(spec.b), float(spec.c),
                                        checked, grid_size, (clo, chi)))

    if spec.kind == EquationClass.BERNOULLI:
        if ic.y0 == 0.0:
            checks.append(CheckResult(
                "route_equivalence", 0.0, _ROUTE_TOL, True, 0,
                "skipped: the zero solution has no linear-substitution route"))
        else:
            with _stage("route equivalence"):
                via = solve_bernoulli_via_linear(
                    spec.f, spec.g, float(spec.alpha), ic, cfg)
                via.ensure_validity(clo, chi)
                vv = via.validity
                blo = max(clo, vv.lo + 1e-3 * span) if vv.lo > clo else clo
                bhi = min(chi, vv.hi - 1e-3 * span) if vv.hi < chi else chi
                if not (blo < bhi):
                    raise NoOverlapError(
                        "no shared interval between the two routes")
                xs = np.linspace(blo, bhi, grid_size)
                y1 = checked.values(xs)
                y2 = via.values(xs)
                dev = float(np.max(np.abs(y1 - y2) / (1.0 + np.abs(y1))))
                checks.append(CheckResult(
                    "route_equivalence", dev, _ROUTE_TOL, dev <= _ROUTE_TOL,
                    len(xs)))

    return VerificationReport(
        checks=checks, passed=all(c.passed for c in checks),
        validity=(v.lo, v.hi), note=note, constants=dict(sol.constants),
        provenance=sol.provenance)
