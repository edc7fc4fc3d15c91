"""Definite integrals and anchored antiderivatives, both as Chebyshev cells.

A cell is the integral of the degree-16 interpolant of the integrand at the
17 Chebyshev points of the first kind (Trefethen, *Approximation Theory and
Approximation Practice*, SIAM 2013, ch. 19), written as (x - a) * R(t) from
the cell's inner end a. A cell whose last three coefficients, times its
width, do not fit its share of the tolerance is bisected (Aurentz &
Trefethen, "Chopping a Chebyshev series", *ACM TOMS* 43, 2017); every
pending part of every cell is sampled in one integrand call per bisection
generation. A cell's sums are formed row by row, so its result is the same
bit for bit in any batch. Tolerances come from a QuadratureConfig only.

integrate_many() makes each interval one cell, to max(abs_tol, rel_tol *
|integral|). Antiderivative realizes F(x) = integral of phi from x0 to x
with F(x0) = 0 exactly, on the cells [x0 + k*h, x0 + (k+1)*h] on either
side of x0, built outward as queries reach them, each to abs_tol/256 or
rel_tol of its own integral. A table keeps F at the cell ends as the
running sum of the cell integrals, so a query is a table lookup plus a
Clenshaw sum, and costs no integrand call once its cell exists. The value
at x is a pure function of x: query order, query history and batching
cannot change results, and a table abscissa reads its table value exactly
however large |x0| is. The table grows under an internal lock; concurrent
queries from multiple threads are safe.

The weighted antiderivative W = integral of g exp(s F) is kept on the
same kind of cells in a scaled form, V = exp(-max(s F, 0)) W, whose table
follows a recurrence from cell to cell instead of a running sum (_Scaled,
Antiderivative._grow): W leaves double range where the closed forms built
on it need not. _Scaled builds its own F and is the one reader of V: its
read() returns z = s F, lam = max(z, 0) and V together.

Integrands only need to be Riemann integrable on bounded intervals; strict
accuracy claims hold for piecewise-smooth ones. Parts that shrink to the
floating-point limit stop splitting, and their error still counts against
their cell.

Failure is per interval, as QUADPACK reports it with a per-integral flag
(Piessens et al., *QUADPACK*, Springer 1983). Integrands mark a node they
cannot evaluate with a non-finite value (an Expression does so through
its tape statuses). An interval of integrate_many fails as soon as one of
its samples is not finite; it also fails if it misses tolerance after
_MAX_DEPTH (50) bisections, a fixed cap, or once it holds more than
_PANEL_BUDGET parts at one depth. So an interval's result never depends on
the other intervals of its batch. An antiderivative's cell with a
non-finite sample is bisected toward that sample instead, and the first
cell going out from x0 that fails for good ends the table: F is NaN from
where that cell fails outward. The masked forms (``masked=True``) return
NaN where they fail. The plain forms raise from the first failed point:
the integrand's own typed error at the failing node, an EvalError for a
node where a plain callable returned a non-finite value, an
EvalOverflowError for an integral outside double range, or a
ConvergenceError carrying the last estimate.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, EvalDomainError, EvalError,
                     EvalOverflowError, ParameterError)
from .expr import Expression, _points

__all__ = [
    "QuadratureConfig",
    "integrate",
    "integrate_many",
    "Antiderivative",
    "antiderivative",
    "as_array_fn",
]

_EPS = np.finfo(np.float64).eps
_MAX_SEGMENTS = 1 << 21  # guard against runaway checkpoint tables
_PANEL_BUDGET = 10_000   # per-cell cap on the parts it holds at a depth
_MAX_DEPTH = 50          # bisections before a cell stops splitting


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and checkpoint spacing shared by the integration routines.

    checkpoint_spacing defaults to 1/128, the working-range heuristic
    span/256 for a span of 2; the CLI passes (hi - lo)/256. The depth cap
    is the module constant _MAX_DEPTH, not a setting.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    checkpoint_spacing: float = 1.0 / 128.0

    def __post_init__(self):
        if not (np.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise ParameterError("abs_tol must be a positive finite number")
        if not (np.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ParameterError("rel_tol must be a positive finite number")
        if not (np.isfinite(self.checkpoint_spacing)
                and self.checkpoint_spacing > 0):
            raise ParameterError(
                "checkpoint_spacing must be a positive finite number")


_DEFAULT_CFG = QuadratureConfig()


def as_array_fn(f, masked: bool = False):
    """Adapt an Expression or plain callable to a vectorized float64 map.

    Plain callables are tried on whole arrays first; scalar-only callables
    (TypeError/ValueError on array input, or wrong result shape) fall back
    to an elementwise loop. An Expression raises at its first failing
    point, or with ``masked`` reads NaN there; a plain callable's values,
    finite or not, pass through as they are.
    """
    if isinstance(f, Expression):
        if masked:
            return lambda xs: f.eval_many(xs, masked=True)
        return f.eval_many
    if not callable(f):
        raise TypeError(f"expected an Expression or callable, got {f!r}")

    def wrapped(xs: np.ndarray) -> np.ndarray:
        try:
            out = np.asarray(f(xs), dtype=np.float64)
        except (TypeError, ValueError):
            out = None
        if out is not None:
            if out.shape == xs.shape:
                return out
            if out.ndim == 0:
                return np.full(xs.shape, float(out))
        return np.fromiter((float(f(float(t))) for t in xs), np.float64,
                           count=xs.size)

    return wrapped


_DEG = 16  # degree of a cell's interpolant


def _cell_rule():
    """The sample points of a cell and the fixed map from its samples.

    The points are the 17 Chebyshev points of the first kind,
    t_k = -cos((2k+1) pi / 34), ascending from the cell's end nearer x0; a
    cell never samples its ends, so an integrable singularity there, as of
    log(x) or sin(x)/x at 0, costs nothing. Let p be the degree-16
    interpolant of samples v at them, and R(t) = (integral of p from -1 to
    t) / (t + 1). Applied to v, rows 0-16 of the map give R's Chebyshev
    coefficients, row 17 gives R(1) (Fejer's first rule, halved) and rows
    18-20 p's last three coefficients. On a cell from a to b the integral
    from a to x is then (x - a) * R(t).
    """
    n = _DEG + 1
    k = np.arange(n)
    odd = 2 * k + 1
    # T_j(t_k) = (-1)^j cos(j (2k+1) pi / 2n); the integer product is
    # reduced mod 4n so that the cosine's argument carries no rounding.
    interp = np.cos(np.pi * (np.outer(k, odd) % (4 * n)) / (2 * n))
    interp *= (2.0 / n) * (-1.0) ** k[:, None]
    interp[0] *= 0.5

    def rise(m):
        """T_m(t_k) - T_m(-1), as -(-1)^m 2 sin^2(m (2k+1) pi / 4n): no
        cancellation near t = -1."""
        half = np.sin(np.pi * (np.outer(odd, m) % (4 * n)) / (4 * n))
        return -2.0 * (-1.0) ** m * half * half

    # cum[k, j]: integral of T_j from -1 to t_k
    cum = rise(k + 1) / (2.0 * (k + 1))
    cum[:, 2:] -= rise(k[2:] - 1) / (2.0 * (k[2:] - 1))
    cum[:, 1] = rise(np.array([2]))[:, 0] / 4.0
    cum[:, 0] = rise(np.array([1]))[:, 0]  # t_k + 1
    # einsum, not matmul: building the rule loads no BLAS at import.
    at = np.einsum("kj,ji->ki", cum, interp) / cum[:, :1]  # v -> R(t_k)
    whole = np.zeros(n)                     # half the integral of T_j
    whole[::2] = 1.0 / (1.0 - k[::2] ** 2)  # over [-1, 1]
    rule = np.vstack((np.einsum("jk,ki->ji", interp, at),
                      np.einsum("j,ji->i", whole, interp), interp[n - 3:]))
    return -np.cos(np.pi * odd / (2 * n)), rule


_TAU, _RULE = _cell_rule()
_DTAU = np.diff(_TAU)


def _fit(vals, w, span):
    """Fit cells of signed widths w to their samples (one row each).

    Returns (coef, val, err, grain): the coefficients of R, degree-major;
    the signed integral over each cell; |w| times the last three
    coefficients of the interpolant; and the part of err that rounding the
    samples and their positions, up to ``span`` in magnitude, can account
    for (below it a cell is resolved as far as doubles allow). Samples are
    scaled by their largest magnitude first, so the map cannot overflow
    while they are finite, and their first sample is taken out and added
    back, so a constant's R is that constant exactly. The sums are einsum
    row by row, so a cell's fit does not depend on its batch.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.max(np.abs(vals), axis=1)
        m[m == 0.0] = 1.0
        u = vals / m[:, None]
        u0 = u[:, 0]
        c = np.einsum("jk,ik->ji", _RULE, u - u0[:, None])
        coef = c[:_DEG + 1]
        coef[0] += u0
        coef *= m
        val = w * (m * (c[_DEG + 1] + u0))
        tail = np.abs(c[_DEG + 2]) + np.abs(c[_DEG + 3]) + np.abs(c[_DEG + 4])
        err = np.abs(w) * (m * tail)
        slope = np.max(np.abs(np.diff(u, axis=1)) / _DTAU, axis=1)
        grain = m * (8.0 * _EPS * np.abs(w) + 16.0 * (_EPS * span) * slope)
    return coef, val, err, grain


def _clenshaw(coef, idx, t):
    """Sum of coef[j, idx] T_j(t), one row of coef gathered per degree."""
    t2 = t + t
    b1 = coef[_DEG][idx]
    b2 = np.zeros(t.shape)
    for j in range(_DEG - 1, 0, -1):
        b1, b2 = coef[j][idx] + t2 * b1 - b2, b1
    return coef[0][idx] + t * b1 - b2


def _cells(fn, a, b, share, rel_tol, chain):
    """Chebyshev cells from a[i] to b[i], all of one orientation.

    ``fn(x, cell)`` is a masked integrand: x holds the _DEG + 1 samples of
    each part in one row after another, and cell the index of each row's
    cell.
    A cell is accepted where its last three coefficients, times its width,
    fit its tolerance max(share, rel_tol * |cell integral|) in proportion
    to its width, or are down to what rounding its samples and their
    positions puts in them. Otherwise it is bisected, up to _MAX_DEPTH
    times; a part at the floating-point width limit, at the depth cap or
    over _PANEL_BUDGET stops splitting, and its error counts against its
    cell. A cell fails when its error exceeds its tolerance or one of its
    samples is not finite. On its own, a cell with such a sample is dropped
    at once. In a ``chain``, cells run outward from a[0], each from the end
    of the one before: there a cell is bisected toward its first such
    sample going outward, and every part beyond that sample, in that cell
    or a later one, is dropped.

    Returns (total, etotal, node, missed, parts). Per cell: the signed
    integral and the error of its kept parts, its first non-finite sample
    (NaN if none) and whether it missed its tolerance. ``parts`` = (cid,
    a, w, excl, coef, err) lists the kept parts by cell, then outward:
    inner end a, signed width w, the integral from the cell's inner end to
    a, the coefficients of R and the error.
    """
    n = a.size
    s = 1.0 if b[0] > a[0] else -1.0
    width = b - a
    cid = np.arange(n)
    pa, pb = a, b
    est = np.zeros(n)
    cut = np.full(n, np.inf)  # outward position of each cell's bad sample
    node = np.full(n, np.nan)
    done = []
    depth = 0
    while cid.size:
        half = 0.5 * (pb - pa)
        pts = (0.5 * pa + 0.5 * pb)[:, None] + half[:, None] * _TAU
        vals = fn(pts.ravel(), cid).reshape(pts.shape)
        finite = np.isfinite(vals)
        bad = ~finite.all(axis=1)
        if bad.any():
            rows = np.flatnonzero(bad)
            first = np.full(n, np.inf)
            np.minimum.at(first, cid[rows],
                          s * pts[rows, np.argmax(~finite[rows], axis=1)])
            new = first < cut
            node[new] = s * first[new]
            if chain:
                cut = np.minimum.accumulate(np.minimum(cut, first))
            else:
                cut[new] = -np.inf
            vals = np.where(finite, vals, 0.0)
        span = np.maximum(np.abs(pa), np.abs(pb))
        coef, val, err, grain = _fit(vals, pb - pa, span)
        ok = (~bad & np.isfinite(val) & np.isfinite(err)
              & np.isfinite(coef).all(axis=0))
        val[~ok] = 0.0
        err[~ok] = np.inf
        live = s * pa < cut[cid]
        cur = est + np.bincount(cid[live], weights=val[live], minlength=n)
        tol = np.maximum(share, rel_tol * np.abs(cur))
        settled = ok & ((err <= tol[cid] * np.abs((pb - pa) / width[cid]))
                        | (err <= grain))
        tiny = np.abs(pb - pa) <= 100.0 * _EPS * np.maximum(1.0, span)
        stop = settled | tiny
        if depth >= _MAX_DEPTH:
            stop[:] = True
        elif cid.size > _PANEL_BUDGET and 2 ** depth > _PANEL_BUDGET:
            stop |= np.bincount(cid, minlength=n)[cid] > _PANEL_BUDGET
        stop &= live
        done.append((cid[stop], pa[stop], pb[stop], coef[:, stop], val[stop],
                     err[stop]))
        est += np.bincount(cid[stop], weights=val[stop], minlength=n)
        go = live & ~stop
        cid = np.repeat(cid[go], 2)
        mid = 0.5 * pa[go] + 0.5 * pb[go]
        pa, pb = (np.stack((pa[go], mid), axis=1).ravel(),
                  np.stack((mid, pb[go]), axis=1).ravel())
        depth += 1

    cid, pa, pb, coef, val, err = (
        np.concatenate(col, axis=-1) for col in zip(*done))
    order = np.lexsort((s * pa, cid))
    order = order[s * pa[order] < cut[cid[order]]]
    cid, pa, pb, coef = cid[order], pa[order], pb[order], coef[:, order]
    val, err = val[order], err[order]
    counts = np.bincount(cid, minlength=n)
    start = np.concatenate(([0], np.cumsum(counts)))
    # Running sums inside each cell, outward from its inner end, one cell
    # at a time.
    total = np.zeros(n)
    excl = np.zeros(cid.size)
    one = counts == 1
    total[one] = val[start[:-1][one]]
    with np.errstate(over="ignore", invalid="ignore"):
        for c in np.flatnonzero(counts > 1):
            run = np.add.accumulate(val[start[c]:start[c + 1]])
            total[c] = run[-1]
            excl[start[c] + 1:start[c + 1]] = run[:-1]
        etotal = np.bincount(cid, weights=err, minlength=n)
        tol = np.maximum(share, rel_tol * np.abs(total))
    missed = ~(etotal <= tol) | ~np.isfinite(total)
    return total, etotal, node, missed, (cid, pa, pb - pa, excl, coef, err)


def _node_error(fn, t: float) -> EvalError:
    """The typed error for an integrand node t where fn is not finite."""
    if isinstance(fn, Expression):
        err = fn._error_at(t)
        if err is not None:
            return err
    v = float(as_array_fn(fn, masked=True)(np.array([t]))[0])
    kind = EvalOverflowError if math.isinf(v) else EvalDomainError
    return kind(f"integrand returned {v!r}", t)


def _failure(fn, node, estimate, error, interval, at) -> EvalError:
    """The typed error of a failed integral: the integrand's own at its
    first non-finite node, an EvalOverflowError at ``at`` where the
    integral left double range, else a ConvergenceError."""
    if not math.isnan(node):
        return _node_error(fn, float(node))
    if not (math.isfinite(estimate) and math.isfinite(error)):
        return EvalOverflowError("integral outside double range", float(at))
    return ConvergenceError(
        f"quadrature did not converge within max_depth={_MAX_DEPTH}",
        estimate=float(estimate), error_estimate=float(error),
        interval=tuple(float(v) for v in interval))


def integrate_many(fn, a, b, cfg: QuadratureConfig | None = None, *,
                   masked: bool = False) -> np.ndarray:
    """Integrate ``fn`` over each interval [a[i], b[i]] to the tolerances
    of ``cfg`` (the defaults when None), each as one Chebyshev cell
    bisected as needed, to max(abs_tol, rel_tol * |integral|).

    Reversed intervals integrate the ordered interval and negate, so the
    result is exactly antisymmetric under swapping bounds. Zero-width
    intervals contribute exactly 0.0 without evaluating the integrand.
    Raises the typed error of the first failed interval; with ``masked``
    a failed interval reads NaN instead.
    """
    cfg = cfg or _DEFAULT_CFG
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    if a.shape != b.shape or a.ndim != 1:
        raise ParameterError("bounds must be 1-D arrays of equal length")
    if a.size and not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ParameterError("integration bounds must be finite")
    est, err = np.zeros(a.size), np.zeros(a.size)
    node, failed = np.full(a.size, np.nan), np.zeros(a.size, bool)
    iv = np.flatnonzero(a != b)
    if iv.size:
        f = as_array_fn(fn, masked=True)
        est[iv], err[iv], node[iv], failed[iv], _ = _cells(
            lambda xs, _: f(xs), np.minimum(a[iv], b[iv]),
            np.maximum(a[iv], b[iv]), cfg.abs_tol, cfg.rel_tol, False)
        failed |= ~np.isnan(node)
    est *= np.where(b >= a, 1.0, -1.0)
    if not failed.any():
        return est
    if masked:
        est[failed] = np.nan
        return est
    i = int(np.argmax(failed))
    raise _failure(fn, node[i], est[i], err[i], (a[i], b[i]), b[i])


def integrate(fn, a: float, b: float,
              cfg: QuadratureConfig | None = None) -> float:
    """Definite integral of ``fn`` over [a, b] to the configured tolerance."""
    return float(integrate_many(fn, np.array([a]), np.array([b]), cfg)[0])


class _Side:
    """The cells on one side of x0, outward from it: one part list, sorted
    outward, serves every read."""

    def __init__(self, sign: float):
        self.sign = sign
        self.tab = np.zeros(1)  # value at x0 + sign*k*h, k = 0 .. cells
        self.key = np.empty(0)  # sign * (each part's end nearer x0), ascending
        self.w = np.empty(0)    # its signed width
        self.base = np.empty(0)  # the sum at that end, before scaling
        self.lift = np.empty(0)  # the exponent its cell is scaled by
        self.coef = np.empty((_DEG + 1, 0))
        # Once a cell fails: the value is NaN past ``end``, and the rest
        # names the failing cell for its error.
        self.fail = None  # (end, inner, outer, node, estimate, error)

    def read(self, x, m, on, lam) -> np.ndarray:
        """The value at the points x of this side. x0 + m*h <= x <
        x0 + (m+1)*h, and ``on`` marks the abscissae x0 + m*h, which read the
        table; any other point reads the part that holds it, base +
        d * R(t), times exp(lift - lam) where the points' exponents lam are
        given, up to where the value fails."""
        s = self.sign
        out = np.full(x.size, np.nan)
        if np.count_nonzero(on):
            k = (s * m).astype(np.int64)
            hit = on & (k < self.tab.size)
            out[hit] = self.tab[k[hit]]
        off = ~on
        if self.fail is not None:
            off &= s * x <= s * self.fail[0]
        if not np.count_nonzero(off):
            return out
        xi = x[off]
        idx = np.searchsorted(self.key, s * xi, "right") - 1
        d = xi - s * self.key[idx]
        t = (d + d) / self.w[idx] - 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            v = self.base[idx] + d * _clenshaw(self.coef, idx, t)
            if lam is not None:
                v *= np.exp(self.lift[idx] - lam[off])
            out[off] = v
        return out


class Antiderivative:
    """F(x) = integral of phi from x0 to x, with F(x0) = 0.0 exactly.

    Chebyshev cells of width ``spacing`` tile both sides of x0, built
    outward as queries reach them, and a table keeps F at their ends
    x0 + k*spacing. A query at a table abscissa reads the table; any other
    adds the Clenshaw sum of the cell (or the part of a split cell) that
    holds it to F at that part's end nearer x0. A cell's tolerance share is
    abs_tol/256, which keeps a chain of up to 256 cells within abs_tol, as
    at the CLI's spacing span/256. At the default spacing 1/128, a query
    further than 2 from x0 sums more cells, whose errors can add up beyond
    abs_tol.

    The first cell, going out from x0, that fails for good ends the table
    on its side: F is NaN from where that cell fails outward, and
    ``values`` raises or, with ``masked``, reads NaN there. Where the sum
    of finite cell integrals leaves double range, ``values`` raises
    EvalOverflowError and the masked form reads the infinity, a limit the
    closed forms can still take.

    ``eval_count`` counts integrand evaluations, which makes cost claims
    testable: covering a fresh span costs 17 per cell plus 17 per part of
    the cells that split, and a query inside cells that exist costs none.
    """

    def __init__(self, fn, x0: float, cfg: QuadratureConfig | None = None):
        self._src = fn
        self._masked = as_array_fn(fn, masked=True)
        self._cfg = cfg or _DEFAULT_CFG
        self._h = self._cfg.checkpoint_spacing
        if not np.isfinite(x0):
            raise ParameterError("anchor x0 must be finite")
        self._x0 = float(x0)
        self._sides = (_Side(1.0), _Side(-1.0))
        self._lock = threading.RLock()
        self.eval_count = 0

    @property
    def x0(self) -> float:
        return self._x0

    @property
    def spacing(self) -> float:
        return self._h

    def checkpoints(self) -> list[tuple[float, float]]:
        """Materialized (x, F(x)) pairs, strictly increasing in x."""
        with self._lock:
            up, down = (side.tab.size for side in self._sides)
        xs = self._x0 + np.arange(1 - down, up) * self._h
        return list(zip(xs.tolist(), self.values(xs, masked=True).tolist()))

    def _exponents(self, xs):
        """(z, lam) at the points xs, lam = max(z, 0) >= 0: the value there
        is kept and read scaled by exp(-lam) (see _Scaled). Both are None,
        for 0, in a plain antiderivative, whose reads skip the scaling."""
        return None, None

    def _integrand(self, xs, top):
        """The integrand at the points xs, scaled by exp(-top), top given
        per row of _DEG + 1 samples; top is 0 in a plain antiderivative."""
        return self._masked(xs)

    def _grow(self, side: _Side, n: int):
        """Build the cells of ``side`` out to n of them (requires the lock).

        Cell k from a to b integrates _integrand scaled by exp(-top_k),
        top_k the larger of lam(a) and lam(b), or the one that is not NaN;
        the table follows value(b) = exp(top_k - lam(b)) * (exp(lam(a) -
        top_k) * value(a) + that integral), a plain running sum where lam
        is 0.
        """
        cfg, sgn = self._cfg, side.sign
        ends = self._x0 + sgn * np.arange(side.tab.size - 1, n + 1) * self._h
        _, lam = self._exponents(ends)
        if lam is None:
            lam = np.zeros(ends.size)
        top = np.fmax(lam[:-1], lam[1:])

        # A closure over self that lives only for this call: one kept on
        # self would make every antiderivative wait for the cyclic garbage
        # collector, cells and all.
        def counted(xs: np.ndarray, cell: np.ndarray) -> np.ndarray:
            self.eval_count += xs.size
            return self._integrand(xs, top[cell])

        total, etotal, node, missed, parts = _cells(
            counted, ends[:-1], ends[1:], cfg.abs_tol / 256.0, cfg.rel_tol,
            True)
        failed = missed | ~np.isnan(node)
        if failed.any():
            # The value fails from the first bad sample in the first failing
            # cell, or, if the cell misses its tolerance, from the part that
            # adds most to its error if that comes first.
            f = int(np.argmax(failed))
            cid, a, err = parts[0], parts[1], parts[5]
            lo, hi = np.searchsorted(cid, [f, f + 1])
            cand = [] if math.isnan(node[f]) else [float(node[f])]
            if missed[f] and hi > lo:
                cand.append(float(a[lo + np.argmax(err[lo:hi])]))
            end = min(cand, key=lambda x: sgn * x)
            keep = np.searchsorted(sgn * a, sgn * end)  # parts before end
            parts = tuple(p[..., :keep] for p in parts)
            side.fail = (end, float(ends[f]), float(ends[f + 1]),
                         float(node[f]), sgn * total[f], etotal[f])
            total = total[:f]
        cid, a, w, excl, coef, _ = parts
        with np.errstate(over="ignore", invalid="ignore"):
            into, out = np.exp(lam[:-1] - top), np.exp(top - lam[1:])
            tab = np.concatenate((side.tab[-1:], out[:total.size] * total))
            if lam.any():
                # value(b) = exp(lam(a) - lam(b)) value(a) + the scaled
                # integral, one cell at a time
                grow = (into * out).tolist()
                v = tab.tolist()
                for k in range(total.size):
                    v[k + 1] += grow[k] * v[k]
                tab = np.array(v)
            else:
                tab = np.add.accumulate(tab)
            base = into[cid] * tab[cid] + excl
        if side.fail is not None:
            tab = np.append(tab, np.nan)
        for name, new in (("key", sgn * a), ("w", w), ("base", base),
                          ("lift", top[cid]), ("coef", coef),
                          ("tab", tab[1:])):
            setattr(side, name,
                    np.concatenate((getattr(side, name), new), axis=-1))

    def values(self, xs, *, masked: bool = False) -> np.ndarray:
        """F at a 1-D array of points, any order.

        Raises the typed error of the first point where F fails; with
        ``masked`` such points read NaN instead.
        """
        xs = _points(xs)
        out = self._read(xs, self._exponents(xs)[1])
        if not masked:
            bad = ~np.isfinite(out)
            if bad.any():
                raise self.error_at(float(xs[int(np.argmax(bad))]))
        return out

    def _read(self, xs, lam):
        """The masked value at the points xs, whose exponents are lam."""
        if xs.size == 0:
            return np.empty(0)
        with self._lock:
            # The cell of x, x0 + m*h <= x < x0 + (m+1)*h, against the
            # abscissae as _grow forms them: the rounded quotient may be one
            # off, or underflow to 0 on either side of x0. Where it
            # overflows, the span guard below raises.
            x0, h = self._x0, self._h
            with np.errstate(over="ignore"):
                m = np.floor((xs - x0) / h)
            m -= x0 + m * h > xs
            m += x0 + (m + 1) * h <= xs
            up = m >= 0
            on = xs == x0 + m * h
            # cells each side needs: up to the cell of x, or up to the
            # abscissa x itself
            need = [side.tab.size - 1 for side in self._sides]
            ups = np.count_nonzero(up)  # faster than any() on small arrays
            if ups:
                need[0] = max(need[0], (m[up] + ~on[up]).max())
            if ups < xs.size:
                need[1] = max(need[1], (-m[~up]).max())
            if need[0] + need[1] > _MAX_SEGMENTS:
                raise ParameterError(
                    "query span requires more checkpoint segments than "
                    "allowed; use a larger checkpoint_spacing")
            out = np.empty(xs.size)
            for side, sel, n, k in zip(self._sides, (up, ~up), need,
                                       (ups, xs.size - ups)):
                if not k:
                    continue
                if n > side.tab.size - 1 and side.fail is None:
                    self._grow(side, int(n))
                out[sel] = side.read(xs[sel], m[sel], on[sel],
                                     lam if lam is None else lam[sel])
        return out

    def error_at(self, x: float) -> EvalError:
        """The typed error of F at a point x where it is not finite: that of
        the cell that failed between x0 and x, else an overflow of the
        running sum."""
        side = self._sides[0 if x >= self._x0 else 1]
        with self._lock:
            fail = side.fail
        if fail is None or side.sign * (x - fail[0]) < 0.0:
            return EvalOverflowError("antiderivative outside double range", x)
        _, inner, outer, node, est, err = fail
        return _failure(self._src, node, est, err,
                        (min(inner, outer), max(inner, outer)), outer)

    def value(self, x: float) -> float:
        return float(self.values(np.array([x], dtype=np.float64))[0])

    def __call__(self, x):
        if np.ndim(x) == 0:
            return self.value(float(x))
        return self.values(x)


def antiderivative(fn, x0: float,
                   cfg: QuadratureConfig | None = None) -> Antiderivative:
    """Anchored antiderivative of ``fn`` starting at ``x0``."""
    return Antiderivative(fn, x0, cfg)


class _Scaled(Antiderivative):
    """V(x) = exp(-max(z(x), 0)) * W(x) for W(x) = integral of weight(t)
    exp(z(t)) from x0 to x and z = s * F, F the antiderivative of ``rate``
    from x0, which _Scaled builds itself: V = exp(-z) W where z > 0, and
    V = W elsewhere. read() returns z, lam = max(z, 0) and V at a batch of
    points from one read of F.

    V is built on its own cells as _grow describes: every exponential it
    takes is bounded by how far z moves inside one cell, and its integrand
    weight(t) exp(z(t) - top) is no larger than the weight where z is
    monotone in the cell. So V needs no exp(z) in double range: where z < 0
    it is W, which grows at most like the integral of |weight|, and where
    z > 0 it is exp(-z) W, which the first-order closed forms scale y by.
    Where F fails, V fails with F's error.
    """

    def __init__(self, rate, weight, s, x0, cfg=None):
        self._F, self._s = Antiderivative(rate, x0, cfg), s
        super().__init__(weight, x0, cfg)

    def _exponents(self, xs):
        with np.errstate(over="ignore", invalid="ignore"):
            z = self._s * self._F.values(xs, masked=True)
        return z, np.maximum(z, 0.0)

    def _integrand(self, xs, top):
        z, _ = self._exponents(xs)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._masked(xs) * np.exp(z - np.repeat(top, _DEG + 1))

    def read(self, xs):
        """(z, lam, V) at the 1-D array of points xs; V is NaN where it
        fails, and error_at names why."""
        z, lam = self._exponents(xs)
        return z, lam, self._read(xs, lam)

    def error_at(self, x):
        z, _ = self._exponents(np.array([x]))
        if math.isnan(z[0]):
            return self._F.error_at(x)
        return super().error_at(x)
