"""Definite integrals and anchored antiderivatives.

All integration uses the 15-point Kronrod rule with the embedded 7-point
Gauss rule for error estimation, refined by adaptive bisection. The engine
is batch-oriented: integrate_many() advances every pending panel of every
requested interval in one integrand call per refinement generation, so
nested constructions (an antiderivative whose integrand queries another
antiderivative) stay close to linear cost. Each panel's rule sums are
formed row by row, so an interval's result is the same bit for bit in any
batch. Tolerances come from a QuadratureConfig only.

Antiderivative realizes F(x) = integral of phi from x0 to x with F(x0) = 0
exactly. It keeps one signed table of checkpoint values at the abscissae
x0 + k*h on both sides of x0, each checkpoint segment running between two
of those abscissae as computed, and adds an adaptive tail from the
nearest checkpoint below x. So the value at x is a pure function of x:
query order, query history and batching cannot change results, and the
segments and tails meet exactly however large |x0| is. The table grows
under an internal lock; concurrent queries from multiple threads are safe.

Integrands only need to be Riemann integrable on bounded intervals; strict
accuracy claims hold for piecewise-smooth ones. Panels that shrink to the
floating-point limit are accepted as is.

Failure is per interval, as QUADPACK reports it with a per-integral flag
(Piessens et al., *QUADPACK*, Springer 1983). Integrands mark a node they
cannot evaluate with a non-finite value (an Expression does so through
its tape statuses). An interval fails as soon as one of its nodes is not
finite, and such a panel is never split; it also fails if it misses
tolerance after _MAX_DEPTH (50) bisections, a fixed cap, or once it holds
more than _PANEL_BUDGET panels at one depth. So an interval's result never
depends on the other intervals of its batch. The masked forms
(``masked=True``) return NaN for a failed interval, and an antiderivative
is NaN past any failed checkpoint segment. The plain forms raise from the
first failed point: the integrand's own typed error at the failing node,
an EvalError for a node where a plain callable returned a non-finite
value, or a ConvergenceError carrying the last estimate. An antiderivative
finds that error by running the one integral that failed again through
integrate_many.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConvergenceError, EvalDomainError, EvalError,
                     EvalOverflowError, ParameterError)
from .expr import Expression
from ._backend import EXP_MAX

__all__ = [
    "QuadratureConfig",
    "integrate",
    "integrate_many",
    "Antiderivative",
    "antiderivative",
    "weighted_cumulative",
    "as_array_fn",
]

# 15-point Kronrod abscissae (positive half, descending) and weights, with
# the embedded 7-point Gauss weights. Values carry more digits than double
# precision keeps.
_XGK_HALF = np.array([
    0.9914553711208126392068546975263285,
    0.9491079123427585245261896840478513,
    0.8648644233597690727897127886409262,
    0.7415311855993944398638647732807884,
    0.5860872354676911302941448382587296,
    0.4058451513773971669066064120769615,
    0.2077849550078984676006894037732449,
    0.0,
])
_WGK_HALF = np.array([
    0.0229353220105292249637320080589695,
    0.0630920926299785532907006631892042,
    0.1047900103222501838398763225415180,
    0.1406532597155259187451895905102379,
    0.1690047266392679028265834265985503,
    0.1903505780647854099132564024210137,
    0.2044329400752988924141619992346491,
    0.2094821410847278280129991748917143,
])
_WG_HALF = np.array([
    0.1294849661688696932706114326790820,
    0.2797053914892766679014677714237796,
    0.3818300505051189449503697754889751,
    0.4179591836734693877551020408163265,
])

_NODES = np.empty(15)
_WK = np.empty(15)
_WG15 = np.zeros(15)
for _j in range(7):
    _NODES[_j] = -_XGK_HALF[_j]
    _NODES[14 - _j] = _XGK_HALF[_j]
    _WK[_j] = _WK[14 - _j] = _WGK_HALF[_j]
_NODES[7] = 0.0
_WK[7] = _WGK_HALF[7]
# Gauss nodes sit at every other Kronrod node: indices 1, 3, 5, 7, 9, 11, 13.
for _j, _w in zip((1, 3, 5), _WG_HALF[:3]):
    _WG15[_j] = _WG15[14 - _j] = _w
_WG15[7] = _WG_HALF[3]

_EPS = np.finfo(np.float64).eps
_DEFAULT_SPACING = 1.0 / 128.0
_MAX_SEGMENTS = 1 << 21  # guard against runaway checkpoint tables
_PANEL_BUDGET = 10_000   # per-interval cap on the panels it holds at a depth
_MAX_DEPTH = 50          # bisections before an interval stops splitting
_SEGMENT_TOL = 1.0 / 256.0  # checkpoint segments' share of abs_tol
_TAIL_TOL = 0.25            # the tail's share of abs_tol


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and checkpoint spacing shared by the integration routines.

    checkpoint_spacing of None means the default spacing (1/128, i.e. the
    working-range heuristic span/256 for a span of 2); the CLI passes
    (hi - lo)/256 explicitly. The depth cap is the module constant
    _MAX_DEPTH, not a setting.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    checkpoint_spacing: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise ParameterError("abs_tol must be a positive finite number")
        if not (np.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ParameterError("rel_tol must be a positive finite number")
        if self.checkpoint_spacing is not None:
            if not (np.isfinite(self.checkpoint_spacing)
                    and self.checkpoint_spacing > 0):
                raise ParameterError(
                    "checkpoint_spacing must be positive when given")


_DEFAULT_CFG = QuadratureConfig()


def _share(cfg: QuadratureConfig, frac: float) -> QuadratureConfig:
    """cfg with abs_tol cut to frac of it; a subnormal abs_tol that the cut
    takes to 0 becomes the smallest positive double instead."""
    return replace(cfg, abs_tol=max(frac * cfg.abs_tol, 5e-324))


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


def _gk_panels(fn, pa, pb):
    """Apply the Kronrod rule on every [pa[i], pb[i]]; returns (val, err,
    saturated, lost). ``lost`` is None when every panel is fine, else per
    panel NaN for a fine one, the first node where fn is not finite, or
    inf for a panel whose estimate left double range."""
    half = 0.5 * (pb - pa)
    mid = 0.5 * pa + 0.5 * pb
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    # Sums that leave double range are caught below, not warned about. The
    # rule sums are einsum row by row, never BLAS mat-vecs, whose rounding
    # depends on the shape of the whole batch.
    with np.errstate(over="ignore", invalid="ignore"):
        # Every Kronrod weight is positive, so a non-finite node makes its
        # panel's sum non-finite; only such panels are searched for it.
        resk_u = np.einsum("ij,j->i", vals, _WK)
        lost = None
        if not math.isfinite(resk_u.sum()):
            bad = ~np.isfinite(resk_u)
            lost = np.where(bad, np.inf, np.nan)
            rows = np.flatnonzero(bad)
            nonfinite = ~np.isfinite(vals[rows])
            has = nonfinite.any(axis=1)
            lost[rows[has]] = pts[rows[has], np.argmax(nonfinite[has], 1)]
            vals = np.where(bad[:, None], 0.0, vals)
            resk_u = np.einsum("ij,j->i", vals, _WK)
        resg_u = np.einsum("ij,j->i", vals, _WG15)
        resabs = np.einsum("ij,j->i", np.abs(vals), _WK) * np.abs(half)
        dev = np.abs(vals - 0.5 * resk_u[:, None])
        resasc = np.einsum("ij,j->i", dev, _WK) * np.abs(half)
        err = np.abs(resk_u - resg_u) * np.abs(half)
        # Standard inflation of the raw |K - G| difference, which by itself
        # can be an optimistic estimate on panels the rule only just
        # resolves.
        mask = (resasc > 0.0) & (err > 0.0)
        scaled = np.minimum(1.0, (200.0 * err[mask] / resasc[mask]) ** 1.5)
        err[mask] = resasc[mask] * scaled
        # Round-off floor: once the estimate is dominated by
        # 50*eps*int(|f|), subdividing cannot improve it, so such panels
        # are reported saturated and the driver stops splitting them.
        floor = 50.0 * _EPS * resabs
        saturated = err <= floor
        err = np.maximum(err, floor)
        if not math.isfinite(err.sum()):
            if lost is None:
                lost = np.full(pa.shape, np.nan)
            lost[np.isnan(lost) & ~np.isfinite(err)] = np.inf
        return resk_u * half, err, saturated, lost


def _integrate(fn, a, b, cfg):
    """Masked core of integrate_many; ``fn`` returns non-finite values at
    the nodes it cannot evaluate. Returns per interval (estimate, error
    estimate, node, failed): node is the first node where fn was not
    finite (NaN if none), or None when no interval had such a node or an
    overflow. A failed interval's estimate is junk, or infinite where the
    interval was dropped for a node or an overflow.
    """
    n = a.size
    sign = np.where(b >= a, 1.0, -1.0)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    width = hi - lo

    total = np.zeros(n)
    etotal = np.zeros(n)
    node = None
    iv = np.nonzero(width > 0.0)[0]
    pa = lo[iv]
    pb = hi[iv]

    depth = 0
    while iv.size:
        val, err, saturated, lost = _gk_panels(fn, pa, pb)
        if lost is not None and not np.isnan(lost).all():
            # Panels of one interval are contiguous and in order, so the
            # first lost panel of each interval is its leftmost one.
            hit = ~np.isnan(lost)
            ivs, first = np.unique(iv[hit], return_index=True)
            if node is None:
                node = np.full(n, np.nan)
            node[ivs] = lost[hit][first]
            total[ivs] = np.inf
            gone = np.zeros(n, bool)
            gone[ivs] = True
            live = ~gone[iv]
            iv, pa, pb = iv[live], pa[live], pb[live]
            val, err, saturated = val[live], err[live], saturated[live]
        est = total + np.bincount(iv, weights=val, minlength=n)
        tol_iv = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(est))[iv]
        share = tol_iv * ((pb - pa) / width[iv])
        tiny = (pb - pa) <= 100.0 * _EPS * np.maximum(
            1.0, np.maximum(np.abs(pa), np.abs(pb)))
        done = (err <= share) | tiny | saturated
        if depth >= _MAX_DEPTH:
            done[:] = True
        elif iv.size > _PANEL_BUDGET and 2 ** depth > _PANEL_BUDGET:
            # Only from here on can one interval hold more panels than the
            # budget; those that do stop splitting.
            done |= np.bincount(iv, minlength=n)[iv] > _PANEL_BUDGET
        if done.any():
            d = np.nonzero(done)[0]
            total += np.bincount(iv[d], weights=val[d], minlength=n)
            etotal += np.bincount(iv[d], weights=err[d], minlength=n)
        keep = ~done
        if not keep.any():
            break
        iv = np.repeat(iv[keep], 2)
        mids = 0.5 * pa[keep] + 0.5 * pb[keep]
        pa = np.stack([pa[keep], mids], axis=1).ravel()
        pb = np.stack([mids, pb[keep]], axis=1).ravel()
        depth += 1

    tol_final = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
    failed = (etotal > tol_final) | ~np.isfinite(total)
    if node is not None:
        node[np.isinf(node)] = np.nan  # lost to an overflow, not to a node
    return sign * total, etotal, node, failed


def _node_error(fn, t: float) -> EvalError:
    """The typed error for an integrand node t where fn is not finite."""
    if isinstance(fn, (Expression, _Weighted)):
        err = fn._error_at(t)
        if err is not None:
            return err
    v = float(as_array_fn(fn, masked=True)(np.array([t]))[0])
    kind = EvalOverflowError if math.isinf(v) else EvalDomainError
    return kind(f"integrand returned {v!r}", t)


def integrate_many(fn, a, b, cfg: QuadratureConfig | None = None, *,
                   masked: bool = False) -> np.ndarray:
    """Integrate ``fn`` over each interval [a[i], b[i]] adaptively, to the
    tolerances of ``cfg`` (the defaults when None).

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
    masked_fn = as_array_fn(fn, masked=True)
    est, err, node, failed = _integrate(masked_fn, a, b, cfg)
    if not failed.any():
        return est
    if masked:
        est[failed] = np.nan
        return est
    i = int(np.argmax(failed))
    if node is not None and not math.isnan(node[i]):
        raise _node_error(fn, float(node[i]))
    if not math.isfinite(est[i]):
        raise EvalOverflowError("integral outside double range", float(b[i]))
    raise ConvergenceError(
        f"quadrature did not converge within max_depth={_MAX_DEPTH}",
        estimate=float(est[i]), error_estimate=float(err[i]),
        interval=(float(a[i]), float(b[i])))


def integrate(fn, a: float, b: float,
              cfg: QuadratureConfig | None = None) -> float:
    """Definite integral of ``fn`` over [a, b] to the configured tolerance."""
    return float(integrate_many(fn, np.array([a]), np.array([b]), cfg)[0])


class Antiderivative:
    """F(x) = integral of phi from x0 to x, with F(x0) = 0.0 exactly.

    One signed table holds F at x0 + k*spacing for k = kmin .. kmax, the
    range the queries have touched so far; it grows outward from x0 on
    either side, one checkpoint segment per spacing. Each query is the
    nearest checkpoint at or below x plus an adaptive tail shorter than one
    spacing. Checkpoint segments run at a small fraction of the configured
    abs_tol so chains of them do not erode the overall budget.

    A failed checkpoint segment makes its checkpoint NaN, and so every
    checkpoint beyond it: F is undefined past the first point where it
    fails, and ``values`` raises or, with ``masked``, reads NaN there.

    ``eval_count`` counts integrand evaluations, which makes cost claims
    testable: covering a fresh span costs one pass of checkpoint segments
    plus one bounded tail per query point.
    """

    def __init__(self, fn, x0: float, cfg: QuadratureConfig | None = None):
        self._src = fn
        masked = as_array_fn(fn, masked=True)
        cfg = cfg or _DEFAULT_CFG
        self._h = cfg.checkpoint_spacing or _DEFAULT_SPACING
        self._seg_cfg = _share(cfg, _SEGMENT_TOL)
        self._tail_cfg = _share(cfg, _TAIL_TOL)
        if not np.isfinite(x0):
            raise ParameterError("anchor x0 must be finite")
        self._x0 = float(x0)
        self._tab = np.zeros(1)  # F at x0 + k*h, k = _kmin .. _kmin+len-1
        self._kmin = 0
        self._lock = threading.RLock()
        self.eval_count = 0

        def counted(xs: np.ndarray) -> np.ndarray:
            self.eval_count += xs.size
            return masked(xs)

        self._fn = counted

    @property
    def x0(self) -> float:
        return self._x0

    @property
    def spacing(self) -> float:
        return self._h

    def checkpoints(self) -> list[tuple[float, float]]:
        """Materialized (x, F(x)) pairs, strictly increasing in x."""
        with self._lock:
            ks = np.arange(self._kmin, self._kmin + self._tab.size)
            tab = self._tab
        return list(zip((self._x0 + ks * self._h).tolist(), tab.tolist()))

    def _grow(self, k_from: int, k_to: int):
        """Extend the table from its end k_from out to k_to, one segment
        per step away from x0 (requires self._lock held)."""
        step = 1 if k_to > k_from else -1
        ends = self._x0 + np.arange(k_from, k_to + step, step) * self._h
        segs = integrate_many(self._fn, ends[:-1], ends[1:], self._seg_cfg,
                              masked=True)
        first = self._tab[k_from - self._kmin]
        acc = np.add.accumulate(np.concatenate(([first], segs)))[1:]
        if step > 0:
            self._tab = np.concatenate((self._tab, acc))
        else:
            self._tab = np.concatenate((acc[::-1], self._tab))
            self._kmin = k_to

    def values(self, xs, *, masked: bool = False) -> np.ndarray:
        """F at a 1-D array of points, any order.

        Raises the typed error of the first point where F fails; with
        ``masked`` such points read NaN instead.
        """
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        if xs.ndim != 1:
            raise ValueError("expected a 1-D array of points")
        if xs.size == 0:
            return np.empty(0)
        if not np.all(np.isfinite(xs)):
            raise ValueError("query points must be finite")
        with self._lock:
            ks_f = np.floor((xs - self._x0) / self._h)
            kmin = self._kmin
            kmax = kmin + self._tab.size - 1
            if (max(ks_f.max(), kmax) - min(ks_f.min(), kmin)
                    > _MAX_SEGMENTS):
                raise ParameterError(
                    "query span requires more checkpoint segments than "
                    "allowed; use a larger checkpoint_spacing")
            ks = ks_f.astype(np.int64)
            if ks.max() > kmax:
                self._grow(kmax, int(ks.max()))
            if ks.min() < kmin:
                self._grow(kmin, int(ks.min()))
            out = self._tab[ks - self._kmin]
            ck = self._x0 + ks * self._h
            dead = np.isnan(out)
            if dead.any():
                ck[dead] = xs[dead]  # F is NaN there: no tail to integrate
            out += integrate_many(self._fn, ck, xs, self._tail_cfg,
                                  masked=True)
        if not masked:
            bad = np.isnan(out)
            if bad.any():
                raise self._error_at(float(xs[int(np.argmax(bad))]))
        return out

    def _error_at(self, x: float) -> EvalError:
        """The typed error of F at a point x where it is NaN: the integral
        that failed on the way to x is run again on its own."""
        h = self._h
        k = int(np.floor((x - self._x0) / h))
        step = 1 if k >= 0 else -1
        ks = np.arange(0, k + step, step)  # x0 outward to x's checkpoint
        with self._lock:
            lost = np.isnan(self._tab[ks - self._kmin])
        if lost.any():
            # The segment that made the first NaN checkpoint, with the
            # bounds _grow gave it, in order.
            j = int(ks[np.argmax(lost) - 1])
            a, b = sorted((self._x0 + j * h, self._x0 + (j + step) * h))
            cfg = self._seg_cfg
        else:
            a, b = self._x0 + k * h, x
            cfg = self._tail_cfg
        try:
            integrate_many(self._src, a, b, cfg)
        except (EvalError, ConvergenceError) as e:
            return e
        return EvalDomainError("antiderivative is not finite", x)

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


class _Weighted:
    """The integrand t -> g(t) * exp(scale * F(t)) of weighted_cumulative.

    Calls are masked: a node where g or F fails, or where the exponential
    or the product leaves double range, reads NaN or inf. ``_error_at``
    names which of these happened at a node.
    """

    def __init__(self, g, F: Antiderivative, scale: float):
        self._g = g
        self._gm = as_array_fn(g, masked=True)
        self._F = F
        self._scale = scale

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        z = self._scale * self._F.values(ts, masked=True)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._gm(ts) * np.exp(z)

    def _error_at(self, t: float) -> EvalError | None:
        ts = np.array([t])
        z = self._scale * float(self._F.values(ts, masked=True)[0])
        if math.isnan(z):
            return self._F._error_at(t)
        if z > EXP_MAX:
            return EvalOverflowError(
                "exp(scale * F) overflows inside the weighted integrand", t)
        if not math.isfinite(self._gm(ts)[0]):
            return _node_error(self._g, t)
        if not math.isfinite(self(ts)[0]):
            return EvalOverflowError(
                "g * exp(scale * F) overflows inside the weighted integrand",
                t)
        return None


def weighted_cumulative(g, F: Antiderivative, scale: float,
                        cfg: QuadratureConfig | None = None) -> Antiderivative:
    """Antiderivative of t -> g(t) * exp(scale * F(t)), anchored where F is.

    A node where the exponential or the product leaves double range fails
    its interval; the raising forms name that node in an EvalOverflowError.
    """
    if not isinstance(F, Antiderivative):
        raise ParameterError("F must be an Antiderivative")
    return Antiderivative(_Weighted(g, F, float(scale)), F.x0, cfg)
