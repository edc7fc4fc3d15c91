"""Command-line interface.

Three subcommands sharing one equation grammar::

    odeform solve  --class linear --f "1" --g "0" --x0 0 --y0 1 --range 0:1
    odeform verify --class bernoulli --f "1" --g "1" --alpha 2 \\
                   --x0 0 --y0 0.5 --range 0:1 --format json
    odeform oracle --class second-order --b 0 --c 1 --x0 0 --y0 0 --yp0 1 \\
                   --range 0:3.1415926 --samples 2

solve emits a sample table of the closed form over range intersected with
validity, verify emits the verification report (exit status 3 when any
check fails), oracle emits the Runge-Kutta reference trajectory.

Output is CSV (default) or JSON via --format, written to stdout or --out.
Documents are built fully before a byte is written, numbers use repr-exact
formatting, and identical invocations produce identical bytes. Exit status:
0 success, 1 usage error, 2 domain or convergence failure, 3 verification
failure. Diagnostics are a single line on stderr.

For ranges starting with a negative number use the equals form,
``--range=-1:1``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from .errors import ExprSyntaxError, OdeformError
from .expr import parse as parse_expr
from .quad import QuadratureConfig
from .solvers import EquationClass, EquationSpec, InitialCondition, construct
from .verify import full_verify, rk_reference

__all__ = ["main", "run"]


class UsageError(OdeformError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Take "-2e-05" after a space as a negative number, not an option;
        # stock argparse only knows "-2" and "-0.5".
        self._negative_number_matcher = re.compile(
            r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")

    # argparse exits with status 2 on bad usage; route through UsageError so
    # run() can keep 2 reserved for domain/convergence failures.
    def error(self, message):
        raise UsageError(message)


def _parse_range(text: str) -> tuple[float, float]:
    lo_s, sep, hi_s = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"range must look like lo:hi, got {text!r}")
    try:
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range bounds must be numbers, got {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError("range bounds must be finite")
    if not lo < hi:
        raise argparse.ArgumentTypeError("range needs lo < hi")
    if not math.isfinite(hi - lo):
        raise argparse.ArgumentTypeError("range width hi - lo must be finite")
    return lo, hi


def _add_equation_args(p: _ArgumentParser):
    p.add_argument("--class", dest="klass", required=True,
                   choices=[k.value for k in EquationClass],
                   help="equation class")
    p.add_argument("--f", help="coefficient function f(x)")
    p.add_argument("--g", help="coefficient function g(x)")
    p.add_argument("--alpha", type=float, help="bernoulli exponent")
    p.add_argument("--beta", type=float, help="exponential-class rate")
    p.add_argument("--b", type=float, help="second-order y' coefficient")
    p.add_argument("--c", type=float, help="second-order y coefficient")
    p.add_argument("--x0", type=float, required=True, help="initial x")
    p.add_argument("--y0", type=float, required=True, help="initial y")
    p.add_argument("--yp0", type=float, help="initial y' (second order)")
    p.add_argument("--range", dest="xrange", type=_parse_range,
                   required=True, metavar="LO:HI",
                   help="working range (use --range=-1:1 for negatives)")
    p.add_argument("--samples", type=int, default=201,
                   help="sample/grid point count (default 201)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write the document here instead of stdout")
    p.add_argument("--abs-tol", type=float, default=1e-10,
                   help="quadrature absolute tolerance")
    p.add_argument("--rel-tol", type=float, default=1e-10,
                   help="quadrature relative tolerance")


# parse_args leaves the parser as it was, so one serves every call.
@functools.cache
def _build_parser() -> _ArgumentParser:
    root = _ArgumentParser(
        prog="odeform",
        description="closed-form ODE solutions with numerical verification")
    sub = root.add_subparsers(dest="command", required=True)
    solve, verify, oracle = (
        sub.add_parser(name, help=text) for name, text in (
            ("solve", "emit closed-form samples"),
            ("verify", "emit a verification report"),
            ("oracle", "emit the Runge-Kutta reference")))
    for p in (solve, verify, oracle):
        _add_equation_args(p)
    verify.add_argument("--check-tol", type=float, default=1e-6,
                        help="oracle/residual tolerance (default 1e-6)")
    for p in (verify, oracle):
        p.add_argument("--oracle-tol", type=float, default=1e-9,
                       help="Runge-Kutta step tolerance (default 1e-9)")
    verify.add_argument("--perturb", type=float, default=0.0,
                        help="offset the solution by this amount first "
                             "(defect-sensitivity diagnostic)")
    return root


# Every sample is a closed-form value and a row of output; past this a
# grid would only exhaust memory or run for minutes.
_MAX_SAMPLES = 10**6
_CLASS_FLAGS = ("f", "g", "alpha", "beta", "b", "c", "yp0")
_CLASS_NEEDS = {
    "linear": ("f", "g"),
    "bernoulli": ("f", "g", "alpha"),
    "exp": ("f", "g", "beta"),
    "second-order": ("b", "c", "yp0"),
}


def _make_spec(ns) -> tuple[EquationSpec, InitialCondition]:
    needs = _CLASS_NEEDS[ns.klass]
    for name in needs:
        if getattr(ns, name) is None:
            raise UsageError(f"--class {ns.klass} requires --{name}")
    for name in _CLASS_FLAGS:
        if name not in needs and getattr(ns, name) is not None:
            raise UsageError(f"--{name} does not apply to --class {ns.klass}")
    lo, hi = ns.xrange
    if not (lo <= ns.x0 <= hi):
        raise UsageError("--x0 must lie inside --range")
    if not 2 <= ns.samples <= _MAX_SAMPLES:
        raise UsageError(
            f"--samples must be from 2 to {_MAX_SAMPLES}, got {ns.samples}")
    for name in ("abs_tol", "rel_tol", "check_tol", "oracle_tol"):
        v = getattr(ns, name, None)
        if v is not None and not (math.isfinite(v) and 0.0 < v < 1.0):
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must be finite and in (0, 1), got {v!r}")
    perturb = getattr(ns, "perturb", 0.0)
    if not math.isfinite(perturb):
        raise UsageError(f"--perturb must be finite, got {perturb!r}")

    f = None if ns.f is None else parse_expr(ns.f)
    g = None if ns.g is None else parse_expr(ns.g)
    spec = EquationSpec(EquationClass(ns.klass), f=f, g=g, alpha=ns.alpha,
                        beta=ns.beta, b=ns.b, c=ns.c)
    return spec, InitialCondition(ns.x0, ns.y0, ns.yp0)


def _make_cfg(ns) -> QuadratureConfig:
    lo, hi = ns.xrange
    return QuadratureConfig(abs_tol=ns.abs_tol, rel_tol=ns.rel_tol,
                            checkpoint_spacing=(hi - lo) / 256.0)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _parameters(ns) -> dict:
    given = vars(ns)
    return {"class": ns.klass,
            **{name: given[name] for name in (
                "f", "g", "alpha", "beta", "b", "c", "x0", "y0", "yp0")
               if given[name] is not None},
            "range": list(ns.xrange), "samples": ns.samples}


def _head(ns, constants: dict, validity, provenance: str):
    """The closed-form head of a solve or verify document: its CSV
    metadata lines, or its JSON document's leading keys."""
    if ns.format == "csv":
        consts = ",".join(f"{k}={_fmt(v)}" for k, v in constants.items())
        return [
            f"# class: {ns.klass}",
            f"# constants: {consts}",
            f"# validity: {_fmt(validity[0])}:{_fmt(validity[1])}",
            f"# provenance: {provenance}",
        ]
    return {
        "class": ns.klass,
        "parameters": _parameters(ns),
        "constants": constants,
        "validity": {k: None if math.isinf(v) else v
                     for k, v in zip(("lo", "hi"), validity)},
        "provenance": provenance,
    }


def _render(doc, samples=None) -> str:
    """A document as text: ``doc`` is its CSV lines or its JSON dict, and
    ``samples`` an (xs, ys) table ending it, if any."""
    csv = isinstance(doc, list)
    if samples is not None:
        rows = zip(*samples)
        if csv:
            doc.append("x,y")
            doc.extend(f"{_fmt(x)},{_fmt(y)}" for x, y in rows)
        else:
            doc["samples"] = [{"x": float(x), "y": float(y)} for x, y in rows]
    return "\n".join(doc) + "\n" if csv else json.dumps(doc, indent=2) + "\n"


def _document_verify(ns, report) -> str:
    doc = _head(ns, report.constants, report.validity, report.provenance)
    if ns.format == "csv":
        doc.append(f"# overall: {'pass' if report.passed else 'fail'}")
        if report.note:
            doc.append(f"# note: {report.note}")
        doc.append("name,max_deviation,tolerance,pass")
        doc.extend(
            f"{c.name},{_fmt(c.max_deviation)},{_fmt(c.tolerance)},"
            f"{'true' if c.passed else 'false'}" for c in report.checks)
    else:
        doc["report"] = report.to_dict()
        if report.note:
            doc["note"] = report.note
    return _render(doc)


def _document_oracle(ns, oracle) -> str:
    lo, hi = ns.xrange
    if ns.format == "csv":
        doc = [
            f"# class: {ns.klass}",
            f"# method: {oracle.method}",
            f"# steps: taken={oracle.steps_taken} "
            f"rejected={oracle.steps_rejected}",
        ]
        if oracle.truncated:
            doc.append(f"# truncated_at: {_fmt(oracle.truncated_at)}")
    else:
        doc = {
            "class": ns.klass,
            "parameters": _parameters(ns),
            "method": oracle.method,
            "steps": {"taken": oracle.steps_taken,
                      "rejected": oracle.steps_rejected},
            "truncated_at": oracle.truncated_at,
            "validity": {"lo": lo, "hi": hi},
        }
    return _render(doc, (oracle.grid, oracle.values))


def _execute(ns) -> tuple[str, int]:
    spec, ic = _make_spec(ns)
    lo, hi = ns.xrange
    if ns.command == "oracle":
        oracle = rk_reference(spec, ic, (lo, hi), ns.oracle_tol, ns.samples)
        return _document_oracle(ns, oracle), 0
    cfg = _make_cfg(ns)
    if ns.command == "solve":
        sol = construct(spec, ic, cfg)
        samples = sol.sample(lo, hi, ns.samples)
        v = sol.validity
        return _render(_head(ns, sol.constants, (v.lo, v.hi),
                             sol.provenance), samples), 0
    report = full_verify(spec, ic, (lo, hi), cfg, grid_size=ns.samples,
                         oracle_tol=ns.oracle_tol,
                         check_tol=ns.check_tol, perturb=ns.perturb)
    return _document_verify(ns, report), 0 if report.passed else 3


def run(argv, out=None, err=None) -> int:
    """Parse argv, execute, and write the document; returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        ns = _build_parser().parse_args(argv)
        # Every layer turns non-finite values into typed failures, so
        # numpy's floating-point warnings would only repeat them on stderr.
        with np.errstate(all="ignore"):
            text, code = _execute(ns)
    except (UsageError, ExprSyntaxError) as e:
        print(f"error: {e}", file=err)
        return 1
    except OdeformError as e:
        print(f"error: {str(e).splitlines()[0]}", file=err)
        return 2
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: {e}", file=err)
            return 1
    else:
        out.write(text)
    return code


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
