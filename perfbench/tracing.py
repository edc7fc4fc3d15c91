"""Per-layer spans recorded from outside odeform.

``Tracer.install`` replaces the public functions of each layer with
wrappers that record a span (name, parent, op, start, end, points) while
tracing is on. Spans stay in memory and are written to one JSON-lines file
when the run ends. A span's self time is its duration minus the durations
of its child spans; "inclusive" figures count only the outermost span of a
name, so a stage that recurses is not counted twice.
"""

from __future__ import annotations

import json
import os
import weakref
from collections import Counter
from time import perf_counter_ns

# name, parent index, op index, start ns, end ns, points, outermost of name
NAME, PARENT, OP, START, END, POINTS, OUTER = range(7)
PANEL_POINTS = 15  # Gauss-Kronrod nodes per panel


class Tracer:
    def __init__(self, path: str):
        self.path = path
        self.spans: list[list] = []
        self.stack = [-1]
        self.active = Counter()   # open spans per name
        self.counts = Counter()   # counters not tied to one span
        self.enabled = False
        self.op = -1
        self.in_integrand = 0
        self.created = []         # Antiderivatives built by the current op
        self.route = weakref.WeakSet()

    # -- op boundaries ---------------------------------------------------
    def begin_op(self):
        self.op += 1
        self.created = []
        self.enabled = True

    def end_op(self):
        self.enabled = False
        self.counts["checkpoints"] += sum(len(ad.checkpoints())
                                          for ad in self.created)
        self.created = []

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> list:
        rec = [name, self.stack[-1], self.op, 0, 0, 0, self.active[name] == 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.active[name] += 1
        rec[START] = perf_counter_ns()
        return rec

    def _close(self, rec: list):
        rec[END] = perf_counter_ns()
        self.stack.pop()
        self.active[rec[NAME]] -= 1

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace owner.attr by a wrapper recording a span named name.

        before(rec, args) may return replacement args; after(rec, args,
        result) sees the result.
        """
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kw):
            if not tracer.enabled:
                return fn(*args, **kw)
            rec = tracer._open(name)
            try:
                if before is not None:
                    args = before(rec, args) or args
                result = fn(*args, **kw)
            finally:
                tracer._close(rec)
            if after is not None:
                after(rec, args, result)
            return result

        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every layer's public functions."""
        from odeform import cli, expr, quad, solvers, verify

        def tape(rec, args):
            rec[POINTS] = len(args[1])
            if self.active["verify.oracle"]:
                self.counts["oracle_tape_calls"] += 1

        def integrate(rec, args):
            inner = quad.as_array_fn(args[0])

            def integrand(xs):
                rec[POINTS] += xs.size
                self.in_integrand += 1
                try:
                    return inner(xs)
                finally:
                    self.in_integrand -= 1

            return (integrand,) + args[1:]

        def ad_values(rec, args):
            n = len(args[1])
            rec[POINTS] = n
            if self.in_integrand:
                self.counts["nested_points"] += n
            if self.active["solvers.validity"]:
                self.counts["validity_ad_calls"] += 1

        def oracle(rec, args, result):
            self.counts["oracle_steps_taken"] += result.steps_taken
            self.counts["oracle_steps_rejected"] += result.steps_rejected

        def route(rec, args, result):
            self.route.add(result)

        def cli_out(rec, args, result):
            if len(args) > 1 and hasattr(args[1], "getvalue"):
                self.counts["cli_out_bytes"] += len(
                    args[1].getvalue().encode("utf-8"))

        self.wrap(expr.Expression, "eval_many", "tape", before=tape)
        self.wrap(quad, "integrate_many", "quad.integrate", before=integrate)
        self.wrap(quad.Antiderivative, "values", "quad.ad_values",
                  before=ad_values)
        init = quad.Antiderivative.__init__

        def created(ad, *args, **kw):
            init(ad, *args, **kw)
            if self.enabled:
                self.created.append(ad)

        quad.Antiderivative.__init__ = created
        cfs = solvers.ClosedFormSolution
        for attr, name in (("ensure_validity", "solvers.validity"),
                           ("sample", "solvers.sample"),
                           ("values", "solvers.values")):
            self.wrap(cfs, attr, name)
            self._route_stage(cfs, attr)
        self.wrap(verify, "rk_reference", "verify.oracle", after=oracle)
        self.wrap(verify, "residual_check", "verify.residual")
        self.wrap(verify, "compare", "verify.compare")
        self.wrap(verify, "riccati_check", "verify.riccati")
        self.wrap(verify, "solve_bernoulli_via_linear", "verify.route",
                  after=route)
        self.wrap(cli, "full_verify", "verify.full")
        self.wrap(cli, "parse_expr", "expr.parse")
        self.wrap(cli, "run", "cli", after=cli_out)

    def _route_stage(self, cls, attr: str):
        """Count work on the second-route bernoulli solution as route time."""
        fn = getattr(cls, attr)
        tracer = self

        def wrapper(sol, *args, **kw):
            if not (tracer.enabled and sol in tracer.route
                    and not tracer.active["verify.route"]):
                return fn(sol, *args, **kw)
            rec = tracer._open("verify.route")
            try:
                return fn(sol, *args, **kw)
            finally:
                tracer._close(rec)

        setattr(cls, attr, wrapper)

    # -- results ---------------------------------------------------------
    def metrics(self, passes: int, ops: int) -> dict:
        """Per-layer figures: counts per pass, times in ms per op."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        calls, points, incl, own = Counter(), Counter(), Counter(), Counter()
        for s, c in zip(self.spans, child):
            name, dur = s[NAME], s[END] - s[START]
            calls[name] += 1
            points[name] += s[POINTS]
            own[name] += dur - c
            if s[OUTER]:
                incl[name] += dur

        def per_pass(v):
            return v / passes

        def ms(v):
            return v / ops / 1e6

        tape_ns = incl["tape"]
        integrand = points["quad.integrate"]
        cnt = self.counts
        return {
            "expr.parse.calls": per_pass(calls["expr.parse"]),
            "expr.parse.ms": ms(incl["expr.parse"]),
            "tape.calls": per_pass(calls["tape"]),
            "tape.points": per_pass(points["tape"]),
            "tape.ms": ms(tape_ns),
            "tape.ns_per_point": tape_ns / max(points["tape"], 1),
            "tape.us_per_call": tape_ns / max(calls["tape"], 1) / 1e3,
            "quad.integrate.calls": per_pass(calls["quad.integrate"]),
            "quad.integrate.ms": ms(own["quad.integrate"]),
            "quad.integrand_points": per_pass(integrand),
            "quad.panels": per_pass(integrand / PANEL_POINTS),
            "quad.ad_values.calls": per_pass(calls["quad.ad_values"]),
            "quad.ad_values.points": per_pass(points["quad.ad_values"]),
            "quad.ad_values.ms": ms(own["quad.ad_values"]),
            "quad.nested_points": per_pass(cnt["nested_points"]),
            "quad.checkpoints": per_pass(cnt["checkpoints"]),
            "solvers.validity.calls": per_pass(calls["solvers.validity"]),
            "solvers.validity.ms": ms(incl["solvers.validity"]),
            "solvers.validity.ad_calls": per_pass(cnt["validity_ad_calls"]),
            "solvers.sample.ms": ms(incl["solvers.sample"]),
            "solvers.values.ms": ms(incl["solvers.values"]),
            "verify.full.ms": ms(incl["verify.full"]),
            "verify.oracle.ms": ms(incl["verify.oracle"]),
            "verify.oracle.self_ms": ms(own["verify.oracle"]),
            "verify.oracle.steps_taken": per_pass(cnt["oracle_steps_taken"]),
            "verify.oracle.steps_rejected":
                per_pass(cnt["oracle_steps_rejected"]),
            "verify.oracle.tape_calls": per_pass(cnt["oracle_tape_calls"]),
            "verify.residual.ms": ms(incl["verify.residual"]),
            "verify.compare.ms": ms(incl["verify.compare"]),
            "verify.riccati.ms": ms(incl["verify.riccati"]),
            "verify.route.ms": ms(incl["verify.route"]),
            "cli.self_ms": ms(own["cli"]),
            "cli.out_bytes": per_pass(cnt["cli_out_bytes"]),
        }

    def dump(self):
        """Write every span as one JSON array per line."""
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "parent", "op",
                                            "start_ns", "end_ns", "points",
                                            "outermost"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
