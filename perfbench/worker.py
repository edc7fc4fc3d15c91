"""One workload in one single-threaded process.

    python3 perfbench/worker.py MODE WORKLOAD SEED AMOUNT SPAWNED

MODE is ``probe`` (set up, report the set-up time, exit), ``run`` (set up,
then time whole passes until AMOUNT seconds have passed) or ``trace`` (set
up, then run AMOUNT whole passes with every layer wrapped). SPAWNED is the
parent's ``time.monotonic()`` just before it started this process, so set-up
time counts interpreter start-up and imports. Reference data, when the
workload has any, arrives on stdin after set-up. The result is one JSON
line on stdout.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import sys
import time

import numpy as np

import cases
import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

# A run needs this many completed operations, so that ten lie beyond p90.
MIN_OPS = 100
OK, ERROR, WRONG = "ok", "error", "wrong"


def _rel_dev(y, ref):
    return float(np.max(np.abs(y - ref) / (1.0 + np.abs(ref))))


class Verify:
    """One op: ``odeform verify ... --format json`` in-process."""

    def __init__(self, seed: int):
        from odeform import cli
        self.cli = cli
        self.cases = cases.verify_cases(seed)

    def ops(self):
        return self.cases

    def op(self, case):
        out, err = io.StringIO(), io.StringIO()
        code = self.cli.run(case["argv"], out, err)
        return code, out.getvalue()

    def check(self, case, result) -> str:
        code, text = result
        if code == 2:
            return ERROR
        if code != 0:
            return WRONG
        doc = json.loads(text)
        report = doc["report"]
        if not report["pass"] or not report["checks"]:
            return WRONG
        for c in report["checks"]:
            if not (c["pass"] and c["max_deviation"] <= c["tolerance"]):
                return WRONG
        if "constant" in case:
            got, want = doc["constants"]["C"], case["constant"]
            if abs(got - want) > 1e-14 * max(1.0, abs(want)):
                return WRONG
        lo, hi = doc["validity"]["lo"], doc["validity"]["hi"]
        if lo is not None:
            return WRONG  # no instance has a boundary below x0
        if case["bound"] is None:
            return OK if hi is None else WRONG
        return OK if hi is not None and abs(hi - case["bound"]) <= 1e-8 \
            else WRONG


class _FirstOrder:
    """Cases of the first-order classes: coefficients parsed at set-up."""

    def __init__(self, listing):
        import odeform
        self.od = odeform
        self.cases = listing
        self.exprs = [(odeform.parse(c["f"]), odeform.parse(c["g"]))
                      for c in listing]

    def build(self, i):
        """Construct case i's solution with the default QuadratureConfig."""
        case, (f, g) = self.cases[i], self.exprs[i]
        ic = self.od.InitialCondition(case["x0"], case["y0"])
        if case["kind"] == "linear":
            return self.od.solve_linear_ivp(f, g, ic)
        if case["kind"] == "bernoulli":
            return self.od.solve_bernoulli(f, g, case["param"], ic)
        return self.od.solve_exp(f, g, case["param"], ic)


class _Referenced(_FirstOrder):
    """Checked against the scipy reference, read from stdin after set-up."""

    refs = None

    def load_reference(self, doc):
        self.refs = reference.load(doc)

    def matches(self, i, sol, xs, ys) -> bool:
        case = self.cases[i]
        if _rel_dev(ys, reference.interpolate(self.refs[i], xs)) > 1e-8:
            return False
        y0 = sol.value(case["x0"])
        return abs(y0 - case["y0"]) <= 1e-12 * max(1.0, abs(case["y0"]))


class Solve(_Referenced):
    """One op: a public constructor, then ``sample(lo, hi, 201)``."""

    def __init__(self, seed: int):
        super().__init__(cases.solve_cases(seed))

    def ops(self):
        return range(len(self.cases))

    def op(self, i):
        case = self.cases[i]
        sol = self.build(i)
        xs, ys = sol.sample(case["lo"], case["hi"], cases.SAMPLES)
        return sol, xs, ys

    def check(self, i, result) -> str:
        sol, xs, ys = result
        case = self.cases[i]
        grid = np.linspace(case["lo"], case["hi"], cases.SAMPLES)
        if not np.array_equal(xs, grid):
            return WRONG  # no boundary lies inside a solve range
        return OK if self.matches(i, sol, xs, ys) else WRONG


class Query(_Referenced):
    """Set-up builds the solutions and fills their checkpoint tables; one
    op is ``sol.values(xs)`` at 1000 fresh seeded points."""

    def __init__(self, seed: int):
        super().__init__(cases.query_cases(seed))
        self.sols = []
        for i, case in enumerate(self.cases):
            sol = self.build(i)
            sol.sample(case["lo"], case["hi"], cases.SAMPLES)
            self.sols.append(sol)
        self.rng = np.random.default_rng(seed)

    def ops(self):
        return [(i, self.rng.uniform(case["lo"], case["hi"],
                                     cases.QUERY_POINTS))
                for i, case in enumerate(self.cases)
                for _ in range(cases.QUERY_OPS_PER_CASE)]

    def op(self, arg):
        i, xs = arg
        return self.sols[i].values(xs)

    def check(self, arg, ys) -> str:
        i, xs = arg
        sol = self.sols[i]
        if not self.matches(i, sol, xs, ys):
            return WRONG
        # values are a pure function of x: a reversed subset reads the same
        sub = slice(cases.QUERY_REORDER - 1, None, -1)
        if sol.values(xs[sub]).tobytes() != ys[sub].tobytes():
            return WRONG
        return OK


class Boundary(_FirstOrder):
    """One op: construct a solution whose validity ends inside the window,
    ``sample`` the window, read ``validity``."""

    def __init__(self, seed: int):
        super().__init__(cases.boundary_cases(seed))

    def ops(self):
        return range(len(self.cases))

    def op(self, i):
        case = self.cases[i]
        sol = self.build(i)
        xs, ys = sol.sample(case["lo"], case["hi"], cases.SAMPLES)
        return sol.validity, xs, ys

    def check(self, i, result) -> str:
        v, xs, ys = result
        case = self.cases[i]
        found, other = (v.hi, v.lo) if case["upward"] else (v.lo, v.hi)
        if not (abs(found - case["bound"]) <= 1e-8 and math.isinf(other)):
            return WRONG
        # values near a blow-up are ill-conditioned; compare the points at
        # least 1% of the window away from it
        far = np.abs(xs - case["bound"]) >= 0.01 * (case["hi"] - case["lo"])
        ref = cases.analytic_value(case["family"], case["y0"], xs[far])
        return OK if _rel_dev(ys[far], ref) <= 1e-8 else WRONG


WORKLOADS = {"verify": Verify, "solve": Solve, "boundary": Boundary,
             "query": Query}


def run_pass(work, tracer=None):
    """Time one pass; returns [(seconds, outcome)] in op order."""
    out = []
    clock = time.perf_counter
    for arg in work.ops():
        if tracer is not None:
            tracer.begin_op()
        t0 = clock()
        try:
            result = work.op(arg)
        except Exception as e:  # an op that raises has failed
            result = e
        t1 = clock()
        if tracer is not None:
            tracer.end_op()
        if isinstance(result, Exception):
            outcome = ERROR
        else:
            outcome = work.check(arg, result)
        out.append((t1 - t0, outcome))
    return out


def summarize(records):
    done = [t for t, o in records if o == OK]
    failed = len(records) - len(done)
    lat = np.array(done) * 1e3 if done else np.array([math.nan])
    return {
        "attempted": len(records),
        "failed": failed,
        "correct": all(o != WRONG for _, o in records),
        "latency_p50_ms": float(np.percentile(lat, 50)),
        "latency_p90_ms": float(np.percentile(lat, 90)),
        "throughput_ops_s": len(done) / sum(t for t, _ in records),
    }


def main(argv) -> int:
    mode, name, seed, amount, spawned = argv
    seed, amount, spawned = int(seed), float(amount), float(spawned)
    sys.path.insert(0, SRC)
    tracer = None
    if mode == "trace":
        # installed before set-up so that expressions bound at set-up, such
        # as those of the query solutions, go through the wrappers too
        import tracing
        tracer = tracing.Tracer(os.path.join(OUT, f"trace-{name}-{seed}.jsonl"))
        tracer.install()
    work = WORKLOADS[name](seed)
    import odeform
    if not odeform.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"odeform imported from {odeform.__file__}, "
                         f"not from {SRC}")
    setup_s = time.monotonic() - spawned
    if mode == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if isinstance(work, _Referenced):
        work.load_reference(json.load(sys.stdin))

    records = []
    passes = 0
    start = time.monotonic()
    while True:
        records += run_pass(work, tracer)
        passes += 1
        if mode == "trace":
            if passes >= amount:
                break
        elif (time.monotonic() - start >= amount
              and sum(o == OK for _, o in records) >= MIN_OPS):
            break

    result = summarize(records)
    result["passes"] = passes
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.metrics(passes, len(records))
        tracer.dump()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
