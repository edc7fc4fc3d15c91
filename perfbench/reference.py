"""Reference solutions for the ``solve`` and ``query`` cases, made with scipy.

Each case's initial-value problem is integrated from x0 to both ends of its
range with ``scipy.integrate.solve_ivp`` (DOP853, rtol = atol = 1e-13), from
the coefficient text evaluated by Python itself, not by odeform. DOP853's
dense output is a degree-7 polynomial on each step, so it is shipped as its
values at 8 Chebyshev points per step; ``interpolate`` rebuilds it exactly
with numpy alone, which keeps scipy out of the timed process.

Run on its own to print the reference document for one seed::

    python3 perfbench/reference.py --workload solve --seed 1 > ref.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

import cases

RTOL = ATOL = 1e-13
DEGREE = 7  # DOP853 dense output is a polynomial of this degree per step
_NODES = np.cos(np.pi * np.arange(DEGREE + 1) / DEGREE)  # on [-1, 1]
_WEIGHTS = np.array([(-1.0) ** j for j in range(DEGREE + 1)])
_WEIGHTS[0] *= 0.5
_WEIGHTS[-1] *= 0.5

_MATH = {name: getattr(math, name)
         for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "atan")}
_MATH["abs"] = abs


def _coefficient(text: str):
    code = compile(text.replace("^", "**"), text, "eval")
    env = {"__builtins__": {}, **_MATH}

    def fn(x: float) -> float:
        return eval(code, env, {"x": x})

    return fn


def _rhs(case: dict):
    f, g, p = _coefficient(case["f"]), _coefficient(case["g"]), case["param"]
    if case["kind"] == "linear":
        return lambda x, y: [g(x) - f(x) * y[0]]
    if case["kind"] == "bernoulli":
        # every bernoulli case keeps y > 0, so y ** alpha is real
        return lambda x, y: [g(x) * y[0] ** p - f(x) * y[0]]
    return lambda x, y: [g(x) - f(x) * math.exp(p * y[0])]


def reference(case: dict) -> dict:
    """Step breaks and Chebyshev values of the DOP853 solution of a case."""
    # imported here: the timed worker imports this module for interpolate()
    from scipy.integrate import solve_ivp

    rhs = _rhs(case)
    pieces = []
    for end in (case["lo"], case["hi"]):
        if end == case["x0"]:
            continue
        sol = solve_ivp(rhs, (case["x0"], end), [case["y0"]],
                        method="DOP853", rtol=RTOL, atol=ATOL,
                        dense_output=True)
        if not sol.success:
            raise RuntimeError(f"reference failed on {case['why']!r}: "
                               f"{sol.message}")
        t = sol.t if end > case["x0"] else sol.t[::-1]
        a, b = t[:-1], t[1:]
        nodes = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _NODES
        nodes[:, 0], nodes[:, -1] = b, a
        vals = sol.sol(nodes.ravel())[0].reshape(nodes.shape)
        pieces.append((a, b, vals))
    pieces.sort(key=lambda piece: piece[0][0])
    return {"lo": np.concatenate([p[0] for p in pieces]).tolist(),
            "hi": np.concatenate([p[1] for p in pieces]).tolist(),
            "vals": np.concatenate([p[2] for p in pieces]).tolist()}


def interpolate(ref: dict, xs: np.ndarray) -> np.ndarray:
    """Evaluate a reference (as loaded by ``load``) at the points xs."""
    i = np.clip(np.searchsorted(ref["hi"], xs), 0, len(ref["hi"]) - 1)
    a, b, vals = ref["lo"][i], ref["hi"][i], ref["vals"][i]
    s = (2.0 * xs - (a + b)) / (b - a)
    d = s[:, None] - _NODES
    on_node = d == 0.0
    d[on_node] = 1.0
    w = _WEIGHTS / d
    out = np.sum(w * vals, axis=1) / np.sum(w, axis=1)
    rows, cols = np.nonzero(on_node)
    out[rows] = vals[rows, cols]
    return out


def load(doc: dict) -> list[dict]:
    """Turn a reference document back into arrays for ``interpolate``."""
    return [{k: np.asarray(v, dtype=np.float64) for k, v in ref.items()}
            for ref in doc["cases"]]


def build(workload: str, seed: int) -> dict:
    listing = {"solve": cases.solve_cases,
               "query": cases.query_cases}[workload](seed)
    return {"workload": workload, "seed": seed,
            "cases": [reference(case) for case in listing]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("solve", "query"), required=True)
    p.add_argument("--seed", type=int, required=True)
    ns = p.parse_args(argv)
    json.dump(build(ns.workload, ns.seed), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
