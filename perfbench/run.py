"""Run one odeform benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads: verify, solve, boundary, query (see README.md). With
``--trace 0`` the last stdout line holds the end-to-end metrics: latency
p50 and p90, throughput, set-up time (median over SETUPS fresh processes)
and peak resident memory of the timed process. With ``--trace 1`` it holds
the per-layer metrics of a traced run plus the tracing overhead against an
untraced run made alongside it. Every process is single-threaded and runs
after the previous one has ended; scipy runs only in the reference process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify", "solve", "boundary", "query")
HAS_REFERENCE = ("solve", "query")
SETUPS = 5          # set-up is timed in this many fresh processes
DEADLINE_S = 170.0  # every child is killed past this point of the run
# Whole passes in a traced run: fixed, so the counters are per identical pass.
TRACE_PASSES = {"verify": 3, "solve": 20, "boundary": 4, "query": 30}

END_TO_END = {"latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "throughput_ops_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ms"):
        return "ms"
    if name.endswith("ns_per_point"):
        return "ns"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


class ChildFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.t0 = time.monotonic()
        self.env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def _run(self, argv: list[str], stdin: bytes | None = None) -> bytes:
        left = DEADLINE_S - (time.monotonic() - self.t0)
        if left <= 0:
            raise ChildFailed("out of time before " + " ".join(argv[:2]))
        try:
            proc = subprocess.run(argv, input=stdin, stdout=subprocess.PIPE,
                                  env=self.env, cwd=ROOT, timeout=left)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"timed out: {' '.join(argv[1:3])}")
        if proc.returncode != 0 or not proc.stdout.strip():
            raise ChildFailed(f"{' '.join(argv[1:])} exited "
                              f"{proc.returncode}")
        return proc.stdout

    def reference(self) -> bytes | None:
        if self.workload not in HAS_REFERENCE:
            return None
        argv = [sys.executable, os.path.join(HERE, "reference.py"),
                "--workload", self.workload, "--seed", str(self.seed)]
        return self._run(argv)

    def worker(self, mode: str, amount: float, stdin=None) -> dict:
        argv = [sys.executable, os.path.join(HERE, "worker.py"), mode,
                self.workload, str(self.seed), repr(amount)]
        argv.append(repr(time.monotonic()))
        return json.loads(self._run(argv, stdin).splitlines()[-1])


def untraced(r: Runner, seconds: float) -> tuple[dict, dict]:
    ref = r.reference()
    setups = [r.worker("probe", 0)["setup_s"] for _ in range(SETUPS - 1)]
    main = r.worker("run", seconds, ref)
    setups.append(main["setup_s"])
    metrics = {
        "latency_p50_ms": main["latency_p50_ms"],
        "latency_p90_ms": main["latency_p90_ms"],
        "throughput_ops_s": main["throughput_ops_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return main, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def traced(r: Runner, seconds: float) -> tuple[dict, dict]:
    ref = r.reference()
    base = r.worker("run", seconds / 2.0, ref)
    trace = r.worker("trace", TRACE_PASSES[r.workload], ref)
    layers = dict(trace["layers"])
    layers["trace.overhead_pct"] = 100.0 * (
        base["throughput_ops_s"] / trace["throughput_ops_s"] - 1.0)
    both = {"attempted": base["attempted"] + trace["attempted"],
            "failed": base["failed"] + trace["failed"],
            "correct": base["correct"] and trace["correct"]}
    return both, {k: (v, layer_unit(k)) for k, v in layers.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)
    if not ns.seconds > 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "odeform", "cli.py")):
        print(f"error: no odeform sources under {ROOT}/src", file=sys.stderr)
        return 2

    r = Runner(ns.workload, ns.seed)
    try:
        head, metrics = (traced if ns.trace else untraced)(r, ns.seconds)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{ns.workload:8s} {name:30s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": bool(head["correct"]),
        "attempted": int(head["attempted"]),
        "failed": int(head["failed"]),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
