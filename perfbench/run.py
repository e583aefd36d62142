"""Fixture-to-verdict benchmark of gradedhpt.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; gradedhpt is imported from its ``src``.
Every sample is a cold run: a fresh single-threaded process (cold.py) imports
gradedhpt, builds the workload's fixtures and runs its pipeline calls once.
Samples run one after another, a closed loop with one caller.

With ``--trace 0`` the run takes set-up samples from processes that stop after
the fixtures, then full samples until ``--seconds`` would be exceeded, and
reports the end-to-end metrics.  With ``--trace 1`` it makes one untraced and
one traced sample and reports the per-layer metrics, including the tracing
overhead.  Every call's output is checked against perfbench/expected.json.
The workloads are fixed fixtures: ``--seed`` is recorded but changes nothing.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bv-fix2", "smallbase-transfer", "widebase-prop")
SETUP_SAMPLES = 9
# every child must have ended by then, so a run ends within 180 s
TIME_LIMIT_S = 170.0


class HarnessError(Exception):
    pass


def child(workload: str, mode: str, deadline: float) -> dict:
    """One cold process; its last line of output is a JSON object."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("out of time before a sample could start")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "cold.py"), workload, mode],
            stdout=subprocess.PIPE, text=True, timeout=timeout,
            env=dict(os.environ, PYTHONHASHSEED="0"))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{mode} sample of {workload} did not end in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{mode} sample of {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def commit() -> str:
    """The checked-out commit, read from .git when the checkout has one."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_per_call"):
        return "calls/call"
    return "count"


def untraced(workload: str, seconds: float, deadline: float):
    child(workload, "setup", deadline)  # writes the bytecode caches; not a sample
    setups = [child(workload, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    runs = []
    start = time.monotonic()
    while True:
        runs.append(child(workload, "run", deadline))
        elapsed = time.monotonic() - start
        if elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    setups += [r["setup_s"] for r in runs]
    samples = {
        "verdict_s": [r["verdict_s"] for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    return runs, samples


def traced(workload: str, deadline: float):
    plain = child(workload, "run", deadline)
    trace = child(workload, "trace", deadline)
    layers = dict(trace["layers"])
    layers["trace.overhead_ratio"] = trace["verdict_s"] / plain["verdict_s"]
    return [plain, trace], layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "gradedhpt", "__init__.py")):
        print("run from the root of a gradedhpt checkout: src/gradedhpt is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    stamp = {"workload": args.workload, "seed": args.seed, "seed_used": False,
             "python": platform.python_version(), "nproc": os.cpu_count(),
             "commit": commit(), "trace": args.trace}
    try:
        if args.trace:
            runs, layers = traced(args.workload, deadline)
        else:
            runs, samples = untraced(args.workload, args.seconds, deadline)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    calls = [c for r in runs for c in r["calls"]]
    failed = [c for c in calls if not c["ok"]]
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for c in failed:
        print(f"FAILED {args.workload}/{c['name']}: {c['error']}")
    metrics = {}
    if args.trace:
        for name, value in sorted(layers.items()):
            metrics[name] = {"value": value, "unit": unit_of(name)}
            print(f"{name:32s} {unit_of(name):10s} {value}")
    else:
        print(f"{'metric':12s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}")
        for name, values in samples.items():
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": unit_of(name)}
            print(f"{name:12s} {unit_of(name):6s} {med:12.4f} {q1:12.4f} {q3:12.4f} {len(values):3d}")
        print(f"{'fail_ratio':12s} {'ratio':6s} {len(failed) / len(calls):12.4f} "
              f"{'':12s} {'':12s} {len(calls):3d}  ({len(failed)} of {len(calls)} calls failed)")
    print(json.dumps({"correct": not failed, "attempted": len(calls), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
