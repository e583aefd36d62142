"""One cold run of a workload in a fresh process.

    python3 perfbench/cold.py <workload> <mode>

The process imports gradedhpt from ``src`` under the current directory, builds
the workload's fixtures and, unless ``mode`` is ``setup``, runs its pipeline
calls once.  Modes:

- ``setup``: stop after the fixtures are built;
- ``run``: run the calls and check each against its output in expected.json;
- ``trace``: as ``run``, under cProfile, and add the per-layer metrics;
- ``record``: run the calls and print their outputs in the form expected.json
  keeps, to record them again when a verdict changes on purpose.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import cProfile
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
MODES = ("setup", "run", "trace", "record")


def load_expected(workload: str) -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)[workload]


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[1] not in MODES:
        print(__doc__, file=sys.stderr)
        return 2
    workload, mode = argv
    expected = None if mode in ("setup", "record") else load_expected(workload)
    src = os.path.join(os.getcwd(), "src")
    sys.path[:0] = [src, HERE]

    profiler = counter = None
    t0 = time.perf_counter()
    if mode == "trace":
        profiler = cProfile.Profile()
        profiler.enable()
    import pipelines
    pkg = os.path.dirname(sys.modules["gradedhpt"].__file__)
    if os.path.realpath(pkg) != os.path.realpath(os.path.join(src, "gradedhpt")):
        print(f"gradedhpt was imported from {pkg}, not from {src}", file=sys.stderr)
        return 2
    if mode == "trace":
        import layers
        counter = layers.count_on_key()
    calls = pipelines.WORKLOADS[workload]()
    t1 = time.perf_counter()
    out: dict = {"setup_s": t1 - t0}
    if mode != "setup":
        results = pipelines.run_calls(calls, expected)
        t2 = time.perf_counter()
        if profiler is not None:
            profiler.disable()
        out.update(
            verdict_s=t2 - t1,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            calls=[{"name": r.name, "ok": r.ok, "error": r.error} for r in results])
        if profiler is not None:
            out["layers"] = layers.layer_metrics(profiler, counter)
        if mode == "record":
            out = {r.name: r.summary for r in results}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
