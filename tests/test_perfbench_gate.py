"""The benchmark's workloads pass its output gate: every call's output equals
the one recorded in ``perfbench/expected.json``.  For smallbase-transfer these
are the FIX-3X ``linf_transfer`` digest, the FIX-4 ``ibl_transfer`` verdicts
and the Kuranishi round trip with its Maurer-Cartan counts upstairs and
downstairs; for bv-fix2 the ``bv_check`` verdicts; for widebase-prop the
``verify_prop_transfer`` verdict and its word count.  ``perfbench/pipelines.py``
is loaded from its file, not edited."""

import importlib.util
import json
import sys
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_pipelines() -> types.ModuleType:
    spec = importlib.util.spec_from_file_location("perfbench_pipelines",
                                                  PERFBENCH / "pipelines.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def assert_passes_the_gate(workload: str) -> None:
    pipelines = load_pipelines()
    expected = json.loads((PERFBENCH / "expected.json").read_text())[workload]
    calls = pipelines.WORKLOADS[workload]()
    assert [c.name for c in calls] == list(expected)
    results = pipelines.run_calls(calls, expected)
    assert [(r.name, r.ok, r.error) for r in results] == [(c.name, True, "") for c in calls]


def test_smallbase_transfer_passes_the_gate():
    assert_passes_the_gate("smallbase-transfer")


def test_bv_fix2_passes_the_gate():
    assert_passes_the_gate("bv-fix2")


def test_widebase_prop_passes_the_gate():
    assert_passes_the_gate("widebase-prop")
