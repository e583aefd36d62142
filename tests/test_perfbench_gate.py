"""The benchmark's smallbase-transfer calls pass its output gate: the FIX-3X
``linf_transfer`` digest, the FIX-4 ``ibl_transfer`` verdicts and the Kuranishi
round trip with its Maurer-Cartan counts upstairs and downstairs equal the
outputs recorded in ``perfbench/expected.json``.  ``perfbench/pipelines.py``
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


def test_smallbase_transfer_passes_the_gate():
    pipelines = load_pipelines()
    expected = json.loads((PERFBENCH / "expected.json").read_text())["smallbase-transfer"]
    calls = pipelines.WORKLOADS["smallbase-transfer"]()
    assert [c.name for c in calls] == list(expected)
    results = pipelines.run_calls(calls, expected)
    assert [(r.name, r.ok, r.error) for r in results] == [(c.name, True, "") for c in calls]
