"""The per-layer trace of ``perfbench`` reads counts and cumulative times by
(module, qualified function name).  Moving or renaming a function it names
(say, nesting a recursion in another closure) makes ``perfbench/cold.py
<workload> trace`` fail, so every such name must resolve to a code object of
that name.  ``perfbench/layers.py`` is loaded from its file, not edited."""

import importlib.util
import sys
import types
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers() -> types.ModuleType:
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    layers = load_layers()
    named = [(metric, module, qualname) for metric, kind, module, qualname in layers.READINGS
             if kind != "self"]
    assert named
    for metric, module, qualname in named:
        code = layers.code_of(module, qualname)
        assert isinstance(code, types.CodeType), metric
        assert code.co_name == qualname.split(".")[-1], metric
