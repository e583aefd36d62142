"""Per-layer metrics of a traced run, read from cProfile statistics.

A layer is one module of ``src/gradedhpt``.  Its self time is the summed self
time of the functions defined in the module's file.  Counts and cumulative
times are read by (module, qualified function name), so they do not depend on
line numbers; a nested function is found through the code object of the
function that defines it.  The LinOp image-cache hit ratio is counted by a
wrapper around ``LinOp.on_key``, installed before the fixtures are built.
"""

from __future__ import annotations

import importlib
import pstats
import types
from dataclasses import dataclass

from gradedhpt.core import LinOp

# (metric, kind, module, qualified name); kind is "self" (whole module),
# "calls" (number of calls) or "cum" (cumulative seconds)
READINGS = (
    ("core.self_s", "self", "core", None),
    ("core.fraction_s", "self", "fractions", None),
    ("core.fraction_new", "calls", "fractions", "Fraction.__new__"),
    ("core.koszul_sign_calls", "calls", "core", "koszul_sign"),
    ("commalg.self_s", "self", "commalg", None),
    ("commalg.koszul_recursion_calls", "calls", "commalg", "koszul_recursion"),
    ("commalg.koszul_rec_calls", "calls", "commalg", "koszul_recursion.<locals>.rec"),
    ("commalg.cumulant_rec_calls", "calls", "commalg", "cumulant_recursion.<locals>.rec"),
    ("symcoalg.self_s", "self", "symcoalg", None),
    ("symcoalg.assemble_word_calls", "calls", "symcoalg", "assemble_word"),
    ("tseries.self_s", "self", "tseries", None),
    ("hpt.self_s", "self", "hpt", None),
    # hat_homotopy returns a lazy LinOp: its images are computed by the nested
    # fn when a word is first asked for, so the time sits there
    ("hpt.hat_homotopy_cum_s", "cum", "hpt", "hat_homotopy.<locals>.fn"),
    ("hpt.hat_images", "calls", "hpt", "hat_homotopy.<locals>.fn"),
    ("hpt.linf_transfer_cum_s", "cum", "hpt", "linf_transfer"),
    ("hpt.perturb_cum_s", "cum", "hpt", "perturb"),
    ("hpt.semifull_cum_s", "cum", "hpt", "check_semifull_algebra"),
    ("bv.bv_check_cum_s", "cum", "bv", "bv_check"),
    ("ibl.ibl_transfer_cum_s", "cum", "ibl", "ibl_transfer"),
    ("ibl.ibl_check_cum_s", "cum", "ibl", "ibl_check"),
    ("mc.kuranishi_cum_s", "cum", "mc", "kuranishi_roundtrip_report"),
    ("mc.mc_check_calls", "calls", "mc", "mc_check"),
    ("fixtures.self_s", "self", "fixtures", None),
)


@dataclass
class OnKeyCounter:
    calls: int = 0
    hits: int = 0


def count_on_key() -> OnKeyCounter:
    """Wrap ``LinOp.on_key`` to count calls and image-cache hits."""
    counter = OnKeyCounter()
    on_key = LinOp.on_key

    def counted_on_key(self, key):
        counter.calls += 1
        if key in self._cache:
            counter.hits += 1
        return on_key(self, key)

    LinOp.on_key = counted_on_key
    return counter


def module_of(name: str) -> types.ModuleType:
    return importlib.import_module(name if name == "fractions" else "gradedhpt." + name)


def code_of(module: str, qualname: str) -> types.CodeType:
    """The code object of a function given by its qualified name in a module."""
    parts = [p for p in qualname.split(".") if p != "<locals>"]
    obj = getattr(module_of(module), parts[0])
    for name in parts[1:]:
        if isinstance(obj, types.FunctionType):
            obj = obj.__code__
        if isinstance(obj, types.CodeType):
            obj = next(c for c in obj.co_consts
                       if isinstance(c, types.CodeType) and c.co_name == name)
        else:
            obj = getattr(obj, name)
    return obj if isinstance(obj, types.CodeType) else obj.__code__


def layer_metrics(profiler, counter: OnKeyCounter) -> dict[str, float]:
    stats = pstats.Stats(profiler).stats  # (file, line, name) -> (cc, nc, tt, ct, callers)
    self_time: dict[str, float] = {}
    for (filename, _, _), (_, _, tt, _, _) in stats.items():
        self_time[filename] = self_time.get(filename, 0.0) + tt

    out: dict[str, float] = {}
    for metric, kind, module, qualname in READINGS:
        if kind == "self":
            out[metric] = self_time.get(module_of(module).__file__, 0.0)
            continue
        code = code_of(module, qualname)
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        if kind == "calls":
            out[metric] = 0 if entry is None else entry[1]
        else:
            out[metric] = 0.0 if entry is None else entry[3]
    calls = out["commalg.koszul_recursion_calls"]
    out["commalg.koszul_rec_per_call"] = out["commalg.koszul_rec_calls"] / calls if calls else 0.0
    out["core.on_key_calls"] = counter.calls
    out["core.linop_cache_hit_ratio"] = counter.hits / counter.calls if counter.calls else 0.0
    return out
