"""The benchmark's workloads: fixtures to build, pipeline calls to time, and the
output gate that compares each call's result with the output recorded for it.

The workloads are fixed fixtures of the gradedhpt gallery and use no seed.
Importing this module imports gradedhpt, so a cold run that times
``import pipelines`` times the package import as well.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from gradedhpt.bv import bv_check
from gradedhpt.fixtures import fix2, fix2_mid, fix2_mid_perturbation, fix3_extended, fix4
from gradedhpt.hpt import Perturbation, linf_transfer, perturb, verify_prop_transfer, words_over
from gradedhpt.ibl import IBLStructure, ibl_transfer
from gradedhpt.mc import KuranishiData, NilpotentFiltration, kuranishi_roundtrip_report
from gradedhpt.symcoalg import SymSpace

# word weight of the FIX-3X transfer and the FIX-4 order-zero structure; the
# n!*n placement loop of hat_homotopy dominates at this weight
SMALLBASE_WEIGHT = 6


@dataclass
class Call:
    """One pipeline call: ``run`` takes the results of earlier calls by name,
    ``summarize`` turns its output into the JSON value the gate compares."""

    name: str
    run: Callable[[dict], Any]
    summarize: Callable[[Any], Any]


@dataclass
class CallResult:
    name: str
    ok: bool
    summary: Any = None
    error: str = ""


# -- summaries -------------------------------------------------------------------------


def report_checks(rep) -> list:
    """A Report as its list of [check name, verdict]."""
    return [[i.name, i.verdict] for i in rep.items]


def vector_text(v) -> str:
    return ";".join(f"{k!r}:{c}" for k, c in sorted(v.items(), key=lambda kc: repr(kc[0])))


def linf_digest(res) -> str:
    """Exact digest of the transferred structure r and morphism f on every word of W."""
    Wb = res.r.base
    lines = []
    for w in words_over(Wb, Wb.keys(), res.arity_bound, min_weight=1):
        n = len(w)
        lines.append(f"{w!r} r {vector_text(res.r.component(n, w))}")
        lines.append(f"{w!r} f {vector_text(res.f.component(n, w))}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def prop_summary(rep) -> dict:
    return {"ok": rep.ok, "words_checked": rep.words_checked}


def kuranishi_summary(rep) -> dict:
    return {"ok": rep.ok, "mc_count_V": rep.mc_count_V, "mc_count_W": rep.mc_count_W}


# -- workloads -------------------------------------------------------------------------


def setup_bv_fix2() -> list[Call]:
    f2 = fix2()
    order_keys = f2.low_keys(2)
    return [Call("bv_check",
                 lambda _: bv_check(f2.A, f2.delta_series(), -1, 3, 4, order_keys=order_keys),
                 report_checks)]


def setup_smallbase_transfer() -> list[Call]:
    fx = fix3_extended()
    f4 = fix4()
    ibl0 = IBLStructure.from_components(
        f4.basis, SMALLBASE_WEIGHT, 2,
        {0: f4.coderivation().as_map(SymSpace(f4.basis, SMALLBASE_WEIGHT))})
    filt = NilpotentFiltration(fx.levels, fx.vanishing_level)

    def kuranishi(done):
        res = done["linf_transfer"]
        w_filt = NilpotentFiltration({k: 1 for k in res.r.base.keys()}, 2)
        data = KuranishiData(fx.Q, res, fx.contraction, filt)
        return kuranishi_roundtrip_report(data, w_filt, height=3)

    return [
        Call("linf_transfer", lambda _: linf_transfer(fx.Q, fx.contraction, SMALLBASE_WEIGHT),
             linf_digest),
        Call("ibl_transfer", lambda _: ibl_transfer(ibl0, f4.contraction, arity_bound=3).report,
             report_checks),
        Call("kuranishi_roundtrip_report", kuranishi, kuranishi_summary),
    ]


def setup_widebase_prop() -> list[Call]:
    f = fix2_mid()

    def prop(_):
        pert = perturb(f.contraction, Perturbation(*fix2_mid_perturbation(f)))[1]
        return verify_prop_transfer(f.A, f.B, pert, 4, keys_A=f.keys_A, keys_B=f.keys_B)

    return [Call("verify_prop_transfer", prop, prop_summary)]


WORKLOADS: dict[str, Callable[[], list[Call]]] = {
    "bv-fix2": setup_bv_fix2,
    "smallbase-transfer": setup_smallbase_transfer,
    "widebase-prop": setup_widebase_prop,
}


# -- the gate --------------------------------------------------------------------------


def run_calls(calls: list[Call], expected: dict | None) -> list[CallResult]:
    """Run the calls in order.  A call fails if it raises or, when ``expected``
    is given, if its summary differs from the recorded one."""
    done: dict = {}
    results = []
    for call in calls:
        try:
            out = call.run(done)
            summary = call.summarize(out)
        except Exception as exc:  # a failed call is counted, not fatal
            results.append(CallResult(call.name, False,
                                      error=f"{type(exc).__name__}: {exc}".splitlines()[0]))
            traceback.print_exc()
            continue
        done[call.name] = out
        # JSON round trip so tuples and lists compare as recorded
        summary = json.loads(json.dumps(summary))
        ok = expected is None or summary == expected.get(call.name)
        results.append(CallResult(call.name, ok, summary,
                                  "" if ok else "output differs from the recorded output"))
    return results
