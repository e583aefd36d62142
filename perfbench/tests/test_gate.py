"""The output gate is not vacuous: a changed verdict and a raised exception
each count as one failed call, and every recorded call is checked.

    python3 -m pytest perfbench/tests
"""

from gradedhpt.core import LinOp, Vector
from gradedhpt.bv import bv_check
from gradedhpt.fixtures import fix2, fix4
from gradedhpt.ibl import ibl_check
from gradedhpt.tseries import TOp

import cold
import layers
import pipelines
import run


def test_changed_verdict_counts_one_failure():
    # the order-three corruption of tests/test_bv.py: Delta_1 gains an order-three part
    f2 = fix2()
    A = f2.A

    def bad_fn(key):
        a, b, c, e = key
        if a >= 2 and c == 1:
            return A.monomial({"y": a - 2, "z": b, "dz": e}, a * (a - 1))
        return Vector.zero()

    bad = LinOp(A.space, A.space, -1, bad_fn, "O3")
    D = TOp({0: f2.d, 1: f2.delta1 + bad}, A.space, A.space, 1, 2)
    call = pipelines.Call(
        "bv_check", lambda _: bv_check(A, D, -1, 3, 3, order_keys=f2.low_keys(1)),
        pipelines.report_checks)
    results = pipelines.run_calls([call], cold.load_expected("bv-fix2"))
    assert [r.ok for r in results] == [False]
    assert any(verdict == "FAIL" for _, verdict in results[0].summary)


def test_raised_overflow_counts_as_failure():
    # the full FIX-4 IBL check still lets an Overflow escape
    ibl4 = fix4().structure(W=4, N=2)
    calls = [
        pipelines.Call("ibl_check", lambda _: ibl_check(ibl4, arity_bound=3),
                       pipelines.report_checks),
        pipelines.Call("after", lambda _: 1, lambda out: out),
    ]
    results = pipelines.run_calls(calls, {"ibl_check": [], "after": 1})
    assert [r.ok for r in results] == [False, True]
    assert results[0].error.startswith("Overflow")


def test_every_call_has_a_record():
    assert tuple(pipelines.WORKLOADS) == run.WORKLOADS
    for workload, setup in pipelines.WORKLOADS.items():
        names = [c.name for c in setup()]
        assert names == list(cold.load_expected(workload))


def test_every_reading_resolves():
    for _, kind, module, qualname in layers.READINGS:
        if kind != "self":
            assert layers.code_of(module, qualname).co_name == qualname.split(".")[-1]
