"""The evaluable-scope rule of the IBL layer: no checker lets an Overflow
escape, a claim whose scope holds no reduced word is UNDETERMINED, and the
t-adic perturbation series are flagged exact only when the test for it covers
every word."""

import pytest

from gradedhpt.core import LinOp, Vector
from gradedhpt.fixtures import fix4
from gradedhpt.hpt import Contraction
from gradedhpt.ibl import (
    extract_p_components,
    ibl_check,
    ibl_mc_check,
    ibl_transfer,
)
from gradedhpt.report import Report, evaluable_scope
from gradedhpt.tseries import LaurentVec


@pytest.fixture(scope="module")
def f4():
    return fix4()


def isomorphism_contraction(f4):
    U = f4.basis
    return Contraction(LinOp.identity(U), LinOp.identity(U), LinOp.zero(U, degree=-1),
                       f4.contraction.d_A, f4.contraction.d_A)


@pytest.mark.parametrize("W", [2, 3, 4, 5])
def test_no_overflow_escapes_and_nothing_fails(f4, W):
    ibl = f4.structure(W=W, N=2)
    reports = [ibl_check(ibl, arity_bound=3)]
    for C in (f4.contraction, isomorphism_contraction(f4)):
        reports.append(ibl_transfer(ibl, C, arity_bound=3).report)
    assert (1, 1, 0) in extract_p_components(ibl).table
    for c in (0, 1, -1):
        x = LaurentVec({0: Vector.basis((2,), c), 1: Vector.basis((0,))})
        ok, res = ibl_mc_check(ibl, x, 4)
        assert (ok is None) == (res is None)
    for rep in reports:
        assert not rep.has_fail, rep.to_text()
        if W >= 3:
            assert rep.ok, rep.to_text()
    if W == 2:
        # delta_1 o delta_1 leaves S_{<=2} on every letter it does not kill
        flat2 = next(i for i in reports[0].items if i.name == "flatness at order 2")
        assert flat2.verdict == "UNDETERMINED"
        assert reports[0].bounds["scope: flatness at order 2"] == 0


def test_scope_is_weight_closed(f4):
    # p^ raises weight by one: at W=4 it is defined on every word of weight 3 but
    # not on the weight-4 words containing u3, though it is on some others
    ibl = f4.structure(W=4, N=2)
    S = ibl.space
    p_hat = ibl.delta.coeff(1)
    assert evaluable_scope(S, p_hat.on_key) == 3
    assert evaluable_scope(S, p_hat.on_key, 2) == 2
    assert evaluable_scope(S, ibl.delta.coeff(0).on_key) == 4
    # the transferred delta_2 is zero where defined but passes through weight 5
    res = ibl_transfer(ibl, f4.contraction, arity_bound=2)
    assert res.report.bounds["transferred: scope: delta"] == 2


def test_inexact_series_when_the_test_cannot_cover_the_corpus(f4):
    # h = 0 makes every power of h delta_plus zero, but p^ cannot be evaluated on
    # all of S_{<=4}: the series must not be flagged exact
    ibl = f4.structure(W=4, N=2)
    res = ibl_transfer(ibl, isomorphism_contraction(f4), arity_bound=2)
    assert res.target.delta.known_to == 2
    assert res.F.known_to == 2 and res.G.known_to == 2


def test_merged_bounds_keep_their_prefix():
    rep = Report("outer", bounds={"N": 1})
    for prefix, n in (("F: ", 2), ("G: ", 3)):
        rep.merge(Report("inner", bounds={"N": n}), prefix=prefix)
    assert rep.bounds == {"N": 1, "F: N": 2, "G: N": 3}
