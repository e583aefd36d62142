"""The evaluable-scope rule of the IBL layer: no checker lets an Overflow
escape, a claim whose scope holds no reduced word is UNDETERMINED, and the
t-adic perturbation series are flagged exact only when the test for it covers
every word."""

import pytest

from gradedhpt.bv import bv_check, bv_morphism_check, verify_poisson
from gradedhpt.commalg import kos_lift
from gradedhpt.core import LinOp, Vector
from gradedhpt.fixtures import fix4
from gradedhpt.hpt import Contraction
from gradedhpt.ibl import (
    extract_p_components,
    ibl_check,
    ibl_mc_check,
    ibl_morphism_check,
    ibl_transfer,
)
from gradedhpt.report import Report, evaluable_scope
from gradedhpt.tseries import TOp, flatten_top


def flat(parts: dict) -> Vector:
    """The flat element sum_n t^n parts[n], on (order, key) pairs."""
    return Vector(((n, k), c) for n, v in parts.items() for k, c in v.items())


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
    lift = kos_lift(ibl.quotient(), flatten_top(ibl.delta, ibl.N), 4)
    for c in (0, 1, -1):
        x = flat({0: Vector.basis((2,), c), 1: Vector.basis((0,))})
        ok, res = ibl_mc_check(ibl, x, lift)
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


def preamble_pairs(n: int) -> list:
    """The claims of ``bv_check`` at k = -1 and of ``ibl_check`` on coefficient n."""
    return [(f"degree of coefficient {n} is {1 - 2 * n}", f"degree of delta_{n} is {1 - 2 * n}"),
            (f"coefficient {n} kills the unit", f"delta_{n}(1) = 0")]


@pytest.mark.parametrize("W", [3, 4, 5, 6])
def test_one_preamble_rule_for_bv_and_ibl(f4, W):
    # delta_1 leaves S_{<=W}(U) on the top weight: both checkers decide the
    # shared claims on the same evaluable scopes and state them in the bounds
    ibl = f4.structure(W, 2)
    bv, ib = bv_check(ibl.space, ibl.delta, -1, 2, 3), ibl_check(ibl, 3)
    verdicts = [{i.name: i.verdict for i in rep.items} for rep in (bv, ib)]
    pairs = preamble_pairs(0) + preamble_pairs(1) + [(f"flatness at order {m}",) * 2
                                                     for m in range(3)]
    for a, b in pairs:
        assert verdicts[0][a] == verdicts[1][b] == "PASS", (a, b)
        scopes = bv.bounds.get(f"scope: {a}"), ib.bounds.get(f"scope: {b}")
        assert None in scopes or scopes[0] == scopes[1], (a, b)
    assert bv.bounds["scope: flatness at order 2"] == W - 2


@pytest.mark.parametrize("W", [3, 4, 5, 6])
def test_one_intertwining_rule_for_both_morphism_checks(f4, W):
    # delta_1 leaves S_{<=W}(U) on the top weight: the BV and the IBL morphism
    # checks decide f D = D' f by one rule, on the same weights below it
    ibl = f4.structure(W, 2)
    S = ibl.space
    ident = TOp({0: LinOp.identity(S)}, S, S, 0, 2)
    reports = {"f Delta = Delta' f": bv_morphism_check(ident, S, S, ibl.delta, ibl.delta, -1, 2, 3),
               "f delta = delta' f": ibl_morphism_check(ident, ibl, ibl, 3)}
    for label, rep in reports.items():
        name = f"{label} (orders <= 2, weights <= {W - 1})"
        assert {i.name: i.verdict for i in rep.items}.get(name) == "PASS", rep.to_text()
        assert rep.bounds[f"scope: {name}"] == W - 1


@pytest.mark.parametrize("W", [3, 4, 5, 6])
def test_every_public_checker_reports_beyond_the_guard(f4, W):
    # with a coefficient that leaves the guard on the top weight, every public
    # structure and morphism checker returns a report and no Overflow escapes
    ibl = f4.structure(W, 2)
    S = ibl.space
    ident = TOp({0: LinOp.identity(S)}, S, S, 0, 2)
    reports = {"bv_check": bv_check(S, ibl.delta, -1, 2, 3),
               "ibl_check": ibl_check(ibl, 3),
               "bv_morphism_check": bv_morphism_check(ident, S, S, ibl.delta, ibl.delta, -1, 2, 3),
               "ibl_morphism_check": ibl_morphism_check(ident, ibl, ibl, 3),
               "verify_poisson": verify_poisson(S, ibl.delta, -1, 3)}
    # exit status 0 is all PASS, 1 a FAIL, 2 UNDETERMINED; the square blocks
    # of ibl_check grow with the weights in scope, and the cumulant
    # congruences of bv_morphism_check are scoped by total weight
    summary = {name: (rep.exit_status(), len(rep.items)) for name, rep in reports.items()}
    assert summary == {"bv_check": (1, 11), "ibl_check": (0, {3: 33, 4: 39}.get(W, 42)),
                       "bv_morphism_check": (0, 4), "ibl_morphism_check": (0, 6),
                       "verify_poisson": (1, 4)}


@pytest.mark.parametrize("W", [3, 4, 5, 6])
def test_multiset_claims_are_scoped_by_total_weight(f4, W):
    # every word of S_{<=W}(U) is in the cumulant corpus, and the pairs and
    # triples of total weight above W leave the guard: each arity is decided
    # on its multisets of total weight <= W, stated in the bounds, as
    # ibl_morphism_check decides the same cumulants
    ibl = f4.structure(W, 2)
    S = ibl.space
    ident = TOp({0: LinOp.identity(S)}, S, S, 0, 2)
    rep = bv_morphism_check(ident, S, S, ibl.delta, ibl.delta, -1, 2, 3)
    verdicts = {i.name: i.verdict for i in rep.items}
    for name in ("kappa(f)_2 = 0 mod t^1", "kappa(f)_3 = 0 mod t^2"):
        assert verdicts[name] == "PASS" and rep.bounds[f"scope: {name}"] == W, rep.to_text()
    # the multiderivation defect of P(Delta)_n is read on n + 1 letters, so its
    # scope is their total weight: P(Delta)_1 fails (Q's q2 is a coderivation,
    # not a derivation), and an arity whose letters leave the guard is
    # UNDETERMINED, never PASS
    rep = verify_poisson(S, ibl.delta, -1, 3)
    names = [f"P(Delta)_{n} is a multiderivation" for n in (1, 2, 3)]
    assert [i.verdict for i in rep.items if i.name in names] == (
        ["FAIL", "UNDETERMINED", "UNDETERMINED"] if W == 3 else ["FAIL", "PASS", "PASS"])
    assert [rep.bounds[f"scope: {name}"] for name in names] == ([2, 2, 3] if W == 3 else [2, 3, 4])
