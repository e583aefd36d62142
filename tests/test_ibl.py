from fractions import Fraction as Q

import pytest

from gradedhpt.core import LinOp, Vector
from gradedhpt.fixtures import fix4
from gradedhpt.hpt import Contraction, Perturbation, perturb
from gradedhpt.ibl import (
    IBLStructure,
    degree_audit,
    extract_p_components,
    ibl_check,
    ibl_kuranishi_report,
    ibl_mc_check,
    ibl_morphism_check,
    ibl_transfer,
    reassemble_defect,
)
from gradedhpt.report import evaluable_scope
from gradedhpt.symcoalg import SymSpace, TaylorCoderivation, hat_extension
from gradedhpt import commalg
from gradedhpt.commalg import kos_lift, koszul_recursion
from gradedhpt.tseries import TOp, flatten_top


def flat(parts: dict) -> Vector:
    """The flat element sum_n t^n parts[n], on (order, key) pairs."""
    return Vector(((n, k), c) for n, v in parts.items() for k, c in v.items())


def mc_lift(ibl: IBLStructure, arity_cap: int) -> TaylorCoderivation:
    """The Koszul-bracket lift whose Maurer-Cartan sums ``ibl_mc_check`` reads."""
    return kos_lift(ibl.quotient(), flatten_top(ibl.delta, ibl.N), arity_cap)


def lattice_samples() -> tuple[list, list]:
    """Candidates x = c u3 + t(a u1 + b u1 o u3) in U and c v in V."""
    samples_U = [flat({0: Vector.basis((2,), c), 1: Vector({(0,): Q(a), (0, 2): Q(b)})})
                 for c in (0, 1, -1, 2) for a in (0, 1, -1) for b in (0, 1)]
    samples_V = [flat({0: Vector.basis((0,), c)}) for c in (0, 1, -1, 2)]
    return samples_U, samples_V


@pytest.fixture(scope="module")
def f4():
    return fix4()


@pytest.fixture(scope="module")
def ibl4(f4):
    return f4.structure(W=4, N=2)


class TestFix4Search:
    def test_found_expected_solution(self, f4):
        assert f4.basis.degrees == (-2, -1, 0)
        assert f4.q2 == {(0, 2): Vector.basis(1)}
        assert f4.p == {2: Vector.basis((1, 2))}
        assert f4.search_transcript[-1][1] == "found"

    def test_nonzero_on_homology(self, f4):
        assert not f4.p[2].is_zero()


class TestIBLCheck:
    def test_fix4_certified(self, ibl4):
        rep = ibl_check(ibl4, arity_bound=3)
        assert rep.ok, rep.to_text()

    def test_linear_structure(self, f4):
        S = SymSpace(f4.basis, 3)
        d_map = TaylorCoderivation.from_linear(f4.contraction.d_A).as_map(S)
        ibl = IBLStructure.from_components(f4.basis, 3, 2, {0: d_map})
        rep = ibl_check(ibl, arity_bound=2)
        assert rep.ok, rep.to_text()

    def test_corrupted_cobracket_fails(self, f4):
        S = SymSpace(f4.basis, 4)
        bad_p = dict(f4.p)
        bad_p[1] = Vector.basis((0, 2))  # p(u2) != 0 breaks the chain compatibility
        bad_map = hat_extension(S, 1, lambda w: bad_p.get(w[0], Vector.zero()), -1)
        ibl = IBLStructure.from_components(
            f4.basis, 4, 2, {0: f4.coderivation().as_map(S), 1: bad_map})
        rep = ibl_check(ibl, arity_bound=2)
        assert rep.has_fail
        fails = [i.name for i in rep.items if i.verdict == "FAIL"]
        assert any("flatness" in n or "square block" in n for n in fails)


class TestComponents:
    def test_extract_and_reassemble(self, ibl4):
        comps = extract_p_components(ibl4)
        assert reassemble_defect(ibl4, comps) is None
        assert degree_audit(ibl4, comps) is None

    def test_linear_part_is_differential(self, f4, ibl4):
        comps = extract_p_components(ibl4)
        entry = comps.component(1, 1, 0)
        for k in f4.basis.keys():
            img = f4.contraction.d_A.on_key(k)
            got = entry.get((k,), Vector())
            assert got == Vector({(k2,): c for k2, c in img.items()})

    def test_cobracket_component(self, f4, ibl4):
        comps = extract_p_components(ibl4)
        entry = comps.component(1, 2, 0)
        assert entry == {(2,): Vector.basis((1, 2))}

    def test_quadratic_component(self, f4, ibl4):
        comps = extract_p_components(ibl4)
        entry = comps.component(2, 1, 0)
        assert entry == {(0, 2): Vector.basis((1,))}

    def test_triples_inventory(self, ibl4):
        comps = extract_p_components(ibl4)
        assert set(comps.table) == {(1, 1, 0), (2, 1, 0), (1, 2, 0)}


class TestIBLMorphism:
    def test_identity(self, ibl4):
        ident = TOp({0: LinOp.identity(ibl4.space)}, ibl4.space, ibl4.space, 0, 2)
        rep = ibl_morphism_check(ident, ibl4, ibl4, arity_bound=3)
        assert rep.ok, rep.to_text()

    def test_weight_preserving_chain_map(self, f4):
        # a chain map with no higher components is a morphism iff it intertwines
        S = SymSpace(f4.basis, 3)
        d_map = TaylorCoderivation.from_linear(f4.contraction.d_A).as_map(S)
        ibl = IBLStructure.from_components(f4.basis, 3, 2, {0: d_map})
        scale = LinOp(S, S, 0, lambda w: Vector.basis(w, Q(2) ** len(w)), "2^wt")
        f = TOp({0: scale}, S, S, 0, 2)
        rep = ibl_morphism_check(f, ibl, ibl, arity_bound=2)
        assert rep.ok, rep.to_text()


class TestIBLTransfer:
    def test_fix4_pipeline(self, f4, ibl4):
        res = ibl_transfer(ibl4, f4.contraction, arity_bound=3)
        assert res.report.ok, res.report.to_text()
        # transferred structure on the one-dimensional homology is forced trivial
        # beyond its (zero) differential; morphisms carry the content
        comps = extract_p_components(res.target)
        assert all(j >= 1 for (_, j, _) in comps.table)
        assert any(not op.is_zero_on(res.F.domain.keys())
                   for op in res.F.coeffs.values())

    def test_isomorphism_contraction_transports(self, f4, ibl4):
        # h = 0, sigma tau = id: the transfer is conjugation by the isomorphism
        U = f4.basis
        S = ibl4.space
        idc = Contraction(LinOp.identity(U), LinOp.identity(U),
                          LinOp.zero(U, degree=-1), f4.contraction.d_A,
                          f4.contraction.d_A)
        res = ibl_transfer(ibl4, idc, arity_bound=3)
        assert res.report.ok, res.report.to_text()
        # p^ leaves the word bound on some words; compare where delta_n is defined
        for n, op in ibl4.delta.coeffs.items():
            scope = evaluable_scope(S, op.on_key)
            words = [w for w in S.keys() if len(w) <= scope]
            assert res.target.delta.coeff(n).first_difference(op, words) is None

    def test_single_shot_equals_two_stage(self, f4, ibl4):
        # flatten everything to (order, word) keys and run the plain perturbation
        # lemma once with the full perturbation delta - d~
        res = ibl_transfer(ibl4, f4.contraction, arity_bound=2)
        S = ibl4.space
        N = ibl4.N
        from gradedhpt.hpt import symmetrized_contraction
        sym = symmetrized_contraction(f4.contraction, S.weight_bound)
        flat = flatten_top(TOp({0: sym.d_A}, S, S, 1, 2), N)
        flat_con = Contraction(
            flatten_top(TOp({0: sym.sigma}, S, sym.space_B, 0, 2), N),
            flatten_top(TOp({0: sym.tau}, sym.space_B, S, 0, 2), N),
            flatten_top(TOp({0: sym.h}, S, S, -1, 2), N),
            flat,
            flatten_top(TOp({0: sym.d_B}, sym.space_B, sym.space_B, 1, 2), N),
            verify_on_init=False)
        pert_flat = flatten_top(ibl4.delta, N) - flat
        m = (N + 1) * (S.weight_bound + 2)
        _, single = perturb(flat_con, Perturbation(pert_flat, m), keys_A=(), keys_B=())
        # compare the perturbed differential with the two-stage output per order,
        # on the words where the transfer reports its delta evaluable
        scope = res.report.bounds["transferred: scope: delta"]
        for (n, word) in flat_con.space_B.keys():
            if len(word) > scope:
                continue
            got = single.d_B.on_key((n, word))
            expect = Vector()
            for m2, op in res.target.delta.coeffs.items():
                if n + m2 > N:
                    continue
                for u, c in op.on_key(word).items():
                    expect.c[(n + m2, u)] = expect.c.get((n + m2, u), 0) + c
            expect.c = {kk: c for kk, c in expect.c.items() if c}
            assert got == expect, (n, word)

    def test_sibl_closure(self, f4, ibl4):
        # Koszul brackets of delta preserve the weight-shifted subspace:
        # K(delta)_k on elements t^i S_{<=i+1} lands in IBL(U)
        St = ibl4.quotient()
        dflat = LinOp(St.space, St.space, 1, flatten_top(ibl4.delta, ibl4.N).on_key, "d~")
        members = [(i, w) for (i, w) in St.space.keys() if 0 < len(w) <= i + 1]
        for k in (1, 2):
            for a in members:
                for b in members:
                    try:
                        val = koszul_recursion(St, dflat, (a, b) if k == 2 else (a,))
                    except Exception:
                        continue
                    for (n, w) in val.keys():
                        assert len(w) <= n + 1, (a, b, n, w)


def known_to(ibl: IBLStructure, known) -> IBLStructure:
    """The same structure with its delta flagged as known to order ``known``."""
    d = ibl.delta
    return IBLStructure(ibl.space, TOp(dict(d.coeffs), d.domain, d.codomain, d.degree,
                                       d.t_degree, known), ibl.N)


def verdicts(rep) -> dict:
    return {item.name: item.verdict for item in rep.items}


class TestReliableOrder:
    """No claim is decided on coefficients above the order a series is known to."""

    def test_flatness_and_square_blocks_above_the_known_order(self, f4):
        # p(u2) = u1 u3 breaks flatness at order 1; flagged as known only to
        # order 0, the series cannot show it, and orders 1 and 2 are undecided
        S = SymSpace(f4.basis, 4)
        bad_p = dict(f4.p)
        bad_p[1] = Vector.basis((0, 2))
        bad_map = hat_extension(S, 1, lambda w: bad_p.get(w[0], Vector.zero()), -1)
        exact = IBLStructure.from_components(
            f4.basis, 4, 2, {0: f4.coderivation().as_map(S), 1: bad_map})
        control = ibl_check(exact, arity_bound=3)
        assert verdicts(control)["flatness at order 1"] == "FAIL"
        assert any(i.name == "flatness at order 1" and i.detail == "witness (0,)"
                   for i in control.items)
        rep = ibl_check(known_to(exact, 0), arity_bound=3)
        got = verdicts(rep)
        for n in (1, 2):
            assert got[f"flatness at order {n}"] == "UNDETERMINED"
            assert got[f"square blocks at order {n} vanish"] == "UNDETERMINED"
            assert not any(f"order {n})" in name for name in got), n
        assert got["claims on delta_1"] == "UNDETERMINED"
        assert not any("delta_1" in name for name, v in got.items() if v == "PASS")
        assert got["flatness at order 0"] == "PASS"

    def test_transfer_of_a_series_known_to_order_zero(self, f4):
        ibl = f4.structure(W=3, N=2)
        control = ibl_transfer(ibl, f4.contraction, arity_bound=3).report
        res = ibl_transfer(known_to(ibl, 0), f4.contraction, arity_bound=3)
        assert res.target.delta.known_to == 0
        assert res.F.known_to == 0 and res.G.known_to == 0
        exact, got = verdicts(control), verdicts(res.report)
        for n in (1, 2):
            assert exact[f"transferred: flatness at order {n}"] == "PASS"
            assert got[f"transferred: flatness at order {n}"] == "UNDETERMINED"
            assert got[f"transferred: square blocks at order {n} vanish"] == "UNDETERMINED"
        for side in ("F", "G"):
            assert exact[f"{side}: f delta = delta' f (orders <= 2, weights <= 1)"] == "PASS"
            assert got[f"{side}: f delta = delta' f beyond order 0"] == "UNDETERMINED"
            assert got[f"{side}: f delta = delta' f (orders <= 0, weights <= 3)"] == "PASS"
            assert res.report.bounds[f"{side}: f known to order"] == 0
        assert not any("orders <= 2" in name or "order 1" in name or "order 2" in name
                       for name, v in got.items() if v == "PASS")

    def test_morphism_coefficients_above_the_known_order_are_not_read(self, ibl4):
        # f_3(1) = u1^3 breaks f(1) = 1 at an order the quotient at N = 2 never
        # reads; flagged as known only to order 2, f is read to order 2
        S = ibl4.space
        f_3 = LinOp(S, S, -6, lambda w: Vector() if w else Vector.basis((0, 0, 0)), "1->u1^3")
        f = TOp({0: LinOp.identity(S), 3: f_3}, S, S, 0, 2)
        assert verdicts(ibl_morphism_check(f, ibl4, ibl4))["f(1) = 1"] == "FAIL"
        f.known_to = 2
        rep = ibl_morphism_check(f, ibl4, ibl4)
        assert verdicts(rep)["f(1) = 1"] == "PASS" and rep.bounds["f known to order"] == 2


    def test_a_non_unital_morphism_leaves_the_log_routes_undetermined(self, ibl4):
        # f_1(1) = u1: log_* needs f(1) = 1, so routes (b)-(d) are not run
        S = ibl4.space
        f_1 = LinOp(S, S, -2, lambda w: Vector() if w else Vector.basis((0,)), "1->u1")
        f = TOp({0: LinOp.identity(S), 1: f_1}, S, S, 0, 2)
        items = {i.name: i for i in ibl_morphism_check(f, ibl4, ibl4).items}
        assert items["f(1) = 1"].verdict == "FAIL"
        routes = [name for name in items if name[:3] in ("(b)", "(c)", "(d)")]
        assert len(routes) == 3
        for name in routes:
            assert (items[name].verdict, items[name].detail) == ("UNDETERMINED", "needs f(1) = 1")


class TestIBLMC:
    def test_zero_is_mc(self, ibl4):
        ok, res = ibl_mc_check(ibl4, Vector(), mc_lift(ibl4, 3))
        assert ok

    def test_shape_guard(self, ibl4):
        with pytest.raises(ValueError):
            ibl_mc_check(ibl4, flat({0: Vector.basis((0, 2))}), mc_lift(ibl4, 3))

    def test_order_zero_candidates(self, f4, ibl4):
        # x supported at order zero in U: MC iff Maurer-Cartan for the
        # order-zero structure; here delta(u3) has only t^1-terms, so the
        # residual of c*u3 sits at order one unless it cancels
        x = flat({0: Vector.basis((2,), 1)})
        ok, res = ibl_mc_check(ibl4, x, mc_lift(ibl4, 3))
        if not ok:
            assert all(n >= 1 for n, _ in res.keys())

    def test_mc_lattice_and_kuranishi(self, f4, ibl4):
        res = ibl_transfer(ibl4, f4.contraction, arity_bound=3)
        samples_U, samples_V = lattice_samples()
        lift = mc_lift(ibl4, 4)
        mc_U = [x for x in samples_U if ibl_mc_check(ibl4, x, lift)[0]]
        assert mc_U, "expected at least one evaluated Maurer-Cartan sample"
        rep = ibl_kuranishi_report(ibl4, res, 4, samples_U, samples_V)
        assert rep.ok, rep.to_text()
        names = [item.name for item in rep.items]
        assert len(names) == len(set(names)), names
        for side, samples in (("U", samples_U), ("V", samples_V)):
            assert (rep.bounds[f"{side} samples evaluated"]
                    + rep.bounds[f"{side} samples undetermined"] == len(samples)), side

    def test_kuranishi_report_reuses_its_koszul_lifts(self, f4, ibl4, monkeypatch):
        # every residual the report forms is a Maurer-Cartan sum of its own
        # Koszul-bracket lifts (data.Q on U, lifts.r on V), which cache each
        # word: no (space, word) is bracketed twice over all the samples.  A
        # word beyond the word bound raises Overflow, and the lift keeps that
        # refusal too, so brackets that raise count as well
        res = ibl_transfer(ibl4, f4.contraction, arity_bound=3)
        samples_U, samples_V = lattice_samples()
        calls = []

        def recorded(A, delta, keys, memo=None):
            calls.append((A.space, keys))
            return koszul_recursion(A, delta, keys, memo)

        monkeypatch.setattr(commalg, "koszul_recursion", recorded)
        assert ibl_kuranishi_report(ibl4, res, 4, samples_U, samples_V).ok
        assert calls
        assert len(calls) == len(set(calls)), (len(calls), len(set(calls)))

    def test_unstable_inverse_is_undetermined(self, f4, ibl4):
        # at arity cap 2 the V samples c v, c = 1, -1, 2, are Maurer-Cartan, but the
        # fixed point of their inverse does not stabilize within 12 steps: the
        # claims on them are UNDETERMINED, and the ConvergenceFault does not escape
        res = ibl_transfer(ibl4, f4.contraction, arity_bound=3)
        samples_V = [flat({0: Vector.basis((0,), c)}) for c in (1, -1, 2)]
        lift = mc_lift(res.target, 2)
        assert all(ibl_mc_check(res.target, y, lift)[0] for y in samples_V)
        rep = ibl_kuranishi_report(ibl4, res, 2, [], samples_V)
        assert [(i.name, i.verdict) for i in rep.items] == [
            (f"remaining claims on V sample {i}", "UNDETERMINED") for i in range(3)]
        assert all(i.detail.startswith("fixed point did not stabilize: ") for i in rep.items)
        assert rep.bounds["V samples Maurer-Cartan"] == 3
