import random
from fractions import Fraction as Q

import pytest

from gradedhpt.core import GradedBasis, LinOp, Vector
from gradedhpt.bv import (
    algebra_dual_coalgebra,
    bv_check,
    bv_kuranishi_report,
    bv_leading_term_identity,
    bv_mc_check,
    bv_mc_pushforward,
    bv_mc_residual,
    bv_morphism_check,
    bv_to_poisson,
    bv_transfer,
    cl_bijection,
    cl_vanishing_defect,
    coalgebra_dual_algebra,
    cobv_check,
    cobv_transfer,
    dual_linop,
    verify_poisson,
)
from gradedhpt.commalg import (
    ExplicitFDAlgebra,
    GuardedFreeAlgebra,
    SymWordAlgebra,
    derivation_defect,
    diff_order,
    koszul_recursion,
)
from gradedhpt.fixtures import fix2
from gradedhpt.hpt import Contraction, words_over
from gradedhpt.symcoalg import SymSpace, TaylorCoderivation
from gradedhpt.tseries import LaurentVec, TOp, TruncatedTAlgebra, laurent_apply, laurent_exp


@pytest.fixture(scope="module")
def f2():
    return fix2()


@pytest.fixture(scope="module")
def keys2(f2):
    return f2.low_keys(2)


class TestTSeries:
    def test_compose_and_bracket(self, f2):
        D = f2.delta_series()
        sq = D @ D
        assert sq.is_zero_on(f2.A.space.keys(), 4)
        br = D.bracket(D)
        assert br.is_zero_on(f2.A.space.keys(), 4)

    def test_truncation_tracking(self, f2):
        D = f2.delta_series()
        truncated = TOp(D.coeffs, D.domain, D.codomain, D.degree, D.t_degree, known_to=1)
        comp = truncated @ D
        assert comp.known_to == 1

    def test_quotient_algebra(self, f2):
        At = TruncatedTAlgebra(f2.A, 2, 2)
        y = LaurentVec({0: f2.A.monomial({"y": 1})}).flatten()
        ty = LaurentVec({1: f2.A.monomial({"y": 1})}).flatten()
        prod = At.mul(y, ty)
        assert all(n == 1 for (n, _) in prod.keys())
        t3 = LaurentVec({2: f2.A.unit()}).flatten()
        assert At.mul(t3, ty).is_zero()


class TestBVCheck:
    def test_derivation_only_structure(self, f2, keys2):
        D = TOp({0: f2.d}, f2.A.space, f2.A.space, 1, 2)
        rep = bv_check(f2.A, D, -1, 3, 4, order_keys=keys2)
        assert rep.ok, rep.to_text()

    def test_fix2_certified(self, f2, keys2):
        # at N=4 and arity 5 the report holds every claim of N=3 and arity 4,
        # each on at least the same scope, plus K(Delta)_5; every claim passes
        rep = bv_check(f2.A, f2.delta_series(), -1, 4, 5, order_keys=keys2)
        names = {i.name for i in rep.items}
        assert {"K(Delta)_5 = 0 mod t^4", "flatness at order 2"} <= names
        assert len(rep.items) == 13 and rep.ok, rep.to_text()

    def test_delta1_has_order_exactly_two(self, f2, keys2):
        assert diff_order(f2.A, f2.delta1, 3, keys2) == 2
        # the specific nonvanishing bracket on (y, dz)
        y = f2.A.monomial({"y": 1})
        dz = f2.A.monomial({"dz": 1})
        val = koszul_recursion(f2.A, f2.delta1, (y, dz))
        assert not val.is_zero()

    def test_order_three_corruption_fails(self, f2, keys2):
        A = f2.A

        def bad_fn(key):
            a, b, c, e = key
            if a >= 2 and c == 1:
                return A.monomial({"y": a - 2, "z": b, "dz": e}, a * (a - 1))
            return Vector.zero()

        bad = LinOp(A.space, A.space, -1, bad_fn, "O3")
        keys1 = f2.low_keys(1)
        assert diff_order(A, bad, 4, keys1) == 3
        D = TOp({0: f2.d, 1: f2.delta1 + bad}, A.space, A.space, 1, 2)
        rep = bv_check(A, D, -1, 3, 3, order_keys=keys1)
        assert rep.has_fail
        names = [i.name for i in rep.items if i.verdict == "FAIL"]
        assert any("order(Delta_1) <= 2" in n for n in names)
        assert any("K(Delta)_3 = 0 mod t^2" in n for n in names)

    def test_non_flat_series_fails_with_witness(self):
        # Delta = d + t d/d(dy): (Delta o Delta)_1 = [d, d/d(dy)] = d/dy, so flatness
        # fails at order 1 only, first on y, and it is the first FAIL
        f = fix2(3)
        A = f.A

        def d_ddy(key):
            a, b, c, e = key
            return A.monomial({"y": a, "z": b, "dz": e}) if c == 1 else Vector.zero()

        D = TOp({0: f.d, 1: LinOp(A.space, A.space, -1, d_ddy, "d/d(dy)")},
                A.space, A.space, 1, 2)
        rep = bv_check(A, D, -1, 2, 2, order_keys=f.low_keys(1))
        items = {i.name: i for i in rep.items}
        assert [items[f"flatness at order {n}"].verdict for n in range(3)] == ["PASS", "FAIL", "PASS"]
        first = next(i for i in rep.items if i.verdict == "FAIL")
        y = next(iter(A.monomial({"y": 1}).keys()))
        assert (first.name, first.detail) == ("flatness at order 1", f"witness {y}")

    def test_even_k_rejected(self, f2):
        with pytest.raises(ValueError):
            bv_check(f2.A, f2.delta_series(), 0, 2, 3)

    def test_undetermined_scoping(self, f2, keys2):
        rep = bv_check(f2.A, f2.delta_series(), -1, 1, 4, order_keys=keys2)
        und = [i.name for i in rep.items if i.verdict == "UNDETERMINED"]
        assert any("K(Delta)_3" in n for n in und)
        assert not rep.has_fail

    def test_scope_rule_under_a_low_guard(self):
        # at length bound 3, products of two length-2 keys leave the guard, and so
        # do products of four letters: what was not evaluated is never PASS
        f = fix2(3)
        orders = ("order(Delta_0) <= 1", "order(Delta_1) <= 2")
        congruences = [f"K(Delta)_{m} = 0 mod t^{m - 1}" for m in (2, 3, 4)]
        rep = bv_check(f.A, f.delta_series(), -1, 3, 4, order_keys=f.low_keys(2))
        verdicts = {i.name: i.verdict for i in rep.items}
        assert all(verdicts[n] == "UNDETERMINED" for n in orders + tuple(congruences))
        assert not rep.has_fail, rep.to_text()
        rep = bv_check(f.A, f.delta_series(), -1, 3, 4, order_keys=f.low_keys(1))
        verdicts = {i.name: i.verdict for i in rep.items}
        for name in orders:
            assert verdicts[name] == "PASS" and rep.bounds[f"scope: {name}"] == 3
        assert [verdicts[n] for n in congruences] == ["PASS", "PASS", "UNDETERMINED"]
        assert not rep.has_fail, rep.to_text()

    def test_congruences_computed_to_the_reliable_order(self):
        # a series reliable only to order 1 still decides the arity-2 congruence
        # mod t, which needs order 1; the higher arities name the order they
        # need, for a structure and for a morphism alike
        f = fix2(3)
        D = f.delta_series()
        truncated = TOp(D.coeffs, D.domain, D.codomain, D.degree, D.t_degree, known_to=1)
        ident = TOp({0: LinOp.identity(f.A.space)}, f.A.space, f.A.space, 0, 2, known_to=1)
        for label, rep in (
                ("K(Delta)", bv_check(f.A, truncated, -1, 3, 4, order_keys=f.low_keys(1))),
                ("kappa(f)", bv_morphism_check(ident, f.A, f.A, D, D, -1, 3, 4,
                                               keys=f.low_keys(1)))):
            items = {i.name: i for i in rep.items}
            assert items[f"{label}_2 = 0 mod t^1"].verdict == "PASS"
            for m in (3, 4):
                item = items[f"{label}_{m} = 0 mod t^{m - 1}"]
                assert (item.verdict, item.detail) == ("UNDETERMINED",
                                                       f"needs order {m - 1}, have 1")
            assert not rep.has_fail, rep.to_text()


class TestScopeRule:
    """The scope rule of the BV checkers, as ``tests/test_ibl_scope.py`` states it
    for the IBL layer: at guard 3, products of four letters leave the algebra,
    so no checker may raise, fail, or pass a claim it could not evaluate."""

    def test_no_overflow_escapes_and_nothing_fails(self):
        f = fix2(3)
        keys = f.low_keys(1)
        D = f.delta_series()
        ident = TOp({0: LinOp.identity(f.A.space)}, f.A.space, f.A.space, 0, 2)
        structure = bv_check(f.A, D, -1, 3, 4, order_keys=keys)
        morphism = bv_morphism_check(ident, f.A, f.A, D, D, -1, 3, 4, keys=keys)
        poisson = verify_poisson(f.A, D, -1, 4, keys=keys)
        transfer = bv_transfer(f.A, f.B, D, f.contraction, -1, 3, 4, keys_A=keys).report
        for rep in (structure, morphism, poisson, transfer):
            assert not rep.has_fail, rep.to_text()
        verdicts = {i.name: i.verdict for i in structure.items + morphism.items}
        assert verdicts["K(Delta)_4 = 0 mod t^3"] == "UNDETERMINED"
        assert [verdicts[f"kappa(f)_{m} = 0 mod t^{m - 1}"] for m in (2, 3, 4)] == \
            ["PASS", "PASS", "UNDETERMINED"]
        assert morphism.bounds["scope: kappa(f)_4 = 0 mod t^3"] == 3
        # P(Delta)_n is checked on n + 1 letters, so n = 3 already leaves the guard
        assert [i.verdict for i in poisson.items] == \
            ["PASS", "PASS", "PASS", "UNDETERMINED", "UNDETERMINED"]
        assert poisson.bounds["scope: P(Delta)^2 = 0"] == 3
        # the L-infinity[1] transfer of P(Delta) itself leaves the guard
        assert transfer.items[-1].name == "Poisson image commutes with transfer"
        assert transfer.items[-1].verdict == "UNDETERMINED"


class TestBVMorphism:
    def test_identity_morphism(self, f2, keys2):
        D = f2.delta_series()
        ident = TOp({0: LinOp.identity(f2.A.space)}, f2.A.space, f2.A.space, 0, 2)
        rep = bv_morphism_check(ident, f2.A, f2.A, D, D, -1, 3, 4, keys=keys2)
        assert rep.ok, rep.to_text()

    def test_isomorphism_case(self, f2, keys2):
        # f_0 scaling by units is an algebra iso only when it preserves products;
        # the genuine test: f_0 = id, f_1 = 0 must intertwine coefficientwise
        D = f2.delta_series()
        f1 = LinOp(f2.A.space, f2.A.space, -2,
                   lambda k: Vector.zero(), "0")
        f = TOp({0: LinOp.identity(f2.A.space), 1: f1}, f2.A.space, f2.A.space, 0, 2)
        rep = bv_morphism_check(f, f2.A, f2.A, D, D, -1, 2, 3, keys=keys2)
        assert rep.ok


class TestPoisson:
    def test_components(self, f2, keys2):
        P = bv_to_poisson(f2.A, f2.delta_series(), -1, 4)
        for k in keys2:
            assert P.component(1, (k,)) == f2.d.on_key(k)
        y, dz = (0, 0, 0, 0), (0, 0, 0, 1)
        y = (1, 0, 0, 0)
        pair = tuple(sorted([y, dz]))
        val = P.component(2, pair)
        expect = koszul_recursion(f2.A, f2.delta1, (Vector.basis(pair[0]), Vector.basis(pair[1])))
        assert val == expect and not val.is_zero()

    def test_verify_poisson(self, f2, keys2):
        rep = verify_poisson(f2.A, f2.delta_series(), -1, 3, keys=keys2)
        assert rep.ok, rep.to_text()

    def test_lie_morphism_on_candidates(self, f2, keys2):
        # P([Delta, Delta']) = [P(Delta), P(Delta')] for order-filtered candidates
        A = f2.A
        yP_fn = lambda key: A.mul(A.monomial({"y": 1}), f2.P.on_key(key))
        yP = LinOp(A.space, A.space, -2, yP_fn, "yP")
        delta1_alt = f2.d.bracket(yP)
        D1 = f2.delta_series()
        D2 = TOp({0: f2.d, 1: delta1_alt}, A.space, A.space, 1, 2)
        br = D1.bracket(D2)
        P_br = bv_to_poisson(A, br.scale(Q(1, 1)), -1, 3)
        P1 = bv_to_poisson(A, D1, -1, 3)
        P2 = bv_to_poisson(A, D2, -1, 3)
        lhs_tables = P1.bracket(P2)
        for word in words_over(P1.base, keys2, 3, min_weight=1):
            n = len(word)
            # [Delta, Delta'] has total degree 2 = even, so P of it needs the
            # degree-one convention; compare componentwise instead
            assert P_br.component(n, word) == lhs_tables.component(n, word), (n, word)


class TestBVTransfer:
    def test_fix2_transfer(self, f2, keys2):
        res = bv_transfer(f2.A, f2.B, f2.delta_series(), f2.contraction, -1, 3, 3,
                          keys_A=keys2, keys_B=None)
        assert res.report.ok, res.report.to_text()
        # collapse case: h Delta_1 tau = 0 here, so Delta'_1 = sigma Delta_1 tau
        lead = (f2.contraction.sigma @ f2.delta1) @ f2.contraction.tau
        assert res.delta_B.coeff(1).first_difference(lead, f2.B.space.keys()) is None

    def test_zero_higher_part(self, f2):
        D = TOp({0: f2.d}, f2.A.space, f2.A.space, 1, 2)
        res = bv_transfer(f2.A, f2.B, D, f2.contraction, -1, 2, 2,
                          keys_A=f2.low_keys(1))
        assert res.report.ok
        assert res.delta_B.coeff(1).is_zero_on(f2.B.space.keys())
        assert res.tau.coeff(0).first_difference(f2.contraction.tau, f2.B.space.keys()) is None


def laurent_top_form(f2, poly: dict, coeff=1) -> LaurentVec:
    v = f2.A.monomial({**poly, "dy": 1, "dz": 1}, coeff)
    return LaurentVec({-1: v})


class TestBVMC:
    def test_zero_candidate(self, f2):
        ok, res = bv_mc_check(f2.A, f2.delta_series(), LaurentVec({}), -1, 3, 2)
        assert ok and res.is_zero()

    def test_constant_dydz_is_mc(self, f2):
        a = laurent_top_form(f2, {}, 3)
        ok, res = bv_mc_check(f2.A, f2.delta_series(), a, -1, 3, 2, nilpotency=2)
        assert ok, res.coeffs

    def test_nonconstant_fails(self, f2):
        a = laurent_top_form(f2, {"y": 1})
        ok, res = bv_mc_check(f2.A, f2.delta_series(), a, -1, 3, 2, nilpotency=2)
        assert not ok
        assert res.coeff(0) == f2.delta1(a.coeff(-1))

    def test_leading_term_identity(self, f2):
        for poly in ({}, {"y": 1}, {"y": 1, "z": 2}):
            a = laurent_top_form(f2, poly) + LaurentVec({0: f2.A.monomial({"y": 2})})
            assert bv_leading_term_identity(f2.A, f2.delta_series(), a, 2)

    def test_pole_and_degree_guards(self, f2):
        with pytest.raises(ValueError):
            bv_mc_check(f2.A, f2.delta_series(), LaurentVec({-2: f2.A.unit()}), -1, 3, 2)
        with pytest.raises(ValueError):
            bv_mc_check(f2.A, f2.delta_series(),
                        LaurentVec({-1: f2.A.monomial({"y": 1})}), -1, 3, 2)

    def test_repeated_power_weights(self):
        # K[x]/(x^3) (x) Lambda(eta), |x| = 0, |eta| = -1, Delta = t eta d^2/dx^2 and
        # a = c x: every term of the residual repeats the power t^0 of a, and
        # K_2(x, x) = 2 eta, K_3(x, x, x) = -6 x eta, K_4(x, x, x, x) = 12 x^2 eta
        # are nonzero, so each multinomial weight 1/m! shows in the result
        A = GuardedFreeAlgebra([("x", 0, 3), ("eta", -1, None)], 4)

        def d2_fn(key):
            e, eta = key
            if e >= 2 and eta == 0:
                return A.monomial({"x": e - 2, "eta": 1}, e * (e - 1))
            return Vector.zero()

        Delta = TOp({1: LinOp(A.space, A.space, -1, d2_fn, "eta d2")}, A.space, A.space, 1, 2)
        f0 = LinOp(A.space, A.space, 0, lambda k: Vector.basis(k, 2 if k == (2, 0) else 1), "f")
        f = TOp({0: f0}, A.space, A.space, 0, 2)
        for c in (1, 3):
            a = LaurentVec({0: A.monomial({"x": 1}, c)})
            # e^{-a} Delta(e^a) = t (c^2 eta - c^3 x eta + c^4/2 x^2 eta), cross-checked
            ok, res = bv_mc_check(A, Delta, a, -1, 3, 4, nilpotency=3)
            assert not ok
            assert res == LaurentVec({1: A.monomial({"eta": 1}, c ** 2)
                                      + A.monomial({"x": 1, "eta": 1}, -c ** 3)
                                      + A.monomial({"x": 2, "eta": 1}, Q(c ** 4, 2))})
            assert bv_mc_residual(A, Delta, a, 4) == res
            # kappa(f0)_2(x, x) = x^2: the push-forward is b = c x + c^2/2 x^2, with
            # e^b = f0(e^a)
            b = bv_mc_pushforward(f, A, A, a, -1, 3, 4)
            assert b == LaurentVec({0: A.monomial({"x": 1}, c) + A.monomial({"x": 2}, Q(c ** 2, 2))})
            assert laurent_exp(A, b, 3) == LaurentVec({0: f0(laurent_exp(A, a, 3).coeff(0))})

    def test_pushforward_and_kuranishi(self, f2, keys2):
        D = f2.delta_series()
        res = bv_transfer(f2.A, f2.B, D, f2.contraction, -1, 3, 3, keys_A=keys2)
        # Maurer-Cartan lattice upstairs: c * dydz / t + c0
        samples_A = []
        for c in (0, 1, -2):
            for c0 in (0, 2):
                samples_A.append(laurent_top_form(f2, {}, c)
                                 + LaurentVec({0: f2.A.unit().scale(c0)}))
        samples_B = [LaurentVec({0: f2.B.unit().scale(c)}) for c in (0, 1, -1, 3)]
        rep = bv_kuranishi_report(f2.A, f2.B, D, res, -1, 3, 2, samples_B, samples_A)
        assert rep.ok, rep.to_text()
        names = [item.name for item in rep.items]
        assert len(names) == len(set(names)), names
        # nontrivial exclusion: the top-form direction is not in Ker(h)
        a = laurent_top_form(f2, {}, 1)
        ok, _ = bv_mc_check(f2.A, D, a, -1, 3, 2)
        assert ok
        assert not laurent_apply(res.h, a).is_zero()


class TestCLBijection:
    def setup_method(self):
        self.U = GradedBasis.make([("p", 0), ("q", 1)])
        self.SU = SymSpace(self.U, 4)
        self.SU_alg = SymWordAlgebra(self.SU)
        self.B = GradedBasis.make([("1", 0), ("m", 0), ("n", 1)])
        self.B_alg = ExplicitFDAlgebra(self.B, {(1, 1): Vector.zero(), (1, 2): Vector.zero(),
                                                (2, 2): Vector.zero()}, 0)
        self.Bt = TruncatedTAlgebra(self.B_alg, 3, 2)
        self.DU = TOp({}, self.SU, self.SU, 1, 2)
        self.DB = TOp({}, self.B_alg.space, self.B_alg.space, 1, 2)

    def rand_phi(self, rng, cl_valid: bool) -> LinOp:
        images = {}
        for word in self.SU.keys():
            if not word:
                images[word] = Vector.zero()
                continue
            out = Vector()
            for m in range(0, 4):
                if cl_valid and len(word) > m + 1:
                    continue
                for key in self.B.keys():
                    if self.B.degree(key) == self.SU.degree(word) - 2 * m and rng.random() < 0.6:
                        out.c[(m, key)] = Q(rng.randint(-2, 2))
            out.c = {k: v for k, v in out.c.items() if v}
            images[word] = out
        return LinOp.from_dict(self.SU, self.Bt.space, 0, images, "phi")

    def test_zero_data(self):
        phi = LinOp.zero(self.SU, self.Bt.space, 0)
        out = cl_bijection(phi, self.SU, self.SU_alg, self.Bt, self.DU, self.DB, 4)
        assert out.report.ok
        F = out.exp_map
        assert F.on_key(()) == self.Bt.unit()
        assert all(F.on_key(w).is_zero() for w in self.SU.keys() if w)

    def test_random_cl_data_bijection(self):
        rng = random.Random(301)
        for trial in range(6):
            phi = self.rand_phi(rng, cl_valid=True)
            out = cl_bijection(phi, self.SU, self.SU_alg, self.Bt, self.DU, self.DB, 4)
            assert out.report.ok, (trial, out.report.to_text())
            assert cl_vanishing_defect(phi, self.SU) is None
            assert "kappa=True" in self.equivalence(out).detail

    def test_corrupted_data_fails_both_routes(self):
        rng = random.Random(307)
        for trial in range(8):
            phi = self.rand_phi(rng, cl_valid=False)
            if cl_vanishing_defect(phi, self.SU) is None:
                continue
            out = cl_bijection(phi, self.SU, self.SU_alg, self.Bt, self.DU, self.DB, 4)
            # equivalence item must still PASS (both sides false together)
            assert out.report.ok, (trial, out.report.to_text())
            assert "kappa=False" in self.equivalence(out).detail
            return
        pytest.skip("no corrupted draw")

    @staticmethod
    def equivalence(out):
        return next(i for i in out.report.items
                    if i.name == "vanishing condition <=> cumulant congruence")

    def test_undecided_congruence_is_undetermined(self):
        # at N = 2 the arity-4 congruence needs order 3: the equivalence cannot
        # be decided, though the arities it can decide agree with cl
        Bt = TruncatedTAlgebra(self.B_alg, 2, 2)
        phi = LinOp.zero(self.SU, Bt.space, 0)
        out = cl_bijection(phi, self.SU, self.SU_alg, Bt, self.DU, self.DB, 4)
        item = self.equivalence(out)
        assert (item.verdict, item.detail) == ("UNDETERMINED", "cl=True, kappa=None")
        assert not out.report.has_fail, out.report.to_text()

    def test_chain_map_instance(self):
        # exp data of S(g) for a chain map g intertwines the induced structures
        U = GradedBasis.make([("a", 0), ("b", 1)])
        SU = SymSpace(U, 3)
        SU_alg = SymWordAlgebra(SU)
        V = GradedBasis.make([("1", 0), ("abar", 0)])
        V_alg = ExplicitFDAlgebra(V, {(1, 1): Vector.zero()}, 0)
        Vt = TruncatedTAlgebra(V_alg, 2, 2)
        d = LinOp.from_dict(U, U, 1, {0: Vector.basis(1)}, "d")
        DU = TOp({0: TaylorCoderivation.from_linear(d).as_map(SU)}, SU, SU, 1, 2)
        DV = TOp({}, V_alg.space, V_alg.space, 1, 2)
        g = LinOp.from_dict(U, V, 0, {}, "g")  # kills everything (only H^0 trivial here)

        def phi_fn(word):
            # log of S(g): weight-1 words only, value g(x) at t^0
            if len(word) == 1:
                return Vector({(0, k): c for k, c in g.on_key(word[0]).items()})
            return Vector.zero()

        phi = LinOp(SU, Vt.space, 0, phi_fn, "phi")
        out = cl_bijection(phi, SU, SU_alg, Vt, DU, DV, 3)
        assert out.report.ok, out.report.to_text()


class TestCoBV:
    def test_dualization_involution(self, f2):
        alg, keys, index = f2.truncation(2)
        C = algebra_dual_coalgebra(alg)
        back = coalgebra_dual_algebra(C)
        for i in alg.basis.keys():
            for j in alg.basis.keys():
                assert back.mul_keys(i, j) == alg.mul_keys(i, j), (i, j)

    def test_dual_map_contravariance(self, f2):
        alg, keys, index = f2.truncation(2)
        dual = algebra_dual_coalgebra(alg).basis
        f = LinOp.from_dict(alg.basis, alg.basis, 1,
                            {index[(1, 0, 0, 0)]: Vector.basis(index[(0, 0, 1, 0)])}, "f")
        g = LinOp.from_dict(alg.basis, alg.basis, -1,
                            {index[(0, 0, 1, 0)]: Vector.basis(index[(0, 0, 0, 0)])}, "g")
        gf = g @ f
        fd = dual_linop(f, dual, dual)
        gd = dual_linop(g, dual, dual)
        sign = -1 if (f.degree * g.degree) % 2 else 1
        lhs = dual_linop(gf, dual, dual)
        rhs = (fd @ gd).scale(sign)
        assert lhs.first_difference(rhs, dual.keys()) is None

    def test_dual_of_integral_data_is_integral(self, f2):
        # int-first scalars: dualizing integral structure constants and an
        # integral map stores ints, not the Fractions that v[key] hands out
        alg, keys, index = f2.truncation(2)
        C = algebra_dual_coalgebra(alg)
        cop = [c for terms in C.cop.values() for _, _, c in terms]
        assert cop and all(type(c) is int for c in cop)
        f = LinOp.from_dict(alg.basis, alg.basis, 1,
                            {index[(1, 0, 0, 0)]: Vector.basis(index[(0, 0, 1, 0)], 2)}, "f")
        fd = dual_linop(f, C.basis, C.basis)
        images = [c for j in C.basis.keys() for _, c in fd.on_key(j).items()]
        assert [abs(c) for c in images] == [2] and all(type(c) is int for c in images)
        back = coalgebra_dual_algebra(C)
        prods = [c for i in back.basis.keys() for j in back.basis.keys()
                 for _, c in back.mul_keys(i, j).items()]
        assert prods and all(type(c) is int for c in prods)

    def exterior_three(self):
        basis = GradedBasis.make([("1", 0), ("u", 1), ("v", 1), ("w", 3), ("uv", 2),
                                  ("uw", 4), ("vw", 4), ("uvw", 5)])
        prods = {
            (1, 1): Vector.zero(), (2, 2): Vector.zero(), (3, 3): Vector.zero(),
            (1, 2): Vector.basis(4), (1, 3): Vector.basis(5), (2, 3): Vector.basis(6),
            (1, 6): Vector.basis(7), (2, 5): Vector.basis(7, -1), (3, 4): Vector.basis(7),
            (1, 4): Vector.zero(), (2, 4): Vector.zero(), (3, 5): Vector.zero(),
            (3, 6): Vector.zero(), (1, 5): Vector.zero(), (2, 6): Vector.zero(),
            (4, 4): Vector.zero(), (4, 5): Vector.zero(), (4, 6): Vector.zero(),
            (5, 5): Vector.zero(), (5, 6): Vector.zero(), (6, 6): Vector.zero(),
            (4, 7): Vector.zero(), (5, 7): Vector.zero(), (6, 7): Vector.zero(),
            (7, 7): Vector.zero(), (1, 7): Vector.zero(), (2, 7): Vector.zero(),
            (3, 7): Vector.zero(),
        }
        return ExplicitFDAlgebra(basis, prods, 0)

    def test_cobv_valid_instance(self):
        # exterior algebra on u, v, w (|w| = 3) with the degree -1 derivation
        # w -> uv at first order: a valid derived BV algebra whose dual is
        # certified both by dualization and by the direct cobracket recursion.
        # (An honest order-two coefficient of odd total degree needs an even
        # generator, hence the guarded backend: see the two-variable fixture.)
        alg = self.exterior_three()
        basis = alg.basis
        delta1 = LinOp.from_dict(basis, basis, -1, {3: Vector.basis(4)}, "dw")
        assert derivation_defect(alg, delta1) is None
        D = TOp({1: delta1}, basis, basis, 1, 2)
        primal = bv_check(alg, D, -1, 2, 3)
        assert primal.ok, primal.to_text()
        C = algebra_dual_coalgebra(alg)
        dual = C.basis
        delta_dual = TOp({1: dual_linop(delta1, dual, dual)}, dual, dual, 1, 2)
        rep = cobv_check(C, delta_dual, -1, 2, 3)
        assert rep.ok, rep.to_text()

    def test_cobv_detects_order_violation_both_routes(self):
        # corrupt the valid instance by a component sending the top word down
        # three weights: order three, detected by dualization and by the direct
        # cobracket recursion alike
        alg = self.exterior_three()
        basis = alg.basis
        # valid part: the derivation w -> uv; corruption: uvw -> uw (order 3)
        delta1 = LinOp.from_dict(basis, basis, -1,
                                 {3: Vector.basis(4), 7: Vector.basis(5)}, "du")
        assert derivation_defect(alg, delta1) is not None
        D = TOp({1: delta1}, basis, basis, 1, 2)
        primal = bv_check(alg, D, -1, 2, 3)
        assert primal.has_fail
        C = algebra_dual_coalgebra(alg)
        dual = C.basis
        delta_dual = TOp({1: dual_linop(delta1, dual, dual)}, dual, dual, 1, 2)
        rep = cobv_check(C, delta_dual, -1, 2, 3)
        dual_fails = {i.name for i in rep.items if i.verdict == "FAIL"}
        assert any("order(Delta_1)" in n for n in dual_fails)
        assert any("coorder(delta_1)" in n for n in dual_fails), rep.to_text()

    def cobv_identity_transfer(self, images):
        # identity contraction of the dual coalgebra: sigma = tau = id, h = 0 and
        # zero differentials; delta_1 is the dual of the given degree -1 map
        alg = self.exterior_three()
        C = algebra_dual_coalgebra(alg)
        dual = C.basis
        idm = LinOp.identity(dual)
        con = Contraction(idm, idm, LinOp.zero(dual, degree=-1), LinOp.zero(dual, degree=1),
                          LinOp.zero(dual, degree=1))
        delta1 = LinOp.from_dict(alg.basis, alg.basis, -1, images, "delta1")
        delta = TOp({1: dual_linop(delta1, dual, dual)}, dual, dual, 1, 2)
        delta_D, _, _, _, rep = cobv_transfer(C, C, delta, con, -1, 2, 3)
        return delta, delta_D, rep

    def test_cobv_transfer_along_identity(self):
        # w -> uv: the transferred structure is the input, and all checks pass
        delta, delta_D, rep = self.cobv_identity_transfer({3: Vector.basis(4)})
        keys = delta.domain.keys()
        assert all(delta_D.coeff(n).first_difference(delta.coeff(n), keys) is None for n in range(3))
        semifull = [i for i in rep.items if i.name.startswith("semifull: ")]
        assert len(semifull) == 12
        assert rep.ok and len(rep.items) == 34, rep.to_text()

    def test_cobv_transfer_reports_a_contraction_that_is_not_semifull(self):
        # sigma = tau swaps the duals of u and v and fixes the rest: an isomorphism
        # (h = 0) that respects the counit but not the coproduct of uv, uw, vw
        C = algebra_dual_coalgebra(self.exterior_three())
        dual = C.basis
        swap = LinOp.from_dict(dual, dual, 0, {k: Vector.basis({1: 2, 2: 1}.get(k, k))
                                               for k in dual.keys()}, "swap")
        con = Contraction(swap, swap, LinOp.zero(dual, degree=-1), LinOp.zero(dual, degree=1),
                          LinOp.zero(dual, degree=1))
        delta = TOp({1: LinOp.zero(dual, degree=-1)}, dual, dual, 1, 2)
        rep = cobv_transfer(C, C, delta, con, -1, 2, 3)[-1]
        verdicts = {i.name: i.verdict for i in rep.items if i.name.startswith("semifull: ")}
        assert verdicts.pop("semifull: (sigma(x)sigma) Delta tau = Delta_D") == "FAIL"
        assert set(verdicts.values()) == {"PASS"}, rep.to_text()

    def test_cobv_transfer_detects_order_violation(self):
        # adding uvw -> uw (order three) fails both order routes and the cobracket route
        _, _, rep = self.cobv_identity_transfer({3: Vector.basis(4), 7: Vector.basis(5)})
        fails = {i.name for i in rep.items if i.verdict == "FAIL"}
        assert "transferred: order(Delta_1) <= 2" in fails
        assert "transferred: K(Delta)_3 = 0 mod t^2" in fails
        assert "transferred: coorder(delta_1) <= 2 (direct recursion)" in fails, rep.to_text()

    def test_cobv_truncation_dual_agrees(self, f2):
        # the naive length-2 quotient of the two-variable fixture is NOT a valid
        # input: primal certification fails the order filtration, and the dual
        # operator even leaves the counit-killing class (it hits constants);
        # both sides must report failure
        alg, keys, index = f2.truncation(2)

        def descend(op):
            def fn(i):
                img = op.on_key(keys[i])
                return Vector({index[k]: c for k, c in img.items() if k in index})
            return LinOp(alg.basis, alg.basis, op.degree, fn, op.label + "~")

        D_tr = TOp({0: descend(f2.d), 1: descend(f2.delta1)}, alg.basis, alg.basis, 1, 2)
        primal = bv_check(alg, D_tr, -1, 2, 3)
        assert primal.has_fail
        primal_fails = {i.name for i in primal.items if i.verdict == "FAIL"}
        assert any("order(Delta_1)" in n for n in primal_fails)
        C = algebra_dual_coalgebra(alg)
        dual = C.basis
        delta_dual = TOp({n: dual_linop(op, dual, dual) for n, op in D_tr.coeffs.items()},
                         dual, dual, 1, 2)
        rep = cobv_check(C, delta_dual, -1, 2, 3)
        dual_fails = {i.name for i in rep.items if i.verdict == "FAIL"}
        assert any("order(Delta_1)" in n for n in dual_fails)
        assert any("kills the coaugmentation" in n for n in dual_fails)
