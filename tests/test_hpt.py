import itertools
import random
from fractions import Fraction as Q
from math import factorial

import pytest

from gradedhpt.bv import algebra_dual_coalgebra
from gradedhpt.core import ConvergenceFault, GradedBasis, LinOp, Vector, koszul_sign
from gradedhpt.commalg import (
    ExplicitFDAlgebra,
    GuardedFreeAlgebra,
    SymWordAlgebra,
    cumulant_recursion,
    exp_endomorphism,
)
from gradedhpt.fixtures import (
    SCALARS,
    fix1,
    fix1_perturbation,
    fix2_mid,
    fix2_mid_perturbation,
    fix3,
    fix3_extended,
    fix4,
)
from gradedhpt.hpt import (
    Contraction,
    Perturbation,
    check_semifull_algebra,
    check_semifull_coalgebra,
    hat_homotopy,
    linf_transfer,
    perturb,
    semifull_failure_identities,
    symmetrized_contraction,
    verify_prop_transfer,
)
from gradedhpt.randgen import random_homogeneous
from gradedhpt.symcoalg import SymSpace, TaylorCoderivation, assemble_word


def small_complex():
    """(U, d) with a contractible pair and a surviving class, contracted onto H."""
    U = GradedBasis.make([("a", 0), ("b", 1), ("e", 0)])
    V = GradedBasis.make([("ebar", 0)])
    d = LinOp.from_dict(U, U, 1, {0: Vector.basis(1)}, "d")
    sigma = LinOp.from_dict(U, V, 0, {2: Vector.basis(0)}, "sigma")
    tau = LinOp.from_dict(V, U, 0, {0: Vector.basis(2)}, "tau")
    h = LinOp.from_dict(U, U, -1, {1: Vector.basis(0, -1)}, "h")
    return Contraction(sigma, tau, h, d, LinOp.zero(V, degree=1))


class TestContraction:
    def test_fix1_axioms_hold(self):
        f = fix1()
        C = f.contraction
        lhs = C.h @ C.d_A + C.d_A @ C.h
        rhs = C.tau @ C.sigma - LinOp.identity(C.space_A)
        assert lhs.first_difference(rhs, f.A.space.keys()) is None

    def test_broken_axiom_detected(self):
        f = fix1()
        C = f.contraction
        bad_h = C.h + LinOp.from_dict(f.A.space, f.A.space, -1,
                                      {f.A.space.keys()[2]: f.A.unit()})
        with pytest.raises(ValueError):
            Contraction(C.sigma, C.tau, bad_h, C.d_A, C.d_B)


class TestSemifullAlgebra:
    def test_fix1_passes_with_dg_strength(self):
        f = fix1()
        keys = [k for k in f.A.space.keys() if sum(k) <= 3]
        rep = check_semifull_algebra(f.contraction, f.A, SCALARS, keys_A=keys)
        assert rep.ok and rep.bounds["dg_strength"] == "checked"
        # the eight identities and the four DG identities, each evaluated
        assert len(rep.items) == 12

    def test_identity_contraction_passes(self):
        f = fix1()
        A = f.A
        idm = LinOp.identity(A.space)
        C = Contraction(idm, idm, LinOp.zero(A.space, degree=-1), f.d, f.d)
        keys = [k for k in A.space.keys() if sum(k) <= 3]
        rep = check_semifull_algebra(C, A, A, keys_A=keys, keys_B=keys)
        assert rep.ok

    def test_corrupted_homotopy_fails_with_witness(self):
        f = fix1()
        A = f.A
        C = f.contraction
        dy = A.space.keys()[A.space.keys().index((0, 1))] if False else (0, 1)
        bad_h = C.h + LinOp.from_dict(A.space, A.space, -1, {dy: A.unit()})
        broken = Contraction(C.sigma, C.tau, bad_h, C.d_A, C.d_B, verify_on_init=False)
        keys = [k for k in A.space.keys() if sum(k) <= 2]
        rep = check_semifull_algebra(broken, A, SCALARS, keys_A=keys)
        assert not rep.ok
        assert any(i.verdict == "FAIL" and i.detail.startswith("witness") for i in rep.items)

    def test_failure_identities_nonderivation(self):
        # after a flat non-derivation perturbation the bis-defects equal h/sigma of K_2
        f = fix1()
        delta, cert = fix1_perturbation(f)
        _, pert = perturb(f.contraction, Perturbation(delta, cert))
        keys = [k for k in f.A.space.keys() if sum(k) <= 2]
        rep = semifull_failure_identities(pert, f.A, SCALARS, keys_A=keys)
        assert rep.ok and len(rep.items) == 4

    def test_perturbed_contraction_stays_semifull(self):
        f = fix1()
        delta, cert = fix1_perturbation(f)
        _, pert = perturb(f.contraction, Perturbation(delta, cert))
        keys = [k for k in f.A.space.keys() if sum(k) <= 3]
        rep = check_semifull_algebra(pert, f.A, SCALARS, keys_A=keys)
        assert rep.ok
        # the perturbed differential is no longer a derivation
        assert rep.bounds["dg_strength"] == "d_A not a derivation on the corpus"

    def test_negative_degree_keys(self):
        # FIX-1 moved to |y| = -2, |dy| = -1: the bis-identity sign (-1)^(|a|+1)
        # of the keys y, y^2, y^3 has a negative exponent
        A = GuardedFreeAlgebra([("y", -2, None), ("dy", -1, None)], 8)

        def d_fn(key):
            e, c = key
            return A.monomial({"y": e - 1, "dy": 1}, e) if e >= 1 and c == 0 else Vector.zero()

        def h_fn(key):
            e, c = key
            return A.monomial({"y": e + 1}, Q(-1, e + 1)) if c == 1 else Vector.zero()

        unit = A.unit_key
        C = Contraction(
            LinOp(A.space, SCALARS.space, 0,
                  lambda k: Vector.basis(0) if k == unit else Vector.zero(), "sigma"),
            LinOp(SCALARS.space, A.space, 0, lambda k: A.unit(), "tau"),
            LinOp(A.space, A.space, -1, h_fn, "h"), LinOp(A.space, A.space, 1, d_fn, "d"),
            LinOp.zero(SCALARS.space, degree=1))
        keys = [k for k in A.space.keys() if sum(k) <= 3]
        assert min(A.space.degree(k) for k in keys) == -6
        rep = check_semifull_algebra(C, A, SCALARS, keys_A=keys)
        assert rep.ok and rep.bounds["dg_strength"] == "checked", rep.to_text()
        assert len(rep.items) == 12

    def test_guard_leaves_identities_undetermined(self):
        # at length bound 3 some products of pairs leave the guard: those
        # identities are undetermined, never passed, and nothing fails
        f = fix1(3)
        rep = check_semifull_algebra(f.contraction, f.A, SCALARS)
        assert not rep.ok and not rep.has_fail, rep.to_text()
        assert rep.has_undetermined


class TestSPL:
    def test_zero_perturbation(self):
        f = fix1()
        delta_B, pert = perturb(f.contraction, Perturbation(LinOp.zero(f.A.space, degree=1), 1))
        keys = f.A.space.keys()
        assert delta_B.is_zero_on(SCALARS.space.keys())
        assert pert.h.first_difference(f.contraction.h, keys) is None
        assert pert.tau.first_difference(f.contraction.tau, SCALARS.space.keys()) is None

    def test_series_shape(self):
        f = fix1()
        delta, cert = fix1_perturbation(f)
        C = f.contraction
        delta_B, pert = perturb(C, Perturbation(delta, cert))
        # only h moves on FIX-1; sigma and tau move on the small complex below
        moved = self.assert_defining_series(C, delta, cert, pert)
        assert moved == {"sigma": False, "tau": False, "h": True}
        expect = LinOp.zero(SCALARS.space, degree=1)
        hd = C.h @ delta
        pw = LinOp.identity(f.A.space)
        for n in range(cert):
            expect = expect + ((C.sigma @ delta) @ pw) @ C.tau
            pw = hd @ pw
        assert delta_B.first_difference(expect, SCALARS.space.keys()) is None
        # leading term sigma delta tau
        lead = (C.sigma @ delta) @ C.tau
        tail = delta_B - lead
        rest = LinOp.zero(SCALARS.space, degree=1)
        pw = hd
        for n in range(1, cert):
            rest = rest + ((C.sigma @ delta) @ pw) @ C.tau
            pw = hd @ pw
        assert tail.first_difference(rest, SCALARS.space.keys()) is None

    def test_series_shape_on_a_small_complex(self):
        # a -> b contracted away, c and e survive; delta: a -> e, c -> b makes
        # (h delta)(c) = -a, so tau, sigma and the transferred differential move
        U = GradedBasis.make([("a", 0), ("b", 1), ("c", 0), ("e", 1)])
        V = GradedBasis.make([("cbar", 0), ("ebar", 1)])
        C = Contraction(
            LinOp.from_dict(U, V, 0, {2: Vector.basis(0), 3: Vector.basis(1)}, "sigma"),
            LinOp.from_dict(V, U, 0, {0: Vector.basis(2), 1: Vector.basis(3)}, "tau"),
            LinOp.from_dict(U, U, -1, {1: Vector.basis(0, -1)}, "h"),
            LinOp.from_dict(U, U, 1, {0: Vector.basis(1)}, "d"), LinOp.zero(V, degree=1))
        delta = LinOp.from_dict(U, U, 1, {0: Vector.basis(3), 2: Vector.basis(1)}, "delta")
        delta_B, pert = perturb(C, Perturbation(delta, 2))
        assert delta_B.on_key(0) == Vector.basis(1, -1)
        moved = self.assert_defining_series(C, delta, 2, pert)
        assert moved == {"sigma": True, "tau": True, "h": False}

    @staticmethod
    def assert_defining_series(C, delta, cert, pert) -> dict:
        """Check sigma' = sigma sum (delta h)^n, tau' = sum (h delta)^n tau and
        h' = sum (h delta)^n h over n < cert, each power formed on its own, and
        say which of the three differ from the unperturbed map."""
        hd, dh = C.h @ delta, delta @ C.h
        sigma, tau, h = C.sigma, C.tau, C.h
        for n in range(1, cert):
            sigma = sigma + C.sigma @ dh.power(n)
            tau = tau + hd.power(n) @ C.tau
            h = h + hd.power(n) @ C.h
        keys_A, keys_B = C.space_A.keys(), C.space_B.keys()
        assert pert.sigma.first_difference(sigma, keys_A) is None
        assert pert.tau.first_difference(tau, keys_B) is None
        assert pert.h.first_difference(h, keys_A) is None
        return {"sigma": C.sigma.first_difference(sigma, keys_A) is not None,
                "tau": C.tau.first_difference(tau, keys_B) is not None,
                "h": C.h.first_difference(h, keys_A) is not None}

    def test_bad_certificate_faults(self):
        f = fix1()
        delta, _ = fix1_perturbation(f)
        with pytest.raises(ConvergenceFault):
            perturb(f.contraction, Perturbation(delta, 1))


class TestSemifullStability:
    def test_random_perturbations_recertify(self):
        # Lemma-level stability: flat random conjugation perturbations of FIX-1
        f = fix1(bound=6)
        A = f.A
        rng = random.Random(101)
        keys = [k for k in A.space.keys() if sum(k) <= 2]
        for trial in range(25):
            images = {}
            for key in A.space.keys():
                a, c = key
                span = [k2 for k2 in A.space.keys()
                        if A.space.degree(k2) == A.space.degree(key) and sum(k2) < sum(key) - 1]
                images[key] = random_homogeneous(rng, A.space, A.space.degree(key), span)
            nu = LinOp.from_dict(A.space, A.space, 0, images, "nu")
            e = exp_endomorphism(A, nu, A.length_bound + 1)
            e_inv = exp_endomorphism(A, nu.scale(-1), A.length_bound + 1)
            delta = ((e_inv @ f.d) @ e) - f.d
            _, pert = perturb(f.contraction, Perturbation(delta, A.length_bound + 1))
            rep = check_semifull_algebra(pert, A, SCALARS, keys_A=keys)
            assert rep.ok, (trial, rep.to_text())


def test_semifull_coalgebra_on_a_finite_coalgebra():
    # the identity contraction of the dual of the exterior algebra on u, v: a
    # FiniteCoalgebra, whose unit_key is an attribute as it is on SymSpace
    basis = GradedBasis.make([("1", 0), ("u", 1), ("v", 1), ("uv", 2)])
    ext = ExplicitFDAlgebra(basis, {(1, 1): Vector.zero(), (2, 2): Vector.zero(),
                                    (1, 2): Vector.basis(3)}, 0)
    coalg = algebra_dual_coalgebra(ext)
    idm = LinOp.identity(coalg.basis)
    C = Contraction(idm, idm, LinOp.zero(coalg.basis, degree=-1),
                    LinOp.zero(coalg.basis, degree=1), LinOp.zero(coalg.basis, degree=1))
    rep = check_semifull_coalgebra(C, coalg, coalg)
    assert len(rep.items) == 12 and rep.ok, rep.to_text()


def _hat_homotopy_oracle(C, space, word):
    """h^ by its definition: the 1/n! sum over all n!*n placements, tau-sigma factors
    to the left of the single h slot (h counts as an odd symbol)."""
    tau_sigma = C.tau @ C.sigma
    n = len(word)
    degs = (-1,) + tuple(space.base.degree(k) for k in word)
    out = Vector.zero()
    for perm in itertools.permutations(range(1, n + 1)):
        for j in range(1, n + 1):
            hv = C.h.on_key(word[perm[j - 1] - 1])
            if hv.is_zero():
                continue
            s = koszul_sign(perm[:j - 1] + (0,) + perm[j - 1:], degs)
            factors = [tau_sigma.on_key(word[p - 1]) for p in perm[:j - 1]]
            factors.append(hv)
            factors.extend(Vector.basis(word[p - 1]) for p in perm[j:])
            out = out + assemble_word(space.base, factors, space.weight_bound).scale(Q(s, factorial(n)))
    return out


@pytest.mark.parametrize("make, W", [(lambda: fix3_extended().contraction, 5),
                                     (lambda: fix4().contraction, 6),
                                     (small_complex, 4)],
                         ids=["FIX-3X", "FIX-4", "small_complex"])
def test_hat_homotopy_matches_placement_oracle(make, W):
    C = make()
    space = SymSpace(C.space_A, W)
    hat = hat_homotopy(C, space)
    for w in space.keys():
        assert hat.on_key(w) == _hat_homotopy_oracle(C, space, w), w


class TestSymmetrizedContraction:
    def setup_method(self):
        self.C = small_complex()
        self.W = 4
        self.sym = symmetrized_contraction(self.C, self.W)

    def test_hat_on_unit_and_weight_one(self):
        hat = self.sym.h
        assert hat.on_key(()).is_zero()
        for k in self.C.space_A.keys():
            expect = Vector({(k2,): c for k2, c in self.C.h.on_key(k).items()})
            assert hat.on_key((k,)) == expect

    def test_hat_power_formula(self):
        # h^(x^on) = sum_{i+j=n-1} h(x) o (tau sigma x)^oi o x^oj for degree-0 x
        C = self.C
        U = C.space_A
        x = Vector.basis(0) + Vector.basis(2, 2)  # degree-0 combination
        SU = SymSpace(U, 4)
        for n in (2, 3):
            word_el = Vector.basis(()) if False else None
            from gradedhpt.core import expand_multilinear
            from gradedhpt.symcoalg import canonical_word
            # assemble x^{on}
            power = Vector()
            def rec(i, keys, coeff):
                nonlocal power
                if i == n:
                    cw = canonical_word(U, keys)
                    if cw:
                        w, s = cw
                        power = power + Vector.basis(w, coeff * s)
                    return
                for k, c in x.items():
                    rec(i + 1, keys + (k,), coeff * c)
            rec(0, (), Q(1))
            got = Vector.zero()
            for w, c in power.items():
                got = got + self.sym.h.on_key(w).scale(c)
            ts = (C.tau @ C.sigma)(x)
            hx = C.h(x)
            expect = Vector.zero()
            for i in range(n):
                factors = [hx] + [ts] * i + [x] * (n - 1 - i)
                from gradedhpt.symcoalg import assemble_word
                expect = expect + assemble_word(U, factors, 4)
            assert got == expect, n

    def test_semifull_both_structures(self):
        SU = SymSpace(self.C.space_A, self.W)
        SV = SymSpace(self.C.space_B, self.W)
        algU, algV = SymWordAlgebra(SU), SymWordAlgebra(SV)
        keysU = [w for w in SU.keys() if len(w) <= 2]
        keysV = [w for w in SV.keys() if len(w) <= 2]
        rep = check_semifull_algebra(self.sym, algU, algV, keys_A=keysU, keys_B=keysV)
        assert rep.ok and rep.bounds["dg_strength"] == "checked"
        repc = check_semifull_coalgebra(self.sym, SU, SV, keys_C=keysU, keys_D=keysV)
        assert repc.ok

    def test_coalgebra_stability_under_coderivation_perturbation(self):
        # perturb the word-level contraction by a coderivation: semifull coalgebra survives
        C = self.C
        U = C.space_A
        SU = SymSpace(U, self.W)
        SV = SymSpace(C.space_B, self.W)
        tables = {2: {w: random_homogeneous(random.Random(7), U, SU.degree(w) + 1)
                      for w in SU.words_of_weight(2)}}
        tables[2] = {w: v for w, v in tables[2].items() if not v.is_zero()}
        Qd = TaylorCoderivation.from_tables(U, {1: {(k,): C.d_A.on_key(k) for k in U.keys()},
                                                **tables}, 2, 1)
        Qm = Qd.as_map(SU)
        sq = Qm @ Qm
        if not sq.is_zero_on(SU.keys()):
            pytest.skip("random quadratic part not flat for this seed")
        Q_plus = Qm - self.sym.d_A
        _, pert = perturb(self.sym, Perturbation(Q_plus, self.W + 1))
        keysU = [w for w in SU.keys() if len(w) <= 2]
        keysV = [w for w in SV.keys() if len(w) <= 2]
        repc = check_semifull_coalgebra(pert, SU, SV, keys_C=keysU, keys_D=keysV)
        assert repc.ok


def gauss_solve(rows, rhs):
    """Exact solve of rows * x = rhs (list of dict-rows over variable indices)."""
    nvars = max((max(r) for r in rows if r), default=-1) + 1
    mat = [[r.get(j, Q(0)) for j in range(nvars)] + [b] for r, b in zip(rows, rhs)]
    piv = 0
    for col in range(nvars):
        sel = next((i for i in range(piv, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[piv], mat[sel] = mat[sel], mat[piv]
        mat[piv] = [v / mat[piv][col] for v in mat[piv]]
        for i in range(len(mat)):
            if i != piv and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[piv])]
        piv += 1
    sol = [Q(0)] * nvars
    for i in range(piv):
        lead = next((j for j in range(nvars) if mat[i][j]), None)
        if lead is None:
            if mat[i][nvars]:
                raise ValueError("inconsistent system")
            continue
        sol[lead] = mat[i][nvars]
    for i in range(piv, len(mat)):
        if mat[i][nvars]:
            raise ValueError("inconsistent system")
    return sol


class TestLinfTransfer:
    def test_linear_case_reduces_to_contraction(self):
        C = small_complex()
        Qd = TaylorCoderivation.from_linear(C.d_A)
        res = linf_transfer(Qd, C, 3)
        V, Wb = C.space_A, C.space_B
        for k in Wb.keys():
            assert res.r.component(1, (k,)) == C.d_B.on_key(k)
            assert res.f.component(1, (k,)) == C.tau.on_key(k)
        for n in (2, 3):
            for w in SymSpace(Wb, 3).words_of_weight(n):
                assert res.f.component(n, w).is_zero()
                assert res.r.component(n, w).is_zero()

    def test_fix3_two_routes_and_linear_parts(self):
        f = fix3()
        res = linf_transfer(f.Q, f.contraction, 4)
        C = f.contraction
        for k in C.space_B.keys():
            assert res.f.component(1, (k,)) == C.tau.on_key(k)
            assert res.r.component(1, (k,)) == C.d_B.on_key(k)
        for k in C.space_A.keys():
            assert res.g.component(1, (k,)) == C.sigma.on_key(k)
        # known value: f_2(w o w) = h(q_2(tau w, tau w)) = h(c) = -x'
        assert res.f.component(2, (0, 0)) == Vector.basis(1, -1)

    def test_refuses_a_structure_that_does_not_square_to_zero(self):
        # FIX-3X plus q_2(a, x) = x': Q^2(a o x) = q_1(x') = c.  The perturbation
        # lemma's input check decides Q^2 = 0 once, before either route runs
        fx = fix3_extended()
        A, X, XP = 0, 1, 2
        tables = {n: {w: fx.Q.component(n, w) for w in SymSpace(fx.basis, 2).words_of_weight(n)}
                  for n in (1, 2)}
        tables[2][(A, X)] = Vector.basis(XP)
        Qd = TaylorCoderivation.from_tables(fx.basis, tables, 2, 1)
        with pytest.raises(ValueError, match=r"^\(d \+ delta\)\^2 != 0 at \(0, 1\)$"):
            linf_transfer(Qd, fx.contraction, 3)

    def test_fix3_extended_weight_seven(self):
        # route agreement at W=7 is a runtime invariant: linf_transfer raises if it fails
        fx = fix3_extended()
        res = linf_transfer(fx.Q, fx.contraction, 7)
        C = fx.contraction
        for k in C.space_B.keys():
            assert res.f.component(1, (k,)) == C.tau.on_key(k)
            assert res.r.component(1, (k,)) == C.d_B.on_key(k)
        for k in C.space_A.keys():
            assert res.g.component(1, (k,)) == C.sigma.on_key(k)

    def test_fix3_linear_solve_oracle(self):
        """Solve the morphism equation degree by degree with the gauge
        sigma f_i = 0, h f_i = 0 and compare with both computed routes."""
        f = fix3()
        C = f.contraction
        res = linf_transfer(f.Q, C, 4)
        V, Wb = C.space_A, C.space_B
        SW = SymSpace(Wb, 4)
        SV = SymSpace(V, 4)
        Qm = f.Q.as_map(SV)
        from gradedhpt.symcoalg import TaylorMorphism
        f_tables = {1: {(k,): C.tau.on_key(k) for k in Wb.keys()}}
        r_tables = {1: {(k,): C.d_B.on_key(k) for k in Wb.keys()}}
        vkeys = list(V.keys())
        wkeys = list(Wb.keys())
        for i in range(2, 5):
            for word in SW.words_of_weight(i):
                # unknowns: f_i(word) in V (vars 0..len(V)-1), r_i(word) in W (after)
                nv = len(vkeys)
                rows, rhs = [], []
                F_part = TaylorMorphism.from_tables(Wb, V, f_tables, i - 1)
                img = F_part.apply_word(word, i)
                known = Vector.zero()
                for u, c in img.items():
                    if len(u) >= 2:
                        known = known + f.Q.component(len(u), u).scale(c)
                # R-side knowns: F_{<i} composed with r-parts of weight >= 2
                R_part = TaylorCoderivation.from_tables(Wb, r_tables, i - 1, 1)
                rimg = R_part.apply_word(word, i)
                known_r = Vector.zero()
                for u, c in rimg.items():
                    if len(u) == 1:
                        known_r = known_r + F_part.component(1, u).scale(c)
                # equation: q_1 f_i(word) + known = f_1 r_i(word) + known_r  (corestriction)
                for key in vkeys:
                    row = {}
                    for j, kv in enumerate(vkeys):
                        row[j] = C.d_A.on_key(kv)[key]
                    for j, kw in enumerate(wkeys):
                        row[nv + j] = -C.tau.on_key(kw)[key]
                    rows.append(row)
                    rhs.append(known_r[key] - known[key])
                # gauge rows: sigma f_i = 0 and h f_i = 0
                for key in wkeys:
                    row = {j: C.sigma.on_key(kv)[key] for j, kv in enumerate(vkeys)}
                    rows.append(row)
                    rhs.append(Q(0))
                for key in vkeys:
                    row = {j: C.h.on_key(kv)[key] for j, kv in enumerate(vkeys)}
                    rows.append(row)
                    rhs.append(Q(0))
                sol = gauss_solve(rows, rhs)
                f_val = Vector({kv: sol[j] for j, kv in enumerate(vkeys)})
                r_val = Vector({kw: sol[nv + j] for j, kw in enumerate(wkeys)})
                f_tables.setdefault(i, {})[word] = f_val
                r_tables.setdefault(i, {})[word] = r_val
                assert res.f.component(i, word) == f_val, (i, word)
                assert res.r.component(i, word) == r_val, (i, word)

    def test_route_disagreement_guard(self):
        # feeding a Q whose linear part disagrees with d_A is rejected
        f = fix3()
        wrong = TaylorCoderivation.from_tables(f.basis, {1: {}}, 1, 1)
        with pytest.raises(ValueError):
            linf_transfer(wrong, f.contraction, 2)


class TestPropTransfer:
    def test_fix1_perturbed(self):
        f = fix1()
        delta, cert = fix1_perturbation(f)
        _, pert = perturb(f.contraction, Perturbation(delta, cert))
        keys = [k for k in f.A.space.keys() if sum(k) <= 2]
        rep = verify_prop_transfer(f.A, SCALARS, pert, 4, keys_A=keys)
        assert rep.ok, rep.mismatches

    def test_fix2_mid_perturbed_nontrivial(self):
        f = fix2_mid()
        delta, cert = fix2_mid_perturbation(f)
        _, pert = perturb(f.contraction, Perturbation(delta, cert))
        rep = verify_prop_transfer(f.A, f.B, pert, 3, keys_A=f.keys_A, keys_B=f.keys_B)
        assert rep.ok, rep.mismatches[:3]
        # content check: the transferred binary cumulant is nonzero somewhere
        vals = [cumulant_recursion(f.B, f.A, pert.tau,
                                   (Vector.basis(k1), Vector.basis(k2)))
                for k1 in f.keys_B for k2 in f.keys_B]
        assert any(not v.is_zero() for v in vals)
