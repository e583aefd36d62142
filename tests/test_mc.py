import dataclasses
import random
import re
from fractions import Fraction as Q
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from gradedhpt.core import ConvergenceFault, LinOp, Vector, expand_multilinear
from gradedhpt.fixtures import fix3, fix3_extended
from gradedhpt.hpt import linf_transfer
from gradedhpt.mc import (
    KuranishiData,
    NilpotentFiltration,
    enumerate_mc_lattice,
    fixed_point,
    kuranishi_inverse,
    kuranishi_rho,
    kuranishi_roundtrip_report,
    lattice_coefficients,
    lattice_vectors,
    mc_check,
    mc_sum,
)
from gradedhpt.symcoalg import TaylorCoderivation, TaylorMorphism, words_over


def fix3_data(bound=4):
    f = fix3()
    filt = NilpotentFiltration(f.levels, f.vanishing_level)
    filt.verify_morphism(f.Q, f.basis, filt, 2)
    res = linf_transfer(f.Q, f.contraction, bound)
    return f, filt, res


def trivial_w_filtration(res):
    Wb = res.r.base
    return NilpotentFiltration({k: 1 for k in Wb.keys()}, 2)


class TestMCCheck:
    def test_zero_is_mc(self):
        f, filt, _ = fix3_data()
        ok, res = mc_check(f.Q, filt, Vector.zero())
        assert ok and res.is_zero()

    def test_abelian_case(self):
        f = fix3()
        lin = TaylorCoderivation.from_linear(f.contraction.d_A)
        filt = NilpotentFiltration(f.levels, f.vanishing_level)
        # abelian: MC iff q_1(x) = 0
        x = Vector.basis(0, 2)
        ok, _ = mc_check(lin, filt, x)
        assert ok
        ok, res = mc_check(lin, filt, Vector.basis(1))
        assert not ok and res == f.contraction.d_A(Vector.basis(1))

    def test_fix3_lattice_matches_parabola(self):
        f, filt, _ = fix3_data()
        found = enumerate_mc_lattice(f.Q, filt, f.basis, height=2)
        expected = set()
        for xi in lattice_coefficients(2):
            eta = -xi * xi / 2
            if eta == 0 or (abs(eta.numerator) <= 2 and eta.denominator <= 2):
                expected.add((xi, eta))
        got = {(x[0], x[1]) for x in found}
        assert got == expected
        assert len(found) >= 5

    def test_degree_guard(self):
        f, filt, _ = fix3_data()
        with pytest.raises(ValueError):
            mc_check(f.Q, filt, Vector.basis(2), f.basis)


def test_lattice_matches_mc_check():
    # the residual's polynomial over every candidate key, formed once, against
    # mc_check's polynomial over the support of each point: FIX-3 at height 2
    # and FIX-3X with the benchmark's filtration at height 3, in lattice order
    for fx, height in ((fix3(), 2), (fix3_extended(), 3)):
        filt = NilpotentFiltration(fx.levels, fx.vanishing_level)
        keys = [k for k in fx.basis.keys() if fx.basis.degree(k) == 0]
        expected = [x for x in lattice_vectors(keys, height)
                    if mc_check(fx.Q, filt, x, fx.basis)[0]]
        assert enumerate_mc_lattice(fx.Q, filt, fx.basis, height) == expected


def mc_sum_data():
    """Taylor data for the mc_sum oracle: FIX-3's Q, the FIX-3X transfer's g
    and f, and a coderivation on the FIX-3X base that is nonzero on every
    canonical word of weight <= 3, so that every multinomial weight shows."""
    f, fx = fix3(), fix3_extended()
    res = linf_transfer(fx.Q, fx.contraction, 4)
    V = fx.basis
    tables = {n: {w: Vector({k: Q(len(w) + i + 1, i + 2) for i, k in enumerate(w)})
                  for w in words_over(V, V.keys(), n, min_weight=n)} for n in (1, 2, 3)}
    dense = TaylorCoderivation.from_tables(V, tables, 3, 1, label="dense")
    return [f.Q, res.g, res.f, dense]


MC_SUM_DATA = mc_sum_data()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(which=st.integers(0, len(MC_SUM_DATA) - 1), seed=st.integers(0, 2 ** 32 - 1),
       cap=st.integers(1, 4))
def test_mc_sum_is_the_ordered_tuple_expansion(which, seed, cap):
    # one read per canonical word with weight 1/prod m_k!, against
    # sum_n (1/n!) * the multilinear extension on n copies of x over ordered
    # key tuples, for x with non-unit coefficients on even and odd letters
    T = MC_SUM_DATA[which]
    rng = random.Random(seed)
    coeffs = (Q(-3, 2), Q(2, 3), Q(-1, 5), Q(5, 2), Q(-4, 3), 2, -3)
    x = Vector({k: rng.choice(coeffs) for k in T.base.keys() if rng.random() < 0.75})
    expected = Vector()
    for n in range(1, cap + 1):
        expected.add_scaled(expand_multilinear((x,) * n, lambda *ks: T.eval_keys(ks)),
                            Q(1, factorial(n)))
    assert mc_sum(T, x, cap) == expected


class TestPushforward:
    def test_identity_morphism(self):
        f, filt, _ = fix3_data()
        idm = TaylorMorphism.from_linear(LinOp.identity(f.basis))
        x = Vector.basis(0) + Vector.basis(1, 2)
        assert mc_sum(idm, x, 2) == x

    def test_linear_morphism(self):
        f, filt, res = fix3_data()
        x = Vector.basis(0, 2)  # not MC, but push-forward formula is linear here
        lin = res.g
        val = mc_sum(lin, x, 1)
        assert val == f.contraction.sigma(x)

    def test_checked_pushforward(self):
        f, filt, res = fix3_data()
        x = Vector.basis(0) - Vector.basis(1, Q(1, 2))  # on the parabola
        ok, _ = mc_check(f.Q, filt, x)
        assert ok
        y = mc_sum(res.g, x, filt.vanishing - 1)
        assert y == Vector.basis(0)
        ok, _ = mc_check(res.r, trivial_w_filtration(res), y)
        assert ok

    def test_functoriality_on_mc(self):
        # MC(F then G) = MC(G o F) for the transfer morphisms, on MC points
        f, filt, res = fix3_data()
        comp = res.g.compose(res.f)
        for x in enumerate_mc_lattice(res.r, trivial_w_filtration(res), res.r.base, 1):
            via = mc_sum(res.g, mc_sum(res.f, x, 2), 2)
            direct = mc_sum(comp, x, 2)
            assert via == direct


class TestKuranishi:
    def test_fix3_roundtrip(self):
        f, filt, res = fix3_data()
        data = KuranishiData(f.Q, res, f.contraction, filt)
        rep = kuranishi_roundtrip_report(data, trivial_w_filtration(res), height=2)
        assert rep.ok, rep.failures[:3]
        assert rep.mc_count_V >= 5 and rep.mc_count_W >= 5

    def test_trivial_inverse(self):
        f, filt, res = fix3_data()
        data = KuranishiData(f.Q, res, f.contraction, filt)
        assert kuranishi_inverse(data, Vector.zero(), Vector.zero(), data.filt.vanishing + 1).is_zero()

    def test_inverse_is_parabola_lift(self):
        f, filt, res = fix3_data()
        data = KuranishiData(f.Q, res, f.contraction, filt)
        y = Vector.basis(0, 2)
        x = kuranishi_inverse(data, y, Vector.zero(), data.filt.vanishing + 1)
        # MC(F)(y): tau(y) + f_2(y,y)/2 = 2x - 2x'
        assert x == Vector.basis(0, 2) - Vector.basis(1, 2)
        ok, _ = mc_check(f.Q, filt, x)
        assert ok

    def test_fix3_extended_nonzero_homotopy_datum(self):
        fx = fix3_extended()
        filt = NilpotentFiltration(fx.levels, fx.vanishing_level)
        filt.verify_morphism(fx.Q, fx.basis, filt, 2)
        res = linf_transfer(fx.Q, fx.contraction, 4)
        data = KuranishiData(fx.Q, res, fx.contraction, filt)
        # homotopy image is nonzero in this fixture
        hv = fx.contraction.h(Vector.basis(3))
        assert not hv.is_zero()
        y = Vector.basis(0)
        x = kuranishi_inverse(data, y, hv, data.filt.vanishing + 1)
        ok, _ = mc_check(fx.Q, filt, x)
        assert ok
        y2, hx2 = kuranishi_rho(data, x)
        assert y2 == y and hx2 == hv
        rep = kuranishi_roundtrip_report(data, trivial_w_filtration(res), height=1)
        assert rep.ok, rep.failures[:3]

    @pytest.mark.parametrize("side, n, word, extra, failing", [
        # f_2(x, x) gains x': F_* is no longer the inverse at zero, nor the
        # inverse of the restriction; sigma(x') = 0 keeps g_1 its inverse
        ("f", 2, (0, 0), Vector.basis(1),
         {"restriction bijection round-trip on V point #",
          "inverse at zero homotopy datum is the push-forward along F (W point #)"}),
        # g_1(x) = 2w: rho is no longer inverted by the fixed point
        ("g", 1, (0,), Vector.basis(0),
         {"inverse recovers V point #", "restriction bijection round-trip on V point #",
          "round-trip returns W point # and homotopy datum #"}),
    ], ids=["f_2", "g_1"])
    def test_a_corrupted_transfer_fails_the_correspondence(self, side, n, word, extra, failing):
        f, filt, res = fix3_data()
        T = getattr(res, side)
        bad = TaylorMorphism(T.base, T.cod_base, lambda m, w: T.component(m, w) + (
            extra if (m, w) == (n, word) else Vector.zero()), T.arity_bound, T.exact_beyond)
        data = KuranishiData(f.Q, dataclasses.replace(res, **{side: bad}), f.contraction, filt)
        rep = kuranishi_roundtrip_report(data, trivial_w_filtration(res), height=2)
        assert not rep.ok and (rep.mc_count_V, rep.mc_count_W) == (5, 7)
        assert all(line.startswith("FAIL ") for line in rep.failures), rep.failures
        claims = {re.sub(r"(point|datum) \d+", r"\1 #", line.split(None, 1)[1])
                  for line in rep.failures}
        assert claims == failing

    def test_an_unstable_inverse_is_undetermined(self):
        # g_2(x, x) = w: the fixed point of the inverse runs away on every
        # nonzero W point; the claims on it are UNDETERMINED, and the
        # ConvergenceFault does not escape the report
        f, filt, res = fix3_data()
        g = res.g
        bad = TaylorMorphism(g.base, g.cod_base, lambda m, w: g.component(m, w) + (
            Vector.basis(0) if (m, w) == (2, (0, 0)) else Vector.zero()), g.arity_bound)
        data = KuranishiData(f.Q, dataclasses.replace(res, g=bad), f.contraction, filt)
        w_filt = trivial_w_filtration(res)
        rep = kuranishi_roundtrip_report(data, w_filt, height=2)
        mc_W = enumerate_mc_lattice(res.r, w_filt, res.r.base, 2)
        on_W = [line for line in rep.failures if " W point " in line]
        assert on_W == [f"UNDETERMINED remaining claims on W point {j}  [fixed point did not "
                        "stabilize: fixed-point recursion did not stabilize within the bound]"
                        for j, y in enumerate(mc_W) if y]

    def test_idempotence_past_stabilization(self):
        f, filt, res = fix3_data()
        data = KuranishiData(f.Q, res, f.contraction, filt)
        x1 = kuranishi_inverse(data, Vector.basis(0), Vector.zero(), steps=5)
        x2 = kuranishi_inverse(data, Vector.basis(0), Vector.zero(), steps=9)
        assert x1 == x2


def _truncated_product(xs, top=3):
    """Product of polynomials in t, keyed by the power, with t^(top+1) = 0."""
    out = Vector.basis(0)
    for x in xs:
        out = Vector((i + j, a * b) for i, a in out.items() for j, b in x.items() if i + j <= top)
    return out


class TestFixedPoint:
    def test_stops_at_the_step_bound(self):
        # x = t + x^2/2 mod t^4: the iterates from 0 are t, t + t^2/2 and then
        # t + t^2/2 + t^3/2, which solves it, so the solution takes exactly 3 steps
        head = Vector.basis(1)
        solution = Vector({1: 1, 2: Q(1, 2), 3: Q(1, 2)})

        def half_square(x):
            return _truncated_product((x, x)).scale(Q(1, 2))

        assert fixed_point(head, half_square, 3) == solution
        assert fixed_point(head, half_square, 7) == solution
        with pytest.raises(ConvergenceFault):
            fixed_point(head, half_square, 2)

    def test_zero_correction_returns_head(self):
        head = Vector({0: 2, 1: Q(-1, 3)})
        assert fixed_point(head, lambda x: Vector.zero(), 1) == head


class TestFiltration:
    def test_violation_detected(self):
        f = fix3()
        bad = NilpotentFiltration({0: 2, 1: 2, 2: 2}, 3)
        with pytest.raises(ValueError):
            bad.verify_morphism(f.Q, f.basis, bad, 2)

    def test_roundtrip_report_checks_the_filtrations(self):
        # FIX-3 with every level raised to 2: q_2 of two level-2 keys must land
        # in level 4 >= the vanishing level 3, that is vanish, and it does not,
        # so mc_check's truncation would not be exact and the report refuses
        f, _, res = fix3_data()
        bad = NilpotentFiltration({0: 2, 1: 2, 2: 2}, 3)
        with pytest.raises(ValueError, match="filtration violated"):
            kuranishi_roundtrip_report(KuranishiData(f.Q, res, f.contraction, bad),
                                       trivial_w_filtration(res), height=1)
        # r is checked against r_filt: r is zero on FIX-3, so stand Q in for it
        filt = NilpotentFiltration(f.levels, f.vanishing_level)
        q_as_r = dataclasses.replace(res, r=f.Q)
        with pytest.raises(ValueError, match="filtration violated"):
            kuranishi_roundtrip_report(KuranishiData(f.Q, q_as_r, f.contraction, filt),
                                       bad, height=1)

    def test_morphism_filtration(self):
        f, filt, res = fix3_data()
        wf = trivial_w_filtration(res)
        # f: S(W) -> S(V) respects levels up to the vanishing cutoff
        wf.verify_morphism(res.f, res.r.base, filt, 2)
