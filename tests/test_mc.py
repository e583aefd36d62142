from fractions import Fraction as Q

import pytest

from gradedhpt.core import ConvergenceFault, Vector
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
    mc_check,
    mc_sum,
)
from gradedhpt.symcoalg import TaylorCoderivation


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


class TestPushforward:
    def test_identity_morphism(self):
        from gradedhpt.symcoalg import TaylorMorphism
        f, filt, _ = fix3_data()
        idm = TaylorMorphism.identity(f.basis)
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
        assert kuranishi_inverse(data, Vector.zero(), Vector.zero()).is_zero()

    def test_inverse_is_parabola_lift(self):
        f, filt, res = fix3_data()
        data = KuranishiData(f.Q, res, f.contraction, filt)
        y = Vector.basis(0, 2)
        x = kuranishi_inverse(data, y, Vector.zero())
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
        x = kuranishi_inverse(data, y, hv)
        ok, _ = mc_check(fx.Q, filt, x)
        assert ok
        y2, hx2 = kuranishi_rho(data, x)
        assert y2 == y and hx2 == hv
        rep = kuranishi_roundtrip_report(data, trivial_w_filtration(res), height=1)
        assert rep.ok, rep.failures[:3]

    def test_idempotence_past_stabilization(self):
        f, filt, res = fix3_data()
        data = KuranishiData(f.Q, res, f.contraction, filt)
        x1 = kuranishi_inverse(data, Vector.basis(0), Vector.zero(), max_steps=5)
        x2 = kuranishi_inverse(data, Vector.basis(0), Vector.zero(), max_steps=9)
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
        assert fixed_point(head, _truncated_product, 2, 3) == solution
        assert fixed_point(head, _truncated_product, 2, 7) == solution
        with pytest.raises(ConvergenceFault):
            fixed_point(head, _truncated_product, 2, 2)

    def test_zero_correction_returns_head(self):
        head = Vector({0: 2, 1: Q(-1, 3)})
        assert fixed_point(head, lambda xs: Vector.zero(), 4, 1) == head


class TestFiltration:
    def test_violation_detected(self):
        f = fix3()
        bad = NilpotentFiltration({0: 2, 1: 2, 2: 2}, 3)
        with pytest.raises(ValueError):
            bad.verify_morphism(f.Q, f.basis, bad, 2)

    def test_morphism_filtration(self):
        f, filt, res = fix3_data()
        wf = trivial_w_filtration(res)
        # f: S(W) -> S(V) respects levels up to the vanishing cutoff
        wf.verify_morphism(res.f, res.r.base, filt, 2)
