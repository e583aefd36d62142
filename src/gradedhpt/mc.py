"""Maurer-Cartan sets of nilpotent L-infinity[1] structures, push-forwards, and
the formal fixed-point (Kuranishi-type) bijection with its recursive inverse.

The Maurer-Cartan residual of a coderivation and the push-forward along a
morphism are one sum of Taylor data on the diagonal, ``mc_sum``.

Only nilpotent filtrations are supported: convergence is literal stabilization,
detected by exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .core import ConvergenceFault, Vector, exp_series, expand_multilinear
from .hpt import Contraction, LinfTransfer
from .symcoalg import TaylorCoderivation, TaylorMorphism, words_over


@dataclass
class NilpotentFiltration:
    """Levels p >= 1 per basis key with F^P = 0; brackets must add levels."""

    levels: dict
    vanishing: int

    def level(self, key) -> int:
        return self.levels[key]

    def vector_level(self, v: Vector) -> int:
        if v.is_zero():
            return self.vanishing
        return min(self.level(k) for k in v.keys())

    def check_element(self, v: Vector) -> None:
        if self.vector_level(v) < 1:
            raise ValueError("element not in filtration level >= 1")

    def verify_morphism(self, F: TaylorMorphism | TaylorCoderivation, base,
                        target: "NilpotentFiltration", max_arity: int) -> None:
        """f_i(F^{p_1},...,F^{p_i}) in the target's F^{p_1+...+p_i}, on canonical
        basis words; a coderivation's target is its own filtration."""
        for word in words_over(base, base.keys(), max_arity, min_weight=1):
            need = sum(self.level(k) for k in word)
            val = F.component(len(word), word)
            if target.vector_level(val) < min(need, target.vanishing):
                raise ValueError(f"filtration violated in arity {len(word)} at {word}")


def mc_sum(T: TaylorCoderivation | TaylorMorphism, x: Vector, arity_cap: int) -> Vector:
    """sum_{n=1}^{cap} t_n(x,...,x)/n! of Taylor data T: the Maurer-Cartan
    residual of x for a coderivation, the push-forward of x along a morphism
    (finite in the nilpotent regime)."""
    return exp_series(lambda xs: expand_multilinear(xs, lambda *keys: T.eval_keys(keys)),
                      x, range(1, arity_cap + 1))


def mc_check(Qd: TaylorCoderivation, filt: NilpotentFiltration, x: Vector,
             space=None) -> tuple[bool, Vector]:
    """Exact Maurer-Cartan residual; True iff zero.

    The sum is finite: terms of arity >= the vanishing level lie in F^P = 0,
    which requires the filtration to be verified for Q beforehand.
    """
    if space is not None:
        for k in x.keys():
            if space.degree(k) != 0:
                raise ValueError("Maurer-Cartan candidates must have degree 0")
    filt.check_element(x)
    cap = filt.vanishing - 1
    if not Qd.exact_beyond and Qd.arity_bound < cap:
        raise ValueError("arity data insufficient for the filtration's vanishing level")
    res = mc_sum(Qd, x, min(cap, Qd.arity_bound))
    return res.is_zero(), res


@dataclass
class KuranishiData:
    """Everything the fixed-point correspondence needs."""

    Q: TaylorCoderivation
    transfer: LinfTransfer
    contraction: Contraction
    filt: NilpotentFiltration

    @property
    def cap(self) -> int:
        return self.filt.vanishing - 1


def kuranishi_rho(data: KuranishiData, x: Vector) -> tuple[Vector, Vector]:
    """x -> (push-forward along G, h(x))."""
    return mc_sum(data.transfer.g, x, data.cap), data.contraction.h(x)


def kuranishi_inverse(data: KuranishiData, y: Vector, hv: Vector,
                      max_steps: int | None = None) -> Vector:
    """Fixed-point recursion x_{k+1} = f_1(y) - q_1(hv) + sum (h q_i - f_1 g_i)(x_k^oi)/i!.

    Stabilization is exact equality; exceeding the step bound is a fault.
    """
    C, Qd, g = data.contraction, data.Q, data.transfer.g
    steps = max_steps if max_steps is not None else data.filt.vanishing + 1

    def correction(xs):
        return (C.h(expand_multilinear(xs, lambda *keys: Qd.eval_keys(keys)))
                - C.tau(expand_multilinear(xs, lambda *keys: g.eval_keys(keys))))

    return fixed_point(C.tau(y) - C.d_A(hv), correction, data.cap, steps)


def fixed_point(head: Vector, correction, cap: int, steps: int) -> Vector:
    """The solution of x = head + sum_{2 <= i <= cap} correction((x,)*i)/i!,
    iterated from x = 0.  It stops when an iterate equals the one before it
    exactly, and raises ConvergenceFault when ``steps`` steps have not reached
    such an iterate: a solution reached in s steps needs ``steps >= s``."""
    x = Vector.zero()
    for _ in range(steps + 1):
        nxt = exp_series(correction, x, range(2, cap + 1)) + head
        if nxt == x:
            return x
        x = nxt
    raise ConvergenceFault("fixed-point recursion did not stabilize within the bound")


def lattice_coefficients(height: int) -> tuple[Fraction, ...]:
    """The rationals p/q with |p| <= height and 1 <= q <= height, ascending, as
    Fractions: they are handed to callers, whose own arithmetic must stay exact."""
    vals = {Fraction(0)}
    for p in range(-height, height + 1):
        for q in range(1, height + 1):
            vals.add(Fraction(p, q))
    return tuple(sorted(vals))


def lattice_vectors(keys, height: int):
    """All vectors over the given keys with coefficients of height <= height."""
    keys = tuple(keys)
    coeffs = lattice_coefficients(height)
    for combo in iproduct(coeffs, repeat=len(keys)):
        yield Vector(dict(zip(keys, combo)))


def enumerate_mc_lattice(Qd: TaylorCoderivation, filt: NilpotentFiltration, space,
                         height: int = 2) -> list[Vector]:
    """Exhaustive Maurer-Cartan search over degree-0 lattice vectors."""
    keys = [k for k in space.keys() if space.degree(k) == 0]
    out = []
    for x in lattice_vectors(keys, height):
        ok, _ = mc_check(Qd, filt, x, space)
        if ok:
            out.append(x)
    return out


@dataclass
class KuranishiReport:
    ok: bool
    mc_count_V: int
    mc_count_W: int
    failures: list


def kuranishi_roundtrip_report(data: KuranishiData, r_filt: NilpotentFiltration,
                               height: int = 2) -> KuranishiReport:
    """Round-trips of the correspondence on exhaustively enumerated lattices.

    Checks rho^{-1} o rho = id on the MC lattice upstairs, rho o rho^{-1} = id on
    (MC lattice downstairs) x (lattice of homotopy images), rho^{-1}(-, 0) = MC(F),
    and the restriction bijection onto Ker(h) with inverse the linear part of G.
    """
    failures = []
    V = data.Q.base
    Wb = data.transfer.r.base
    mc_V = enumerate_mc_lattice(data.Q, data.filt, V, height)
    mc_W = enumerate_mc_lattice(data.transfer.r, r_filt, Wb, height)
    for x in mc_V:
        y, hx = kuranishi_rho(data, x)
        ok, res = mc_check(data.transfer.r, r_filt, y)
        if not ok:
            failures.append(("pushforward not MC", x, res))
            continue
        back = kuranishi_inverse(data, y, hx)
        if back != x:
            failures.append(("rho^-1 rho != id", x, back))
    # lattice of homotopy data: h applied to degree-0 lattice vectors
    zero_keys = [k for k in V.keys() if V.degree(k) == 0]
    h_images = {data.contraction.h(v) for v in lattice_vectors(zero_keys, 1)}
    h_lattice = sorted(h_images, key=repr)
    for y in mc_W:
        for hv in h_lattice:
            x = kuranishi_inverse(data, y, hv)
            ok, res = mc_check(data.Q, data.filt, x)
            if not ok:
                failures.append(("inverse not MC", y, hv, res))
                continue
            y2, hx2 = kuranishi_rho(data, x)
            if y2 != y or hx2 != hv:
                failures.append(("rho rho^-1 != id", y, hv, y2, hx2))
        # rho^{-1}(y, 0) = MC(F)(y)
        direct = mc_sum(data.transfer.f, y, data.cap)
        if direct != kuranishi_inverse(data, y, Vector.zero()):
            failures.append(("rho^-1(-,0) != MC(F)", y))
        # restriction bijection: MC(F)(y) lies in Ker(h), g_1 restricts as inverse
        if not data.contraction.h(direct).is_zero():
            failures.append(("MC(F) image not in Ker(h)", y))
        if data.contraction.sigma(direct) != y:
            failures.append(("g_1 does not invert the restriction", y))
    for x in mc_V:
        if data.contraction.h(x).is_zero():
            y = mc_sum(data.transfer.g, x, data.cap)
            if mc_sum(data.transfer.f, y, data.cap) != x:
                failures.append(("restriction bijection fails", x))
    return KuranishiReport(not failures, len(mc_V), len(mc_W), failures)
