"""Maurer-Cartan sets of nilpotent L-infinity[1] structures, push-forwards, and
the formal fixed-point (Kuranishi-type) bijection with its recursive inverse.

The Maurer-Cartan residual of a coderivation and the push-forward along a
morphism are one sum of Taylor data on the diagonal, ``mc_sum``: the part of
Taylor data on the grouplike e^x = sum x^n/n!, which lives on canonical words.
It is a polynomial in the coefficients of x, formed once over a key set by
``_TaylorData.diagonal_polynomial`` and evaluated per point: over the support
of x in ``mc_sum``, over all candidates once per ``enumerate_mc_lattice``.
This module is the one place that sums a Maurer-Cartan series or inverts one:
the derived BV and IBL sums are ``mc_sum`` of the Koszul-bracket and cumulant
lifts (``commalg.kos_lift``, ``commalg.cumulant_lift``) of flattened t-series.
The Maurer-Cartan correspondence of a transfer is written once, as the claims
``correspondence_claims`` adds to a report; the L-infinity lattice report
``kuranishi_roundtrip_report`` and the IBL sample report
``ibl.ibl_kuranishi_report`` (on such lifts) both call it.

Only nilpotent filtrations are supported: convergence is literal stabilization,
detected by exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .core import ConvergenceFault, Overflow, Vector
from .hpt import Contraction, LinfTransfer
from .report import PASS, Report
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


def mc_sum(T: TaylorCoderivation | TaylorMorphism, x: Vector, arity_cap: int,
           min_arity: int = 1) -> Vector:
    """sum_{n=min_arity}^{cap} t_n(x,...,x)/n! of Taylor data T, the residual of
    x for a coderivation, the push-forward of x along a morphism (finite in the
    nilpotent regime): its polynomial over the support of x, evaluated at x."""
    return T.evaluate_polynomial(T.diagonal_polynomial(x.keys(), min_arity, arity_cap), x)


def _check_candidate(filt: NilpotentFiltration, x: Vector, space) -> None:
    """A Maurer-Cartan candidate has degree 0 (given a space) and lies in F^1."""
    if space is not None:
        for k in x.keys():
            if space.degree(k) != 0:
                raise ValueError("Maurer-Cartan candidates must have degree 0")
    filt.check_element(x)


def _residual_cap(Qd: TaylorCoderivation, filt: NilpotentFiltration) -> int:
    """The top arity of a residual: terms of arity >= the vanishing level lie in
    F^P = 0 once the filtration is verified for Q, whose data must reach it."""
    cap = filt.vanishing - 1
    if not Qd.exact_beyond and Qd.arity_bound < cap:
        raise ValueError("arity data insufficient for the filtration's vanishing level")
    return min(cap, Qd.arity_bound)


def mc_check(Qd: TaylorCoderivation, filt: NilpotentFiltration, x: Vector,
             space=None) -> tuple[bool, Vector]:
    """Exact Maurer-Cartan residual; True iff zero."""
    _check_candidate(filt, x, space)
    res = mc_sum(Qd, x, _residual_cap(Qd, filt))
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


def kuranishi_inverse(data: KuranishiData, y: Vector, hv: Vector, steps: int) -> Vector:
    """Fixed-point recursion x_{k+1} = f_1(y) - q_1(hv) + sum (h q_i - f_1 g_i)(x_k^oi)/i!.

    Stabilization is exact equality; exceeding ``steps`` steps is a fault.
    """
    C, Qd, g = data.contraction, data.Q, data.transfer.g

    def correction(x):
        return C.h(mc_sum(Qd, x, data.cap, 2)) - C.tau(mc_sum(g, x, data.cap, 2))

    return fixed_point(C.tau(y) - C.d_A(hv), correction, steps)


def fixed_point(head: Vector, correction, steps: int) -> Vector:
    """The solution of x = head + correction(x), iterated from x = 0.  It stops
    when an iterate equals the one before it exactly, and raises
    ConvergenceFault when ``steps`` steps have not reached such an iterate: a
    solution reached in s steps needs ``steps >= s``."""
    x = Vector.zero()
    for _ in range(steps + 1):
        nxt = correction(x) + head
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
    """Exhaustive Maurer-Cartan search over degree-0 lattice vectors, with the
    verdicts of ``mc_check``: the residual's polynomial over the candidate keys
    is formed once and evaluated at each point that passes the guards."""
    keys = [k for k in space.keys() if space.degree(k) == 0]
    residual = Qd.diagonal_polynomial(keys, 1, _residual_cap(Qd, filt))
    out = []
    for x in lattice_vectors(keys, height):
        _check_candidate(filt, x, space)
        if Qd.evaluate_polynomial(residual, x).is_zero():
            out.append(x)
    return out


@dataclass
class KuranishiReport:
    ok: bool
    mc_count_V: int
    mc_count_W: int
    failures: list


def correspondence_claims(rep: Report, data: KuranishiData, points_V, points_W, homotopy,
                          mc_V, mc_W, steps: int) -> None:
    """Add the Maurer-Cartan correspondence to ``rep`` on named Maurer-Cartan
    points, (name, x) upstairs and (name, y) downstairs, and on the homotopy
    data ``homotopy``, zero among them.  ``mc_V`` and ``mc_W`` give (ok,
    residual) of an element, ok None where it cannot be evaluated; every
    inverse has ``steps`` steps.  rho = (G_*, h) is a bijection MC(V) ->
    MC(W) x h(V) inverted by ``kuranishi_inverse``, and F_* restricts to a
    bijection MC(W) -> MC(V) n Ker(h), the inverse at h = 0.  A point that
    leaves a bound (Overflow) or whose inverse does not stabilize
    (ConvergenceFault) has its remaining claims UNDETERMINED."""
    C, f = data.contraction, data.transfer.f

    def add_mc(name: str, checked: tuple) -> None:
        ok, residual = checked
        rep.add(name, ok, "" if ok else "residual beyond the word bound" if ok is None
                else f"residual on {sorted(residual.keys(), key=repr)}")

    def on_V(key: str, x: Vector) -> None:
        y, hx = kuranishi_rho(data, x)
        add_mc(f"push-forward of {key} is Maurer-Cartan", mc_W(y))
        rep.add(f"inverse recovers {key}", kuranishi_inverse(data, y, hx, steps) == x)
        if not hx:
            rep.add(f"restriction bijection round-trip on {key}", mc_sum(f, y, data.cap) == x)

    def on_W(key: str, y: Vector) -> None:
        for j, hv in enumerate(homotopy):
            x = kuranishi_inverse(data, y, hv, steps)
            add_mc(f"lift of {key} at homotopy datum {j} is Maurer-Cartan", mc_V(x))
            rep.add(f"round-trip returns {key} and homotopy datum {j}",
                    kuranishi_rho(data, x) == (y, hv))
            if not hv:
                rep.add(f"inverse at zero homotopy datum is the push-forward along F ({key})",
                        x == mc_sum(f, y, data.cap))
                rep.add(f"lift of {key} at zero homotopy datum lies in Ker(h)", not C.h(x))

    for claims, points in ((on_V, points_V), (on_W, points_W)):
        for key, x in points:
            try:
                claims(key, x)
            except Overflow as exc:
                rep.add(f"remaining claims on {key}", None, f"beyond the word bound: {exc}")
            except ConvergenceFault as exc:
                rep.add(f"remaining claims on {key}", None, f"fixed point did not stabilize: {exc}")


def kuranishi_roundtrip_report(data: KuranishiData, r_filt: NilpotentFiltration,
                               height: int = 2) -> KuranishiReport:
    """``correspondence_claims`` on the Maurer-Cartan lattices of height <=
    ``height``, with the h-images of the degree-0 lattice of height 1 as
    homotopy data, and g_1 = sigma inverting the restriction; ``failures`` are
    the lines of the claims that do not PASS.  The filtrations ``mc_check``
    assumes, ``data.filt`` for Q and ``r_filt`` for r, are verified first up to
    the arity bounds; a violation raises ValueError.
    """
    V = data.Q.base
    Wb = data.transfer.r.base
    data.filt.verify_morphism(data.Q, V, data.filt, data.Q.arity_bound)
    r_filt.verify_morphism(data.transfer.r, Wb, r_filt, data.transfer.r.arity_bound)
    mc_V = enumerate_mc_lattice(data.Q, data.filt, V, height)
    mc_W = enumerate_mc_lattice(data.transfer.r, r_filt, Wb, height)
    zero_keys = [k for k in V.keys() if V.degree(k) == 0]
    h_lattice = sorted({data.contraction.h(v) for v in lattice_vectors(zero_keys, 1)}, key=repr)
    points_W = [(f"W point {j}", y) for j, y in enumerate(mc_W)]
    rep = Report("L-infinity Maurer-Cartan correspondence")
    correspondence_claims(rep, data, [(f"V point {i}", x) for i, x in enumerate(mc_V)], points_W,
                          h_lattice, lambda x: mc_check(data.Q, data.filt, x, V),
                          lambda y: mc_check(data.transfer.r, r_filt, y, Wb),
                          data.filt.vanishing + 1)
    for key, y in points_W:
        rep.add(f"g_1 = sigma inverts the restriction at {key}",
                data.contraction.sigma(mc_sum(data.transfer.f, y, data.cap)) == y)
    return KuranishiReport(rep.ok, len(mc_V), len(mc_W),
                           [i.line() for i in rep.items if i.verdict != PASS])
