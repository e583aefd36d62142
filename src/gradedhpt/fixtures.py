"""Desk-scale fixture gallery.

FIX-1  one-variable polynomial de Rham algebra contracted onto scalars.
FIX-2  two-variable de Rham algebra with a flat one-parameter family built by
       conjugating the differential with a second-order operator.
FIX-2M two-variable algebra contracted onto the one-variable subalgebra
       (used for the non-vacuous transfer comparisons).
FIX-3  three-dimensional quadratic structure with one-dimensional homology
       (nontrivial quadratic flatness equation).
FIX-3X five-dimensional extension whose homotopy hits degree zero (nonzero
       homotopy datum in the fixed-point inversion).
FIX-4  three-dimensional cofree structure: quadratic part plus a weight-raising
       component at first order, found by a deterministic lattice search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .core import GradedBasis, LinOp, Q, Vector
from .commalg import ExplicitFDAlgebra, GuardedFreeAlgebra, exp_endomorphism
from .hpt import Contraction
from .ibl import IBLStructure
from .symcoalg import SymSpace, TaylorCoderivation, hat_extension
from .tseries import TOp

SCALARS = ExplicitFDAlgebra(GradedBasis.make([("1", 0)]), {}, 0)


# -- FIX-1 --------------------------------------------------------------------------


@dataclass
class Fix1:
    A: GuardedFreeAlgebra
    B: ExplicitFDAlgebra
    contraction: Contraction

    @property
    def d(self) -> LinOp:
        return self.contraction.d_A


def _dirac_sigma(A: GuardedFreeAlgebra, B) -> LinOp:
    unit = A.unit_key
    return LinOp(A.space, B.space, 0,
                 lambda k: Vector.basis(0) if k == unit else Vector.zero(), "sigma")


def _de_rham(A: GuardedFreeAlgebra, label: str) -> LinOp:
    """The de Rham differential sum_i dx_i d/dx_i of K[x_1..x_m] (x) Lambda(dx_1..dx_m),
    whose generators are the m variables followed by their m differentials:
    a monomial with x_i to the power a gives a dx_i times it with one x_i fewer."""
    m = len(A.gen_symbols) // 2
    dx = [tuple(int(j == m + i) for j in range(2 * m)) for i in range(m)]

    def d_fn(key):
        terms = []
        for i in range(m):
            if key[i]:
                lower = key[:i] + (key[i] - 1,) + key[i + 1:]
                terms += [(k, key[i] * s) for k, s in A.mul_keys(dx[i], lower)]
        return Vector(terms)

    return LinOp(A.space, A.space, 1, d_fn, label)


def fix1(bound: int = 8) -> Fix1:
    """K[y] (x) Lambda(dy) with the de Rham differential, contracted onto scalars."""
    A = GuardedFreeAlgebra([("y", 0, None), ("dy", 1, None)], bound)

    def h_fn(key):
        a, c = key
        if c == 1:
            return A.monomial({"y": a + 1}, Q(-1, a + 1))
        return Vector.zero()

    d = _de_rham(A, "d")
    h = LinOp(A.space, A.space, -1, h_fn, "h")
    sigma = _dirac_sigma(A, SCALARS)
    tau = LinOp(SCALARS.space, A.space, 0, lambda k: A.unit(), "tau")
    d_B = LinOp.zero(SCALARS.space, degree=1)
    C = Contraction(sigma, tau, h, d, d_B)
    return Fix1(A, SCALARS, C)


def fix1_perturbation(f: Fix1) -> tuple[LinOp, int]:
    """Conjugate the de Rham differential by exp(d^2/dy^2): a flat non-derivation
    perturbation delta with an explicit (h delta)-nilpotency certificate."""
    A = f.A

    def nu_fn(key):
        a, c = key
        if a >= 2 and c == 0:
            return A.monomial({"y": a - 2}, a * (a - 1))
        return Vector.zero()

    nu = LinOp(A.space, A.space, 0, nu_fn, "nu")
    cert = A.weight_bound // 2 + 2
    e = exp_endomorphism(A, nu, cert)
    e_inv = exp_endomorphism(A, nu.scale(-1), cert)
    d_new = (e_inv @ f.d) @ e
    delta = d_new - f.d
    return delta, A.weight_bound + 1


# -- FIX-2 --------------------------------------------------------------------------


@dataclass
class Fix2:
    A: GuardedFreeAlgebra
    B: ExplicitFDAlgebra
    contraction: Contraction
    P: LinOp
    delta1: LinOp          # [d, P], the order-two coefficient

    @property
    def d(self) -> LinOp:
        return self.contraction.d_A

    def delta_series(self):
        """Delta = d + t [d, P] as an exact t-series (k = -1, so |t| = 2)."""
        return TOp({0: self.d, 1: self.delta1}, self.A.space, self.A.space, 1, 2)

    def low_keys(self, max_len: int = 2):
        return tuple(k for k in self.A.space.keys() if sum(k) <= max_len)

    def truncation(self, max_len: int = 2) -> ExplicitFDAlgebra:
        """Finite-dimensional quotient by monomials longer than max_len."""
        keys = self.low_keys(max_len)
        index = {k: i for i, k in enumerate(keys)}
        basis = GradedBasis.make([(self.A.show_key(k), self.A.degree(k)) for k in keys])
        prods = {}
        for k1 in keys:
            for k2 in keys:
                if sum(k1) + sum(k2) <= max_len:
                    prods[(index[k1], index[k2])] = Vector(
                        (index[k], c) for k, c in self.A.mul_keys(k1, k2))
                else:
                    prods[(index[k1], index[k2])] = Vector.zero()
        alg = ExplicitFDAlgebra(basis, prods, index[self.A.unit_key])
        return alg, keys, index


def fix2(bound: int = 10) -> Fix2:
    """K[y,z] (x) Lambda(dy,dz) with d and P = d^2/d(dy)d(dz); Delta = d + t[d,P]."""
    A = GuardedFreeAlgebra([("y", 0, None), ("z", 0, None), ("dy", 1, None), ("dz", 1, None)],
                           bound)

    def p_fn(key):
        a, b, c, e = key
        if c == 1 and e == 1:
            return A.monomial({"y": a, "z": b}, -1)
        return Vector.zero()

    def h_fn(key):
        a, b, c, e = key
        out = Vector.zero()
        if c == 1:
            out = out + A.monomial({"y": a + 1, "z": b, "dz": e}, Q(-1, a + 1))
        if a == 0 and c == 0 and e == 1:
            out = out + A.monomial({"z": b + 1}, Q(-1, b + 1))
        return out

    d = _de_rham(A, "d")
    P = LinOp(A.space, A.space, -2, p_fn, "P")
    h = LinOp(A.space, A.space, -1, h_fn, "h")
    sigma = _dirac_sigma(A, SCALARS)
    tau = LinOp(SCALARS.space, A.space, 0, lambda k: A.unit(), "tau")
    C = Contraction(sigma, tau, h, d, LinOp.zero(SCALARS.space, degree=1))
    delta1 = d.bracket(P)
    return Fix2(A, SCALARS, C, P, delta1)


@dataclass
class Fix2Mid:
    A: GuardedFreeAlgebra
    B: GuardedFreeAlgebra
    contraction: Contraction
    keys_A: tuple
    keys_B: tuple


def fix2_mid(bound_A: int = 16, key_len_A: int = 2, key_len_B: int = 2) -> Fix2Mid:
    """Two-variable de Rham algebra contracted onto the z-variable subalgebra;
    semifull DG, with restricted key corpora for guarded checks."""
    A = GuardedFreeAlgebra([("y", 0, None), ("z", 0, None), ("dy", 1, None), ("dz", 1, None)],
                           bound_A)
    B = GuardedFreeAlgebra([("z", 0, None), ("dz", 1, None)], bound_A)

    def sigma_fn(key):
        a, b, c, e = key
        if a == 0 and c == 0:
            return Vector.basis((b, e))
        return Vector.zero()

    def tau_fn(key):
        b, e = key
        return Vector.basis((0, b, 0, e))

    def h_fn(key):
        a, b, c, e = key
        if c == 1:
            return A.monomial({"y": a + 1, "z": b, "dz": e}, Q(-1, a + 1))
        return Vector.zero()

    d = _de_rham(A, "d")
    d_B = _de_rham(B, "d_B")
    sigma = LinOp(A.space, B.space, 0, sigma_fn, "sigma")
    tau = LinOp(B.space, A.space, 0, tau_fn, "tau")
    h = LinOp(A.space, A.space, -1, h_fn, "h")
    keys_A = tuple(k for k in A.space.keys() if sum(k) <= key_len_A)
    keys_B = tuple(k for k in B.space.keys() if sum(k) <= key_len_B)
    C = Contraction(sigma, tau, h, d, d_B)
    return Fix2Mid(A, B, C, keys_A, keys_B)


def fix2_mid_perturbation(f: Fix2Mid) -> tuple[LinOp, int]:
    """Conjugation perturbation by exp(y d^2/dz^2): flat, not a derivation, and it
    moves the retracted sector so the transferred cumulants are nonzero."""
    A = f.A

    def nu_fn(key):
        a, b, c, e = key
        if b >= 2:
            return A.monomial({"y": a + 1, "z": b - 2, "dy": c, "dz": e}, b * (b - 1))
        return Vector.zero()

    nu = LinOp(A.space, A.space, 0, nu_fn, "nu")
    cert = A.weight_bound + 2
    e = exp_endomorphism(A, nu, cert)
    e_inv = exp_endomorphism(A, nu.scale(-1), cert)
    delta = ((e_inv @ f.contraction.d_A) @ e) - f.contraction.d_A
    return delta, A.weight_bound + 1


# -- FIX-3 --------------------------------------------------------------------------


@dataclass
class Fix3:
    basis: GradedBasis
    Q: TaylorCoderivation
    contraction: Contraction
    levels: dict
    vanishing_level: int


def fix3() -> Fix3:
    """Three-dimensional structure: x (deg 0), x' (deg 0), c (deg 1) with
    q_1(x') = c, q_2(x, x) = c; contracted onto its one-dimensional homology."""
    V = GradedBasis.make([("x", 0), ("xp", 0), ("c", 1)])
    Wb = GradedBasis.make([("w", 0)])
    X, XP, CC = 0, 1, 2
    q1 = {XP: Vector.basis(CC)}
    q2 = {(X, X): Vector.basis(CC)}
    tables = {1: {(k,): v for k, v in q1.items()},
              2: {w: v for w, v in q2.items()}}
    Qd = TaylorCoderivation.from_tables(V, tables, 2, 1, label="Q3")
    d_V = LinOp.from_dict(V, V, 1, {XP: Vector.basis(CC)}, "q1")
    sigma = LinOp.from_dict(V, Wb, 0, {X: Vector.basis(0)}, "sigma")
    tau = LinOp.from_dict(Wb, V, 0, {0: Vector.basis(X)}, "tau")
    h = LinOp.from_dict(V, V, -1, {CC: Vector.basis(XP, -1)}, "h")
    C = Contraction(sigma, tau, h, d_V, LinOp.zero(Wb, degree=1))
    return Fix3(V, Qd, C, {X: 1, XP: 2, CC: 2}, 3)


def fix3_extended() -> Fix3:
    """Five-dimensional extension of FIX-3 with an extra contractible pair in
    degrees (-1, 0), so the contracting homotopy is nonzero on degree zero."""
    V = GradedBasis.make([("a", -1), ("x", 0), ("xp", 0), ("xpp", 0), ("c", 1)])
    Wb = GradedBasis.make([("w", 0)])
    Aa, X, XP, XPP, CC = 0, 1, 2, 3, 4
    tables = {1: {(Aa,): Vector.basis(XPP), (XP,): Vector.basis(CC)},
              2: {(X, X): Vector.basis(CC)}}
    Qd = TaylorCoderivation.from_tables(V, tables, 2, 1, label="Q3x")
    d_V = LinOp.from_dict(V, V, 1, {Aa: Vector.basis(XPP), XP: Vector.basis(CC)}, "q1")
    sigma = LinOp.from_dict(V, Wb, 0, {X: Vector.basis(0)}, "sigma")
    tau = LinOp.from_dict(Wb, V, 0, {0: Vector.basis(X)}, "tau")
    h = LinOp.from_dict(V, V, -1, {CC: Vector.basis(XP, -1), XPP: Vector.basis(Aa, -1)}, "h")
    C = Contraction(sigma, tau, h, d_V, LinOp.zero(Wb, degree=1))
    return Fix3(V, Qd, C, {Aa: 1, X: 1, XP: 1, XPP: 1, CC: 2}, 3)


# -- FIX-4 --------------------------------------------------------------------------


@dataclass
class Fix4:
    basis: GradedBasis
    q2: dict            # weight-2 word -> Vector (values in U)
    p: dict             # key -> Vector over weight-2 words (values in S_2(U))
    contraction: Contraction
    levels: dict
    vanishing_level: int
    search_transcript: list

    def coderivation(self, arity_bound: int = 2) -> TaylorCoderivation:
        tables = {1: {(k,): self.contraction.d_A.on_key(k) for k in self.basis.keys()
                      if not self.contraction.d_A.on_key(k).is_zero()},
                  2: dict(self.q2)}
        return TaylorCoderivation.from_tables(self.basis, tables, max(arity_bound, 2), 1,
                                              label="Q4")

    def cobracket_map(self, space: SymSpace) -> LinOp:
        return hat_extension(space, 1, lambda w: self.p.get(w[0], Vector.zero()), -1, "p^")

    def structure(self, W: int = 4, N: int = 2):
        space = SymSpace(self.basis, W)
        return IBLStructure.from_components(
            self.basis, W, N,
            {0: self.coderivation().as_map(space), 1: self.cobracket_map(space)})


def _fix4_conditions(U: GradedBasis, d: LinOp, q2: dict, p: dict, W: int = 4) -> bool:
    """delta = Q + t p^ squares to zero: Q^2 = 0, [Q, p^] = 0, p^2 = 0 on words <= W."""
    S = SymSpace(U, W + 2)
    tables = {1: {(k,): d.on_key(k) for k in U.keys() if not d.on_key(k).is_zero()},
              2: q2}
    Qm = TaylorCoderivation.from_tables(U, tables, 2, 1).as_map(S)
    phat = hat_extension(S, 1, lambda w: p.get(w[0], Vector.zero()), -1)
    words = [w for w in S.keys() if len(w) <= W]
    if not (Qm @ Qm).is_zero_on(words):
        return False
    if not (Qm @ phat + phat @ Qm).is_zero_on(words):
        return False
    if not (phat @ phat).is_zero_on(words):
        return False
    return True


def fix4() -> Fix4:
    """Deterministic lattice search for a three-dimensional structure with
    d of rank one, a nonzero quadratic component and a nonzero weight-raising
    component at first order, satisfying the full flatness constraint."""
    transcript = []
    degree_candidates = [(-2, -1, 0), (-1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, 1, 1)]
    for degs in degree_candidates:
        g1, g2, g3 = degs
        U = GradedBasis.make([("u1", g1), ("u2", g2), ("u3", g3)])
        if g2 != g1 + 1:
            continue
        d = LinOp.from_dict(U, U, 1, {0: Vector.basis(1)}, "d")
        S2 = SymSpace(U, 2)
        pair_words = S2.words_of_weight(2)
        q2_slots = [(w, k) for w in pair_words for k in U.keys()
                    if S2.degree(w) + 1 == U.degree(k)]
        p_slots = [(k, w) for k in U.keys() for w in pair_words
                   if U.degree(k) - 1 == S2.degree(w)]
        if not q2_slots or not p_slots:
            transcript.append((degs, "no slots"))
            continue
        if len(q2_slots) + len(p_slots) > 8:
            transcript.append((degs, "slot budget"))
            continue
        lattice = (0, 1, -1)
        found = None
        for q2_coeffs in iproduct(lattice, repeat=len(q2_slots)):
            if not any(q2_coeffs):
                continue
            q2: dict = {}
            for (w, k), c in zip(q2_slots, q2_coeffs):
                if c:
                    q2[w] = q2.get(w, Vector.zero()) + Vector.basis(k, c)
            for p_coeffs in iproduct(lattice, repeat=len(p_slots)):
                if not any(p_coeffs):
                    continue
                p: dict = {}
                for (k, w), c in zip(p_slots, p_coeffs):
                    if c:
                        p[k] = p.get(k, Vector.zero()) + Vector.basis(w, c)
                if _fix4_conditions(U, d, q2, p):
                    found = (q2, p)
                    break
            if found:
                break
        if not found:
            transcript.append((degs, "exhausted"))
            continue
        q2, p = found
        transcript.append((degs, "found", sorted((w, repr(v)) for w, v in q2.items()),
                           sorted((k, repr(v)) for k, v in p.items())))
        Wb = GradedBasis.make([("v", g3)])
        sigma = LinOp.from_dict(U, Wb, 0, {2: Vector.basis(0)}, "g")
        tau = LinOp.from_dict(Wb, U, 0, {0: Vector.basis(2)}, "f")
        h = LinOp.from_dict(U, U, -1, {1: Vector.basis(0, -1)}, "h")
        C = Contraction(sigma, tau, h, d, LinOp.zero(Wb, degree=1))
        levels = {0: 1, 1: 2, 2: 1}
        return Fix4(U, q2, p, C, levels, 3, transcript)
    raise RuntimeError(f"lattice search failed: {transcript}")
