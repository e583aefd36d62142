"""Derived BV algebras of odd degree k: structure and morphism certification,
the derived Poisson image, homotopy transfer along semifull DG algebra
contractions, Maurer-Cartan theory over Laurent candidates, the convolution
exp/log comparison of morphism notions, and the dual coalgebra picture.

Scope rule (see ``report.scan``): every checker here evaluates a claim level by
level (arity, word weight or key weight) and decides it on the levels evaluated
before the first witness or the first level that leaves the algebra's guard;
that scope goes in the bounds.  ``bv_check`` opens with the structure-series
preamble of ``tseries``, and the morphism checks claim f Delta = Delta' f by
its ``intertwining_claims``, as ``ibl`` does.  The congruences K(Delta)_m = 0
and kappa(f)_m = 0 mod t^{m-1} are written once (``_congruence_claims``) and
computed to the order the series is reliable to; they and the multiderivation
claims decide arity m on its multisets of total key weight <= s, the scope s
(``symcoalg.multisets_by_weight``).  A claim with nothing of its own
evaluated, or beyond that order, is UNDETERMINED, never PASS, and no Overflow
escapes a checker.

Maurer-Cartan candidates are flat (order, key) Vectors.  Their residuals and
push-forwards are ``mc.mc_sum`` of the Koszul-bracket and cumulant lifts
(``commalg.kos_lift``, ``commalg.cumulant_lift``) of the flattened series, as
in ``ibl``, and each t-quotient is taken at an order no term reaches
(``_reach``), so the sums are exact.  The e^a route of ``bv_mc_check`` is
independent of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .core import (CommAlgebra, GradedBasis, LinOp, RouteDisagreement, ShiftedSpace, Vector,
                   exp_series)
from .commalg import (
    ExplicitFDAlgebra,
    cumulant_lift,
    cumulant_recursion,
    kos_lift,
    koszul_recursion,
    koszul_vanishes,
)
from .hpt import Contraction, check_semifull_algebra, check_semifull_coalgebra, linf_transfer
from .mc import mc_sum
from .report import Report, evaluable_scope, scan, witness_verdict
from .symcoalg import (
    FiniteCoalgebra,
    SymSpace,
    TaylorCoderivation,
    TaylorMorphism,
    koszul_cobracket_tilde,
    multisets_by_weight,
    star_exp,
    star_log,
    words_over,
)
from .tseries import (TOp, TruncatedTAlgebra, degree_claim, flat_unital_map, flatness_claims,
                      flatten_top, intertwining_claims, known_coefficients, known_order, spl_t,
                      unit_claim)


def _require_odd(k: int) -> None:
    if k % 2 == 0:
        raise ValueError("derived BV degree k must be odd")


def _t_degree(k: int) -> int:
    return 1 - k


# -- structure certification ---------------------------------------------------------


def bv_check(A: CommAlgebra, Delta: TOp, k: int, N: int, arity_bound: int,
             order_keys=None, title: str = "derived BV structure") -> Report:
    """Certify a degree-k derived BV structure.

    Flatness and the order filtration are checked at every order <= N (and at
    all orders when the series is exact); the order condition is verified by
    two independent routes: per-coefficient operator order, and the mod-t
    congruence of the Koszul brackets computed in A[t]/(t^{N+1}).

    Scope rule as in the module docstring: both routes scan the order corpus
    arity by arity, and the degree, unit and flatness claims are the
    structure-series preamble of ``tseries``, as in ``ibl_check``.
    """
    _require_odd(k)
    rep = Report(title, bounds={"N": N, "arity_bound": arity_bound, "k": k})
    td = _t_degree(k)
    if Delta.t_degree != td:
        raise ValueError(f"t-degree mismatch: expected {td}")
    if Delta.degree != 1:
        raise ValueError("a derived BV operator has total degree one")
    keys = tuple(A.order_check_keys() if order_keys is None else order_keys)

    for n, op in known_coefficients(rep, Delta, "Delta", N).items():
        scope, want = evaluable_scope(A, op.on_key), 1 + n * (k - 1)
        degree_claim(rep, A, op, f"degree of coefficient {n} is {want}", want, scope)
        unit_claim(rep, A, op, f"coefficient {n} kills the unit", scope)

    # route B's flattening serves the square when their orders agree
    order = known_order(N, Delta)
    Dflat = flatten_top(Delta, order)
    flatness_claims(rep, A, Delta, Dflat)

    # route A: coefficient n is a differential operator of order <= n+1; on a
    # generating corpus, vanishing must hold at every arity above the order
    for n in range(0, N + 1):
        if Delta.is_exact() and n not in Delta.coeffs:
            continue
        name = f"order(Delta_{n}) <= {n + 1}"
        if not Delta.is_exact() and n > Delta.known_to:
            rep.add(name, None, "coefficient beyond reliable order")
            continue
        op = Delta.coeff(n)
        scope, witness = scan(((m, (m,)) for m in range(n + 2, max(arity_bound + 1, n + 2) + 1)),
                              lambda m: koszul_vanishes(A, op, m, keys))
        rep.claim(name, scope, lambda: (witness is None, "" if witness is None
                                        else f"K_{scope} != 0 at {witness}"), least=n + 2)

    # route B: K(Delta)_m = 0 mod t^{m-1}, computed in the truncated quotient
    # to the order the series is reliable to; each multiset is one tuple of
    # order-0 keys for the key-tuple kernel, the scans of all arities share
    # one prefix memo of it, and the shared values it returns are only read
    At = TruncatedTAlgebra(A, order, td)
    memo: dict = {}
    _congruence_claims(rep, "K(Delta)", A, keys, arity_bound, order, lambda tup: koszul_recursion(
        At, Dflat, tuple((0, kk) for kk in tup), memo))
    return rep


def _congruence_claims(rep: Report, label: str, A: CommAlgebra, keys, arity_bound: int,
                       order: int, value) -> None:
    """The claims ``label_m = 0 mod t^{m-1}`` for m = 2..arity_bound, where
    ``value(tup)`` is the flattened value of the family (Koszul brackets of a
    structure, cumulants of a morphism) on a key tuple of A, computed to order
    ``order``.  Arity m is one ``report.scan`` of its multisets by total weight
    (``multisets_by_weight``); above ``order + 1`` it is UNDETERMINED."""
    for m in range(2, arity_bound + 1):
        name = f"{label}_{m} = 0 mod t^{m - 1}"
        if m > order + 1:
            rep.add(name, None, f"needs order {m - 1}, have {order}")
            continue
        scope, found = scan(multisets_by_weight(A, keys, m), lambda tup: next(
            ((tup, key) for key in value(tup).keys() if key[0] < len(tup) - 1), None))
        rep.claim(name, scope, lambda: witness_verdict(found), least=m)


def bv_morphism_check(f: TOp, A: CommAlgebra, B: CommAlgebra, DeltaA: TOp, DeltaB: TOp,
                      k: int, N: int, arity_bound: int, keys=None) -> Report:
    """Certify f = sum t^n f_n as a morphism (A, Delta) -> (B, Delta').

    Scope rule as in the module docstring: the congruences kappa(f)_m = 0 mod
    t^{m-1} are ``_congruence_claims`` on the corpus ``keys``, arity m decided
    on "arity m, total weight <= s", computed to the order f is known to, and
    the unit claims read f to that order (the ones above are UNDETERMINED).  The intertwining claim is
    ``tseries.intertwining_claims``, as in ``ibl.ibl_morphism_check``.
    """
    _require_odd(k)
    td = _t_degree(k)
    rep = Report("derived BV morphism", bounds={"N": N, "arity_bound": arity_bound, "k": k})
    keys = tuple(A.space.keys() if keys is None else keys)

    rep.add("f_0(1_A) = 1_B", f.coeff(0).on_key(A.unit_key) == B.unit())
    for n in f.support():
        if 1 <= n <= known_order(n, f):
            rep.add(f"f_{n}(1_A) = 0", f.coeff(n).on_key(A.unit_key).is_zero())
    rep.add_beyond(f.known_to, [f"f_{n}(1_A) = 0" for n in f.support() if n > known_order(n, f)])

    intertwining_claims(rep, A, f, DeltaA, DeltaB, N, "f Delta = Delta' f")
    Bt = TruncatedTAlgebra(B, known_order(N, f), td)
    f_flat = flat_unital_map(f, Bt)
    _congruence_claims(rep, "kappa(f)", A, keys, arity_bound, Bt.N,
                       lambda tup: cumulant_recursion(A, Bt, f_flat, tup))
    return rep


# -- derived Poisson image -----------------------------------------------------------


def bv_to_poisson(A: CommAlgebra, Delta: TOp, k: int, arity_bound: int) -> TaylorCoderivation:
    """P(Delta)_n = K(Delta_{n-1})_n on the (1-k)-shifted space (k odd: no signs)."""
    _require_odd(k)
    shifted = ShiftedSpace(A.space, 1 - k)

    def fn(n, word):
        return koszul_recursion(A, Delta.coeff(n - 1), word)

    return TaylorCoderivation(shifted, fn, arity_bound, 1, label="P(Delta)")


def bv_morphism_to_poisson(f: TOp, A: CommAlgebra, B: CommAlgebra, k: int,
                           arity_bound: int, N: int) -> TaylorMorphism:
    """P(f)_n = coefficient of t^{n-1} in kappa(f)_n.  It reads f up to order
    arity_bound - 1, and raises ValueError when f is known only below that."""
    _require_odd(k)
    if f.known_to is not None and f.known_to < arity_bound - 1:
        raise ValueError(f"P(f) to arity {arity_bound} needs f to order {arity_bound - 1}, "
                         f"known to order {f.known_to}")
    td = _t_degree(k)
    Bt = TruncatedTAlgebra(B, max(N, arity_bound), td)
    f_flat = flat_unital_map(f, Bt)

    def fn(n, word):
        return _at_order(cumulant_recursion(A, Bt, f_flat, word), n - 1)

    return TaylorMorphism(ShiftedSpace(A.space, 1 - k), ShiftedSpace(B.space, 1 - k),
                          fn, arity_bound, label="P(f)")


def verify_poisson(A: CommAlgebra, Delta: TOp, k: int, arity_bound: int,
                   keys=None) -> Report:
    """The Poisson image squares to zero and its brackets are multiderivations.

    Scope rule as in the module docstring: the square is one ``report.scan``
    over word weights.  The defect K_n(..., bc) - K_n(..., b)c -+ K_n(..., c)b
    of P(Delta)_n = K(Delta_{n-1})_n is the two-slot recursion's K_{n+1}(..., b,
    c), so arity n is one scan of the multisets of n + 1 keys by total weight.
    """
    rep = Report("derived Poisson image", bounds={"arity_bound": arity_bound, "k": k})
    keys = tuple(A.order_check_keys() if keys is None else keys)
    P = bv_to_poisson(A, Delta, k, arity_bound)
    S = SymSpace(P.base, arity_bound)
    Pm = P.as_map(S)
    sq = Pm @ Pm
    scope, w = scan(((m, words_over(P.base, keys, m, min_weight=m))
                     for m in range(1, arity_bound + 1)),
                    lambda word: None if sq.on_key(word).is_zero() else word)
    rep.claim("P(Delta)^2 = 0", scope, lambda: witness_verdict(w))
    for n in range(1, arity_bound + 1):
        op, memo = Delta.coeff(n - 1), {}
        scope, bad = scan(multisets_by_weight(A, keys, n + 1),
                          lambda tup: None if koszul_recursion(A, op, tup, memo).is_zero() else tup)
        rep.claim(f"P(Delta)_{n} is a multiderivation", scope, lambda: witness_verdict(bad),
                  least=n + 1)
    return rep


# -- homotopy transfer ----------------------------------------------------------------


@dataclass
class BVTransfer:
    delta_B: TOp    # transferred structure, including d_B
    tau: TOp        # section-side morphism B[[t]] -> A[[t]]
    sigma: TOp
    h: TOp
    report: Report


def bv_transfer(A: CommAlgebra, B: CommAlgebra, Delta: TOp, C: Contraction, k: int,
                N: int, arity_bound: int, keys_A=None, keys_B=None) -> BVTransfer:
    """Transfer a derived BV structure along a semifull DG algebra contraction,
    re-certify everything, and verify that the Poisson image commutes with the
    L-infinity[1] transfer.  That last claim is decided by one ``report.scan``
    over word weights, the transfer itself at weight 0: beyond the guard it is
    UNDETERMINED, and so it is when tau is known below order arity_bound - 1,
    the order P(tau) reads."""
    _require_odd(k)
    keys_A = tuple(A.space.keys() if keys_A is None else keys_A)
    keys_B = tuple(B.space.keys() if keys_B is None else keys_B)
    rep = Report("derived BV transfer", bounds={"N": N, "arity_bound": arity_bound, "k": k})

    if C.d_A.first_difference(Delta.coeff(0), A.space.keys()) is not None:
        raise ValueError("Delta_0 must be the contraction differential")
    semifull = check_semifull_algebra(C, A, B, keys_A, keys_B)
    rep.merge(semifull, prefix="semifull: ")
    strength = semifull.bounds["dg_strength"]
    rep.add("d_A is an algebra derivation",
            None if strength == "beyond the guard" else strength == "checked")

    DeltaB, sigma_new, tau_new, h_new = spl_t(C, Delta, N)

    rep.merge(bv_check(B, DeltaB, k, N, arity_bound, keys_B), prefix="transferred: ")
    rep.merge(bv_morphism_check(tau_new, B, A, DeltaB, Delta, k, N, arity_bound, keys_B),
              prefix="tau: ")

    claim = "Poisson image commutes with transfer"
    if tau_new.known_to is not None and tau_new.known_to < arity_bound - 1:
        rep.add(claim, None, f"tau known to order {tau_new.known_to}, "
                             f"P(tau) reads order {arity_bound - 1}")
        return BVTransfer(DeltaB, tau_new, sigma_new, h_new, rep)
    shifted = Contraction(
        _reshift(C.sigma, 1 - k), _reshift(C.tau, 1 - k), _reshift(C.h, 1 - k),
        _reshift(C.d_A, 1 - k), _reshift(C.d_B, 1 - k), verify_on_init=False)
    P_A = bv_to_poisson(A, Delta, k, arity_bound)
    P_B = bv_to_poisson(B, DeltaB, k, arity_bound)
    P_tau = bv_morphism_to_poisson(tau_new, B, A, k, arity_bound, N)
    transfer = []

    def commutes(word):
        # the empty word, at weight 0, computes the transfer: when that leaves
        # the guard, no word is compared and the claim is UNDETERMINED
        if not word:
            transfer.append(linf_transfer(P_A, shifted, arity_bound, corpus_A=keys_A, corpus_B=keys_B))
            return None
        res, n = transfer[0], len(word)
        if P_B.component(n, word) != res.r.component(n, word):
            return ("structure", word)
        if P_tau.component(n, word) != res.f.component(n, word):
            return ("morphism", word)
        return None

    scope, bad = scan(((m, words_over(B.space, keys_B, m, min_weight=m))
                       for m in range(arity_bound + 1)), commutes)
    rep.claim(claim, scope, lambda: witness_verdict(bad))
    return BVTransfer(DeltaB, tau_new, sigma_new, h_new, rep)


def _reshift(op: LinOp, shift: int) -> LinOp:
    return LinOp(ShiftedSpace(op.domain, shift), ShiftedSpace(op.codomain, shift),
                 op.degree, op.on_key, op.label)


# -- Maurer-Cartan theory --------------------------------------------------------------


def laurent_candidate_ok(A: CommAlgebra, a: Vector, k: int, N: int) -> None:
    """Degree and pole constraints of a Maurer-Cartan candidate."""
    if min((i for i, _ in a.keys()), default=0) < -1:
        raise ValueError("Maurer-Cartan candidates may only have a first-order pole")
    for i, key in a.keys():
        if i > N:
            raise ValueError(f"component beyond truncation order {N}")
        if A.space.degree(key) != i * (k - 1):
            raise ValueError(f"component {i} must have degree {i * (k - 1)}")


def _reach(x: Vector, factors: int, series_top: int) -> int:
    """An order that no term reaches in a product of ``factors`` factors of x
    with operator coefficients of total order at most ``series_top``: a pole
    only lowers the order.  A quotient A[t]/(t^{M+1}) at this order M cuts
    nothing, so it is exact; with a pole a cut quotient is not associative."""
    return factors * max([0, *(n for n, _ in x.keys())]) + series_top


def _at_order(x: Vector, n: int) -> Vector:
    """The coefficient of t^n in a flat element."""
    return Vector((key, c) for (m, key), c in x.items() if m == n)


def _apply(op: TOp, x: Vector) -> Vector:
    """Exact application of an exact operator series to a flat element."""
    if not op.is_exact():
        raise ValueError("need an exact operator series for Laurent application")
    return flatten_top(op, _reach(x, 1, max(op.support(), default=0)))(x)


def _exp(At: TruncatedTAlgebra, a: Vector, nilpotency: int) -> Vector:
    """e^a for a with a^nilpotency = 0 (verified)."""
    def power(xs):
        return reduce(At.mul, xs, At.unit())

    if power((a,) * nilpotency):
        raise ValueError(f"Laurent element not nilpotent within {nilpotency}")
    return exp_series(power, a, range(nilpotency))


def bv_mc_residual(A: CommAlgebra, Delta: TOp, a: Vector, arity_cap: int) -> Vector:
    """sum_n K(Delta)_n(a,...,a)/n! as an exact flat element: the Maurer-Cartan
    sum of the Koszul-bracket lift of Delta, which needs Delta(1) = 0."""
    if not Delta.is_exact():
        raise ValueError("Maurer-Cartan residuals need an exact structure series")
    order = _reach(a, arity_cap, max(Delta.support(), default=0))
    At = TruncatedTAlgebra(A, order, Delta.t_degree)
    return mc_sum(kos_lift(At, flatten_top(Delta, order), arity_cap), a, arity_cap)


def bv_mc_check(A: CommAlgebra, Delta: TOp, a: Vector, k: int, N: int,
                arity_cap: int, nilpotency: int | None = None) -> tuple[bool, Vector]:
    """Residual of the flatness equation on a Laurent candidate; optionally
    cross-checked against the exponential route Delta(e^a) = 0."""
    laurent_candidate_ok(A, a, k, N)
    res = bv_mc_residual(A, Delta, a, arity_cap)
    if nilpotency is not None:
        order = _reach(a, 2 * nilpotency, max(Delta.support(), default=0))
        At = TruncatedTAlgebra(A, order, Delta.t_degree)
        direct = flatten_top(Delta, order)(_exp(At, a, nilpotency))
        # e^{-a} Delta(e^a) = residual; Delta(e^a) = 0 iff residual = 0
        conj = At.mul(_exp(At, -a, nilpotency), direct)
        if conj != res:
            raise RouteDisagreement("Koszul residual differs from e^{-a} Delta(e^a)")
        if direct.is_zero() != res.is_zero():
            raise RouteDisagreement("exponential and Koszul Maurer-Cartan routes disagree")
    return res.is_zero(), res


def bv_mc_pushforward(f: TOp, A: CommAlgebra, B: CommAlgebra, a: Vector, k: int,
                      N: int, arity_cap: int) -> Vector:
    """b = sum kappa(f)_n(a,...,a)/n! up to order N, computed exactly as the
    Maurer-Cartan sum of the cumulant lift of f, which needs f(1) = 1: an
    inexact f raises ValueError, since its missing coefficients, moved down by
    the pole, would reach orders <= N."""
    if not f.is_exact():
        raise ValueError("Maurer-Cartan push-forwards need an exact morphism series")
    td = _t_degree(k)
    order = _reach(a, arity_cap, arity_cap * max(f.support(), default=0))
    At, Bt = TruncatedTAlgebra(A, order, td), TruncatedTAlgebra(B, order, td)
    b = mc_sum(cumulant_lift(At, Bt, flatten_top(f, order), arity_cap), a, arity_cap)
    return Vector((key, c) for key, c in b.items() if key[0] <= N)


def bv_leading_term_identity(A: CommAlgebra, Delta: TOp, a: Vector, arity_cap: int) -> bool:
    """The t^{-1} coefficient of the residual equals the Poisson residual of a_{-1}."""
    res = bv_mc_residual(A, Delta, a, arity_cap)
    P = bv_to_poisson(A, Delta, 1 - Delta.t_degree, arity_cap)
    return _at_order(res, -1) == mc_sum(P, _at_order(a, -1), arity_cap)


# -- comparison of morphism notions (free source) ---------------------------------------


def cl_vanishing_defect(phi: LinOp, SU: SymSpace):
    """Condition: the t^m coefficient of phi vanishes on words of weight > m+1."""
    for word in SU.keys():
        img = phi.on_key(word)
        for (m, key) in img.keys():
            if len(word) > m + 1:
                return (word, m)
    return None


def cl_bijection(phi: LinOp, SU: SymSpace, Bt: TruncatedTAlgebra,
                 Delta_U: TOp, Delta_B: TOp, arity_bound: int) -> Report:
    """Both directions of the exp/log correspondence between the two morphism notions.

    Scope rule as in ``bv_check``: the congruences kappa(F)_m = 0 mod t^{m-1}
    on letters are decided arity by arity into a side report, and the
    equivalence claim is UNDETERMINED, never FAIL, when no arity fails there
    and some arity is undecided (beyond the guard or beyond the order N).  The
    chain condition is ``tseries.intertwining_claims`` of F, read as the
    t-series of its coefficients, as in ``bv_morphism_check``.
    """
    N = Bt.N
    rep = Report("morphism-notion comparison", bounds={"N": N, "arity_bound": arity_bound})
    if not phi.on_key(()).is_zero():
        raise ValueError("comparison data must kill the coalgebra unit")
    F = star_exp(phi, Bt)
    cl_ok = cl_vanishing_defect(phi, SU) is None
    td = Bt.t_degree
    F_t = TOp({m: LinOp(SU, Bt.A.space, -m * td, lambda w, m=m: _at_order(F.on_key(w), m),
                        f"F_{m}") for m in range(N + 1)}, SU, Bt.A.space, 0, td)
    intertwining_claims(rep, SU, F_t, Delta_U, Delta_B, N, "chain condition for exp data")
    kappa = Report("cumulant congruence")
    _congruence_claims(kappa, "kappa(F)", SU, SU.order_check_keys(), arity_bound, N,
                       lambda tup: cumulant_recursion(SU, Bt, F, tup))
    cong_ok = False if kappa.has_fail else (True if kappa.ok else None)
    rep.add("vanishing condition <=> cumulant congruence",
            None if cong_ok is None else cl_ok == cong_ok, f"cl={cl_ok}, kappa={cong_ok}")
    back = star_log(F, Bt)
    round1 = back.first_difference(phi, SU.keys())
    rep.add("log(exp(phi)) = phi", *witness_verdict(round1))
    again = star_exp(back, Bt)
    round2 = again.first_difference(F, SU.keys())
    rep.add("exp(log(F)) = F", *witness_verdict(round2))
    return rep


# -- derived BV coalgebras (finite-dimensional dualization backend) ---------------------


def dual_basis_of(basis: GradedBasis) -> GradedBasis:
    return GradedBasis(tuple(s + "'" for s in basis.symbols),
                       tuple(-d for d in basis.degrees))


def dual_linop(f: LinOp, dual_dom: GradedBasis, dual_cod: GradedBasis) -> LinOp:
    """f': W' -> V' with <f'(w'), v> = (-1)^{|f||w'|} <w', f(v)>."""
    def fn(j):
        sign = -1 if (f.degree % 2 and dual_dom.degree(j) % 2) else 1
        return Vector((i, sign * f.on_key(i)[j]) for i in f.domain.keys())

    return LinOp(dual_dom, dual_cod, f.degree, fn, f.label + "'")


def algebra_dual_coalgebra(A: ExplicitFDAlgebra) -> FiniteCoalgebra:
    """Dual of a finite-dimensional augmented algebra (products never hit the unit):
    (-1)^{|j||k|} <j k, i> is the coefficient of j' (x) k' in Delta(i'), read in
    one pass over the products, which keeps the (j, k) order within each i."""
    keys = A.basis.keys()
    cop: dict = {i: [] for i in keys}
    for j in keys:
        for kk in keys:
            sign = -1 if (A.basis.degree(j) % 2 and A.basis.degree(kk) % 2) else 1
            for i, c in Vector(A.mul_keys(j, kk)).items():
                cop[i].append((j, kk, sign * c))
    return FiniteCoalgebra(dual_basis_of(A.basis), cop, A.unit_key)


def coalgebra_dual_algebra(C: FiniteCoalgebra) -> ExplicitFDAlgebra:
    """Dual of a finite-dimensional coalgebra: <j' k', i> = (-1)^{|j||k|} times
    the coefficient of j (x) k in Delta(i), read in one pass over the table."""
    terms: dict = {}
    for i in C.keys():
        for l, r, c in C.coproduct(i):
            sign = -1 if (C.degree(l) % 2 and C.degree(r) % 2) else 1
            terms.setdefault((l, r), []).append((i, sign * c))
    prods = {pair: Vector(t) for pair, t in terms.items()}
    return ExplicitFDAlgebra(dual_basis_of(C.basis), prods, C.unit_key)


def _dual_series(op: TOp, dual_dom: GradedBasis, dual_cod: GradedBasis) -> TOp:
    """The t-series of the duals of op's coefficients (see ``dual_linop``)."""
    return TOp({n: dual_linop(f, dual_dom, dual_cod) for n, f in op.coeffs.items()},
               dual_dom, dual_cod, op.degree, op.t_degree, op.known_to)


def cobv_check(C: FiniteCoalgebra, delta: TOp, k: int, N: int, arity_bound: int) -> Report:
    """Dualize to the opposite algebra and certify there; cross-check the order
    condition with the direct Koszul-cobracket recursion on C."""
    _require_odd(k)
    A_dual = coalgebra_dual_algebra(C)
    rep = bv_check(A_dual, _dual_series(delta, A_dual.basis, A_dual.basis), k, N, arity_bound,
                   title="derived BV coalgebra")
    # counit-killing membership, then the independent cobracket-recursion route,
    # on the coefficients whose claims bv_check does not leave UNDETERMINED
    for n, op in sorted(delta.coeffs.items()):
        if n > known_order(n, delta):
            continue
        unit_bad = None if op.on_key(C.unit_key).is_zero() else C.unit_key
        counit_bad = next((key for key in C.keys() if op.on_key(key)[C.unit_key] != 0), None)
        rep.add(f"delta_{n} kills the coaugmentation", *witness_verdict(unit_bad))
        rep.add(f"counit kills delta_{n} images", *witness_verdict(counit_bad))
        if unit_bad is not None or counit_bad is not None:
            rep.add(f"coorder(delta_{n}) <= {n + 1} (direct recursion)", None,
                    "recursion needs a counit-killing operator")
            continue
        # one recursion (and memo) per arity, shared by all keys
        tildes = {m: koszul_cobracket_tilde(C, op, m) for m in range(n + 2, arity_bound + 2)}
        bad = next(((key, m) for key in C.reduced_keys() for m, kt in tildes.items() if kt(key)),
                   None)
        rep.add(f"coorder(delta_{n}) <= {n + 1} (direct recursion)", *witness_verdict(bad))
    return rep


def cobv_transfer(C: FiniteCoalgebra, D: FiniteCoalgebra, delta: TOp, contraction: Contraction,
                  k: int, N: int, arity_bound: int):
    """Transfer a derived BV coalgebra structure along a semifull DG coalgebra
    contraction; the semifull identities are checked, and the output and the
    projection-side morphism are re-certified."""
    _require_odd(k)
    rep = Report("derived BV coalgebra transfer", bounds={"N": N, "arity_bound": arity_bound})
    rep.merge(check_semifull_coalgebra(contraction, C, D), prefix="semifull: ")
    delta_D, sigma_new, tau_new, h_new = spl_t(contraction, delta, N)
    rep.merge(cobv_check(D, delta_D, k, N, arity_bound), prefix="transferred: ")
    # sigma-side morphism certificate, on the dual algebras
    A_dual, D_dual = coalgebra_dual_algebra(C), coalgebra_dual_algebra(D)
    a, d = A_dual.basis, D_dual.basis
    rep.merge(bv_morphism_check(_dual_series(sigma_new, d, a), D_dual, A_dual,
                                _dual_series(delta_D, d, d), _dual_series(delta, a, a),
                                k, N, arity_bound), prefix="sigma (dual): ")
    return delta_D, sigma_new, tau_new, h_new, rep


# -- Maurer-Cartan correspondence under transfer -----------------------------------------


def bv_kuranishi_report(A: CommAlgebra, B: CommAlgebra, Delta: TOp, result: BVTransfer,
                        k: int, N: int, arity_cap: int, samples_B, samples_A) -> Report:
    """The correspondence MC(B) <-> MC(A) n Ker(h) on sampled Maurer-Cartan elements."""
    rep = Report("derived BV Maurer-Cartan correspondence",
                 bounds={"N": N, "arity_cap": arity_cap})
    for i, b in enumerate(samples_B):
        ok_b, _ = bv_mc_check(B, result.delta_B, b, k, N, arity_cap)
        if not ok_b:
            continue
        a = bv_mc_pushforward(result.tau, B, A, b, k, N, arity_cap)
        ok_a, res = bv_mc_check(A, Delta, a, k, N, arity_cap)
        rep.add(f"push-forward of B sample {i} is Maurer-Cartan", ok_a,
                "" if ok_a else f"residual {sorted({n for n, _ in res.keys()})}")
        hker = all(n > N for n, _ in _apply(result.h, a).keys())
        rep.add(f"push-forward of B sample {i} lies in Ker(h)", hker)
        rep.add(f"sigma recovers B sample {i}", _apply(result.sigma, a) == b)
    for i, a in enumerate(samples_A):
        ok_a, _ = bv_mc_check(A, Delta, a, k, N, arity_cap)
        in_ker = _apply(result.h, a).is_zero()
        if not (ok_a and in_ker):
            continue
        b = _apply(result.sigma, a)
        ok_b, res = bv_mc_check(B, result.delta_B, b, k, N, arity_cap)
        rep.add(f"sigma image of A sample {i} is Maurer-Cartan", ok_b,
                "" if ok_b else f"residual {sorted({n for n, _ in res.keys()})}")
        round_trip = bv_mc_pushforward(result.tau, B, A, b, k, N, arity_cap)
        rep.add(f"tau push-forward returns A sample {i}", round_trip == a)
    return rep
