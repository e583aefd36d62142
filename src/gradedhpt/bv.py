"""Derived BV algebras of odd degree k: structure and morphism certification,
the derived Poisson image, homotopy transfer along semifull DG algebra
contractions, Maurer-Cartan theory over Laurent candidates, the convolution
exp/log comparison of morphism notions, and the dual coalgebra picture.

Scope rule (see ``report.scan``): every checker here evaluates a claim level by
level (arity or word weight) and decides it on the levels evaluated before the
first witness or the first level that leaves the algebra's guard; that scope
goes in the bounds.  The congruences K(Delta)_m = 0 and kappa(f)_m = 0 mod
t^{m-1} are written once (``_congruence_claims``) and computed to the order the
series is reliable to.  A claim with nothing of its own evaluated, or beyond
that order, is UNDETERMINED, never PASS, and no Overflow escapes a checker.

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
from itertools import combinations_with_replacement

from .core import (GradedBasis, LinOp, RouteDisagreement, ShiftedSpace, Vector, exp_series,
                   expand_multilinear)
from .commalg import (
    CommAlgebra,
    ExplicitFDAlgebra,
    cumulant_lift,
    cumulant_recursion,
    kos_lift,
    koszul_recursion,
    koszul_vanishes,
)
from .hpt import Contraction, check_semifull_algebra, check_semifull_coalgebra, linf_transfer
from .mc import mc_sum
from .report import Report, scan, witness_verdict
from .symcoalg import (
    FiniteCoalgebra,
    SymSpace,
    TaylorCoderivation,
    TaylorMorphism,
    koszul_cobracket_tilde,
    star_exp,
    star_log,
    words_over,
)
from .tseries import TOp, TruncatedTAlgebra, flat_unital_map, flatten_top, spl_t


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

    Scope rule (see ``report.scan``): both routes evaluate arity by arity on the
    order corpus and stop at the first witness or after the first arity that
    leaves the algebra's guard.  Each claim is decided on the arities evaluated
    below that, recorded in the bounds as ``scope: <claim>``; a claim with no
    arity of its own in scope is UNDETERMINED, never PASS, and no Overflow
    escapes.
    """
    _require_odd(k)
    rep = Report(title, bounds={"N": N, "arity_bound": arity_bound, "k": k})
    td = _t_degree(k)
    if Delta.t_degree != td:
        raise ValueError(f"t-degree mismatch: expected {td}")
    if Delta.degree != 1:
        raise ValueError("a derived BV operator has total degree one")
    keys = tuple(A.order_check_keys() if order_keys is None else order_keys)
    basis_keys = tuple(A.space.keys())

    reliable = Delta.known_to
    support = Delta.support()
    top = max(support, default=0)

    for n in support:
        op = Delta.coeff(n)
        ok = True
        detail = ""
        try:
            op.check_homogeneous(basis_keys)
        except ValueError as exc:
            ok, detail = False, str(exc)
        rep.add(f"degree of coefficient {n} is {1 + n * (k - 1)}", ok, detail)
        rep.add(f"coefficient {n} kills the unit", op.on_key(A.unit_key).is_zero())

    # every coefficient is odd, so sum_i [Delta_i, Delta_{n-i}] = 2 (Delta o Delta)_n
    flat_top = 2 * top if Delta.is_exact() else min(N, reliable)
    sq = Delta @ Delta
    for n in range(0, flat_top + 1):
        op = sq.coeff(n)
        w = next((kk for kk in basis_keys if not op.on_key(kk).is_zero()), None)
        rep.add(f"flatness at order {n}", *witness_verdict(w))

    # route A: coefficient n is a differential operator of order <= n+1; on a
    # generating corpus, vanishing must hold at every arity above the order
    for n in range(0, N + 1):
        if Delta.is_exact() and n not in Delta.coeffs:
            continue
        name = f"order(Delta_{n}) <= {n + 1}"
        if not Delta.is_exact() and reliable is not None and n > reliable:
            rep.add(name, None, "coefficient beyond reliable order")
            continue
        op = Delta.coeff(n)
        scope, witness = scan(((m, (m,)) for m in range(n + 2, max(arity_bound + 1, n + 2) + 1)),
                              lambda m: koszul_vanishes(A, op, m, keys))
        rep.claim(name, scope, lambda: (witness is None, "" if witness is None
                                        else f"K_{scope} != 0 at {witness}"), least=n + 2)

    # route B: K(Delta)_m = 0 mod t^{m-1}, computed in the truncated quotient
    # to the order the series is reliable to; each multiset is one tuple of
    # order-0 keys for the key-tuple kernel, the scan over all arities shares
    # one prefix memo of it, and the shared values it returns are only read
    order = N if reliable is None else min(N, reliable)
    At = TruncatedTAlgebra(A, order, td)
    Dflat = flatten_top(Delta, order)
    memo: dict = {}
    _congruence_claims(rep, "K(Delta)", keys, arity_bound, order, lambda tup: koszul_recursion(
        At, Dflat, tuple((0, kk) for kk in tup), memo))
    return rep


def _congruence_claims(rep: Report, label: str, keys, arity_bound: int, order: int,
                       value) -> None:
    """The claims ``label_m = 0 mod t^{m-1}`` for m = 2..arity_bound, where
    ``value(tup)`` is the flattened value of the family (Koszul brackets of a
    structure, cumulants of a morphism) on a tuple of keys, computed to order
    ``order``.  One ``scan`` over the arities m <= order + 1, with the key
    multisets as cases, decides each arity as a claim of its own; an arity
    above ``order + 1`` is UNDETERMINED, its detail naming the order it needs."""
    def witness(tup):
        bad = [key for key in value(tup).keys() if key[0] < len(tup) - 1]
        return (tup, bad[0]) if bad else None

    top = min(arity_bound, order + 1)
    scope, found = scan(((m, combinations_with_replacement(keys, m))
                         for m in range(2, top + 1)), witness)
    for m in range(2, arity_bound + 1):
        name = f"{label}_{m} = 0 mod t^{m - 1}"
        if m > top:
            rep.add(name, None, f"needs order {m - 1}, have {order}")
        else:
            rep.claim(name, scope, lambda: witness_verdict(found if scope == m else None),
                      least=m)


def bv_morphism_check(f: TOp, A: CommAlgebra, B: CommAlgebra, DeltaA: TOp, DeltaB: TOp,
                      k: int, N: int, arity_bound: int, keys=None) -> Report:
    """Certify f = sum t^n f_n as a morphism (A, Delta) -> (B, Delta').

    Scope rule as in ``bv_check``: the congruences kappa(f)_m = 0 mod t^{m-1}
    are computed to the order f is reliable to and decided by one
    ``report.scan`` over the arities; an arity beyond the guard or beyond that
    order is UNDETERMINED, never PASS, and no Overflow escapes.
    """
    _require_odd(k)
    td = _t_degree(k)
    rep = Report("derived BV morphism", bounds={"N": N, "arity_bound": arity_bound, "k": k})
    keys = tuple(A.space.keys() if keys is None else keys)

    rep.add("f_0(1_A) = 1_B", f.coeff(0).on_key(A.unit_key) == B.unit())
    for n in f.support():
        if n >= 1:
            rep.add(f"f_{n}(1_A) = 0", f.coeff(n).on_key(A.unit_key).is_zero())

    inter = (f @ DeltaA - DeltaB @ f).truncated(N)
    bad = inter.first_nonzero(keys, N)
    rel = inter.known_to
    rep.add(f"f Delta = Delta' f (orders <= {N if rel is None else min(N, rel)})",
            *witness_verdict(None if bad is None else bad[0]))
    if rel is not None and rel < N:
        rep.add(f"f Delta = Delta' f beyond order {rel}", None, "series truncated")

    reliable = f.known_to
    Bt = TruncatedTAlgebra(B, N if reliable is None else min(N, reliable), td)
    f_flat = flat_unital_map(f, Bt)
    _congruence_claims(rep, "kappa(f)", keys, arity_bound, Bt.N,
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

    Scope rule as in ``bv_check``: the square is decided by one ``report.scan``
    over word weights, and the multiderivation claims by one scan over the
    arities n, each a claim of its own (the key tuples of n + 1 letters are the
    cases).  A claim with no level of its own in scope is UNDETERMINED, never
    PASS, and no Overflow escapes.
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

    def multiderivation_witness(tup):
        head, b, c = tup[:-2], tup[-2], tup[-1]
        op, memo = Delta.coeff(len(tup) - 2), {}
        lhs = expand_multilinear(tuple(map(Vector.basis, head)) + (Vector(A.mul_keys(b, c)),),
                                 lambda *keys: koszul_recursion(A, op, keys, memo))
        sign = -1 if (A.space.degree(b) % 2 and A.space.degree(c) % 2) else 1
        rhs = (A.mul(koszul_recursion(A, op, head + (b,), memo), Vector.basis(c))
               + A.mul(koszul_recursion(A, op, head + (c,), memo), Vector.basis(b)).scale(sign))
        return None if lhs == rhs else tup

    scope, bad = scan(((n, combinations_with_replacement(keys, n + 1))
                       for n in range(1, arity_bound + 1)), multiderivation_witness)
    for n in range(1, arity_bound + 1):
        rep.claim(f"P(Delta)_{n} is a multiderivation", scope,
                  lambda: witness_verdict(bad if scope == n else None), least=n)
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


def cl_intertwine_defect(F: LinOp, Delta_U: TOp, Delta_B: TOp, Bt: TruncatedTAlgebra, N: int):
    """exp-side chain condition F Delta = Delta' F on the flattened spaces."""
    DU = flatten_top(Delta_U, N)
    DB = flatten_top(Delta_B, N)

    def F_t(key):
        n, word = key
        return Vector(((n + m, kk), c) for (m, kk), c in F.on_key(word).items() if n + m <= N)

    Ft = LinOp(DU.domain, Bt.space, 0, F_t, "F~")
    return (Ft @ DU).first_difference(DB @ Ft, DU.domain.keys())


def cl_bijection(phi: LinOp, SU: SymSpace, SU_alg: CommAlgebra, Bt: TruncatedTAlgebra,
                 Delta_U: TOp, Delta_B: TOp, arity_bound: int) -> Report:
    """Both directions of the exp/log correspondence between the two morphism notions.

    Scope rule as in ``bv_check``: the congruences kappa(F)_m = 0 mod t^{m-1}
    on letters are decided arity by arity into a side report, and the
    equivalence claim is UNDETERMINED, never FAIL, when no arity fails there
    and some arity is undecided (beyond the guard or beyond the order N).
    """
    N = Bt.N
    rep = Report("morphism-notion comparison", bounds={"N": N, "arity_bound": arity_bound})
    if not phi.on_key(()).is_zero():
        raise ValueError("comparison data must kill the coalgebra unit")
    F = star_exp(phi, Bt.mul, Bt.unit())
    cl_ok = cl_vanishing_defect(phi, SU) is None
    inter = cl_intertwine_defect(F, Delta_U, Delta_B, Bt, N)
    rep.add("chain condition for exp data", *witness_verdict(inter))
    kappa = Report("cumulant congruence")
    _congruence_claims(kappa, "kappa(F)", SU_alg.order_check_keys(), arity_bound, N,
                       lambda tup: cumulant_recursion(SU_alg, Bt, F, tup))
    cong_ok = False if kappa.has_fail else (True if kappa.ok else None)
    rep.add("vanishing condition <=> cumulant congruence",
            None if cong_ok is None else cl_ok == cong_ok, f"cl={cl_ok}, kappa={cong_ok}")
    back = star_log(F, Bt.mul, Bt.unit())
    round1 = back.first_difference(phi, SU.keys())
    rep.add("log(exp(phi)) = phi", *witness_verdict(round1))
    again = star_exp(back, Bt.mul, Bt.unit())
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
    """Dual of a finite-dimensional augmented algebra (products never hit the unit)."""
    basis = dual_basis_of(A.basis)
    cop: dict = {}
    for i in A.basis.keys():
        terms = []
        for j in A.basis.keys():
            for kk in A.basis.keys():
                c = Vector(A.mul_keys(j, kk))[i]
                if c:
                    sign = -1 if (A.basis.degree(j) % 2 and A.basis.degree(kk) % 2) else 1
                    terms.append((j, kk, sign * c))
        cop[i] = tuple(terms)
    return FiniteCoalgebra(basis, cop, A.unit_key)


def coalgebra_dual_algebra(C: FiniteCoalgebra) -> ExplicitFDAlgebra:
    basis = dual_basis_of(C.basis)
    prods: dict = {}
    keys = list(C.basis.keys())
    for j in keys:
        for kk in keys:
            sign = -1 if (C.basis.degree(j) % 2 and C.basis.degree(kk) % 2) else 1
            prods[(j, kk)] = Vector((i, sign * c) for i in keys for l, r, c in C.coproduct(i)
                                    if l == j and r == kk)
    return ExplicitFDAlgebra(basis, prods, C.unit_key)


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
    # counit-killing membership, then the independent cobracket-recursion route
    for n in sorted(delta.coeffs):
        op = delta.coeffs[n]
        kills_unit = op.on_key(C.unit_key).is_zero()
        counit_free = all(op.on_key(key)[C.unit_key] == 0 for key in C.keys())
        rep.add(f"delta_{n} kills the coaugmentation", kills_unit)
        rep.add(f"counit kills delta_{n} images", counit_free)
        if not (kills_unit and counit_free):
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
