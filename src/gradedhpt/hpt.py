"""Contractions, the Standard Perturbation Lemma, semifullness certificates,
the symmetrized tensor trick, and homotopy transfer for L-infinity[1] structures.

The lemma is written once, in ``lemma_outputs``: ``perturb`` (a nilpotent
perturbation) and ``tseries.spl_t`` (a t-adically small one) differ only in
how they sum the geometric series sum_n (h delta)^n.  ``perturb`` iterates the
h o delta that ``Perturbation.verify`` certified, so both share its images.

The semifull-coalgebra identities compare tensors through
``symcoalg.tensor_coproduct``, the one (left (x) right) o Delta.

Transfer results are always computed twice (explicit recursions vs perturbation
series on the symmetrized contraction) and the two answers must agree exactly;
this route duplication is an architectural feature, not a test convenience.
Verification corpora are explicit wherever a guarded backend makes full
enumeration impossible; certificates record the corpus they were checked on.
``perturb`` and ``symmetrized_contraction`` take a corpus per side, and an
empty corpus checks nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

from .core import (
    ConvergenceFault,
    LinOp,
    ONE,
    Q,
    RouteDisagreement,
    Vector,
    koszul_sign,
)
from .commalg import CommAlgebra, cumulant_lift, kos_lift, koszul_closed, koszul_vanishes
from .report import PASS, Report, scan, witness_verdict
from .symcoalg import (
    SymSpace,
    TaylorCoderivation,
    TaylorMorphism,
    assemble_word,
    coalgebra_morphism_defect,
    coderivation_defect,
    taylor_coderivation_from_map,
    taylor_morphism_from_map,
    tensor_coproduct,
    words_over,
)


@dataclass
class Contraction:
    """(sigma, tau, h) with differentials; the five side conditions and the chain-map
    conditions are verified exactly on the basis at construction."""

    sigma: LinOp
    tau: LinOp
    h: LinOp
    d_A: LinOp
    d_B: LinOp
    verify_on_init: bool = True

    def __post_init__(self):
        if self.verify_on_init:
            self.verify()

    @property
    def space_A(self):
        return self.sigma.domain

    @property
    def space_B(self):
        return self.sigma.codomain

    def verify(self, keys_A=None, keys_B=None) -> None:
        """Each axiom is a defect of one key, read off the cached images of the
        five maps; the first key with a nonzero defect is the witness."""
        keys_A = tuple(self.space_A.keys() if keys_A is None else keys_A)
        keys_B = tuple(self.space_B.keys() if keys_B is None else keys_B)
        sigma, tau, h, d_A, d_B = self.sigma, self.tau, self.h, self.d_A, self.d_B
        checks = [
            (keys_B, "sigma tau = id", lambda k: sigma(tau.on_key(k)) != Vector.basis(k)),
            (keys_B, "d_B^2 = 0", lambda k: d_B(d_B.on_key(k))),
            (keys_B, "tau chain map", lambda k: tau(d_B.on_key(k)) != d_A(tau.on_key(k))),
            (keys_B, "h tau = 0", lambda k: h(tau.on_key(k))),
            (keys_A, "homotopy identity", lambda k: h(d_A.on_key(k)) + d_A(h.on_key(k))
             != tau(sigma.on_key(k)) - Vector.basis(k)),
            (keys_A, "d_A^2 = 0", lambda k: d_A(d_A.on_key(k))),
            (keys_A, "sigma chain map", lambda k: sigma(d_A.on_key(k)) != d_B(sigma.on_key(k))),
            (keys_A, "sigma h = 0", lambda k: sigma(h.on_key(k))),
            (keys_A, "h^2 = 0", lambda k: h(h.on_key(k))),
        ]
        for keys, name, defect in checks:
            for k in keys:
                if defect(k):
                    raise ValueError(f"contraction axiom {name!r} fails at {k}")


@dataclass
class Perturbation:
    """Degree-one delta with (d_A + delta)^2 = 0 and a nilpotency certificate m
    for (h delta)^m = 0, both verified exactly on a stated corpus."""

    delta: LinOp
    certificate: int

    def verify(self, C: Contraction, keys=None) -> tuple[LinOp, LinOp]:
        """Check both key by key and return (d_A + delta, h delta), whose
        cached images ``perturb`` reads again."""
        keys = tuple(C.space_A.keys() if keys is None else keys)
        d_new = C.d_A + self.delta
        for k in keys:
            if d_new(d_new.on_key(k)):
                raise ValueError(f"(d + delta)^2 != 0 at {k}")
        hd = C.h @ self.delta
        for k in keys:
            v = Vector.basis(k)
            for _ in range(self.certificate):
                v = hd(v)
            if v:
                raise ConvergenceFault(
                    f"(h delta)^{self.certificate} != 0 at {k}; certificate exceeded")
        return d_new, hd


def lemma_outputs(sigma, tau, h, delta, geo):
    """The Standard Perturbation Lemma's four outputs from the geometric series
    ``geo`` = sum_n (h delta)^n: (sigma delta geo tau, sigma + sigma delta geo h,
    geo tau, geo h), the transferred perturbation and the perturbed projection,
    section and homotopy.  sigma (delta h)^n = sigma delta (h delta)^{n-1} h for
    n >= 1, so the first two share (sigma delta) geo.  The one lemma for
    ``LinOp`` (``perturb``) and ``TOp`` (``tseries.spl_t``) alike."""
    sd_geo = (sigma @ delta) @ geo
    return sd_geo @ tau, sigma + sd_geo @ h, geo @ tau, geo @ h


def perturb(C: Contraction, p: Perturbation, keys_A=None,
            keys_B=None) -> tuple[LinOp, Contraction]:
    """Standard Perturbation Lemma for a nilpotent perturbation: returns
    (delta_B, perturbed contraction), built by ``lemma_outputs``.

    The geometric series sum_n (h delta)^n stops before the nilpotency
    certificate; its image of a key iterates the certified h delta and sums
    the powers in one pass.  The input perturbation and the output contraction
    are verified on the corpora ``keys_A`` of domain and ``keys_B`` of codomain
    keys (None: the full basis; an empty corpus checks nothing).
    """
    d_new, hd = p.verify(C, keys_A)

    def series(k):
        v = Vector.basis(k)
        terms = list(v.items())
        for _ in range(1, p.certificate):
            v = hd(v)
            terms.extend(v.items())
        return Vector(terms)

    geo = LinOp(C.space_A, C.space_A, 0, series, "sum (h delta)^n")
    delta_B, sigma_new, tau_new, h_new = lemma_outputs(C.sigma, C.tau, C.h, p.delta, geo)
    out = Contraction(sigma_new, tau_new, h_new, d_new, C.d_B + delta_B, verify_on_init=False)
    out.verify(keys_A, keys_B)
    return delta_B, out


# -- semifullness ------------------------------------------------------------------


def _identity(rep: Report, name: str, cases, defect) -> None:
    """Claim that ``defect(*case)`` vanishes on every case, all or nothing: a case
    beyond the guard leaves the claim UNDETERMINED unless another is a witness."""
    scope, witness = scan([(0, cases)], lambda case: case if defect(*case) else None)
    rep.add(name, *((None, "beyond the guard") if scope < 0 else witness_verdict(witness)))


def _bis_identities(rep: Report, C: Contraction, alg_A: CommAlgebra, alg_B: CommAlgebra,
                    keys_A, keys_B, names, k2) -> None:
    """The four bis-identities on basis pairs, each corrected by (h or sigma) of
    ``k2`` on homotopy/section images: the DG identities when k2 is zero, the
    failure identities when k2 is K(d_A)_2."""
    sigma, tau, h, mul = C.sigma, C.tau, C.h, alg_A.mul
    hA = {a: h(Vector.basis(a)) for a in keys_A}
    tB = {x: tau(Vector.basis(x)) for x in keys_B}
    sign = {a: -1 if (alg_A.space.degree(a) + 1) % 2 else 1 for a in keys_A}
    squares = [(a, b) for a in keys_A for b in keys_A]
    pairs_AB = [(a, x) for a in keys_A for x in keys_B]

    def bis(a, b):
        return mul(hA[a], Vector.basis(b)).scale(sign[a]) + mul(Vector.basis(a), hA[b])

    _identity(rep, names[0], squares, lambda a, b: h(bis(a, b)) - mul(hA[a], hA[b])
              - h(k2(hA[a], hA[b])))
    _identity(rep, names[1], pairs_AB, lambda a, x: h(mul(Vector.basis(a), tB[x]))
              - mul(hA[a], tB[x]) - h(k2(hA[a], tB[x])))
    _identity(rep, names[2], squares, lambda a, b: sigma(bis(a, b)) - sigma(k2(hA[a], hA[b])))
    _identity(rep, names[3], pairs_AB, lambda a, x: sigma(mul(Vector.basis(a), tB[x]))
              - alg_B.mul(sigma(Vector.basis(a)), Vector.basis(x)) - sigma(k2(hA[a], tB[x])))


def check_semifull_algebra(C: Contraction, alg_A: CommAlgebra, alg_B: CommAlgebra,
                           keys_A=None, keys_B=None) -> Report:
    """Verify the eight semifull-algebra identities on basis pairs, one claim each.

    Scope rule (see ``report.scan``): an identity is decided on all of its pairs
    or not at all; when the products of some pair leave the guard and no other
    pair is a witness, it is UNDETERMINED.  The bound ``dg_strength`` says whether
    the four stronger DG identities were in scope: "checked" (d_A is an algebra
    derivation on the corpus, and they are claims too), "d_A not a derivation on
    the corpus" or "beyond the guard".  A non-derivation d_A is no failure.
    """
    keys_A = tuple(alg_A.space.keys() if keys_A is None else keys_A)
    keys_B = tuple(alg_B.space.keys() if keys_B is None else keys_B)
    sigma, tau, h, mul = C.sigma, C.tau, C.h, alg_A.mul
    rep = Report("semifull algebra contraction", bounds={"corpus": (len(keys_A), len(keys_B))})
    hA = {a: h(Vector.basis(a)) for a in keys_A}
    tB = {x: tau(Vector.basis(x)) for x in keys_B}
    pairs_AA = [(a, b) for i, a in enumerate(keys_A) for b in keys_A[i:]]
    pairs_AB = [(a, x) for a in keys_A for x in keys_B]
    pairs_BB = [(x, y) for i, x in enumerate(keys_B) for y in keys_B[i:]]

    uA = alg_A.unit()
    _identity(rep, "h(1_A) = 0", [()], lambda: h(uA))
    _identity(rep, "sigma(1_A) = 1_B", [()], lambda: sigma(uA) - alg_B.unit())
    _identity(rep, "h(h(a)h(b)) = 0", pairs_AA, lambda a, b: h(mul(hA[a], hA[b])))
    _identity(rep, "sigma(h(a)h(b)) = 0", pairs_AA, lambda a, b: sigma(mul(hA[a], hA[b])))
    _identity(rep, "h(h(a)tau(x)) = 0", pairs_AB, lambda a, x: h(mul(hA[a], tB[x])))
    _identity(rep, "sigma(h(a)tau(x)) = 0", pairs_AB, lambda a, x: sigma(mul(hA[a], tB[x])))
    _identity(rep, "h(tau(x)tau(y)) = 0", pairs_BB, lambda x, y: h(mul(tB[x], tB[y])))
    _identity(rep, "sigma(tau(x)tau(y)) = xy", pairs_BB,
              lambda x, y: sigma(mul(tB[x], tB[y])) - Vector(alg_B.mul_keys(x, y)))

    scope, not_derivation = scan([(0, [None])], lambda _: koszul_vanishes(alg_A, C.d_A, 2, keys_A))
    rep.bounds["dg_strength"] = ("beyond the guard" if scope < 0 else "checked" if
                                 not_derivation is None else "d_A not a derivation on the corpus")
    if rep.bounds["dg_strength"] == "checked":
        _bis_identities(rep, C, alg_A, alg_B, keys_A, keys_B,
                        ("A1bis", "A2bis", "A3bis", "A4bis"), lambda u, v: Vector.zero())
    return rep


def semifull_failure_identities(C: Contraction, alg_A: CommAlgebra, alg_B: CommAlgebra,
                                keys_A=None) -> Report:
    """The four defect identities: each bis-defect equals (h or sigma) applied to
    K(d_A)_2 on homotopy/section images, on all of B's basis.  Holds for every
    semifull algebra contraction.  One claim per identity, under the scope rule
    of ``check_semifull_algebra``."""
    keys_A = tuple(alg_A.space.keys() if keys_A is None else keys_A)
    keys_B = tuple(alg_B.space.keys())
    rep = Report("semifull failure identities", bounds={"corpus": (len(keys_A), len(keys_B))})
    _bis_identities(rep, C, alg_A, alg_B, keys_A, keys_B,
                    ("failureA1", "failureA2", "failureA3", "failureA4"),
                    lambda u, v: koszul_closed(alg_A, C.d_A, (u, v)))
    return rep


def check_semifull_coalgebra(C: Contraction, coalg_C, coalg_D,
                             keys_C=None, keys_D=None) -> Report:
    """Verify the semifull-coalgebra identities plus counit/coaugmentation
    conditions, one claim each, with the first witness in the detail."""
    keys_C = tuple(coalg_C.keys() if keys_C is None else keys_C)
    keys_D = tuple(coalg_D.keys() if keys_D is None else keys_D)
    sigma, tau, h = C.sigma, C.tau, C.h
    rep = Report("semifull coalgebra contraction", bounds={"corpus": (len(keys_C), len(keys_D))})
    on_C = [(k,) for k in keys_C]
    on_D = [(k,) for k in keys_D]

    uC, uD = coalg_C.unit_key, coalg_D.unit_key
    _identity(rep, "sigma(1_C) = 1_D", [()], lambda: sigma.on_key(uC) != Vector.basis(uD))
    _identity(rep, "tau(1_D) = 1_C", [()], lambda: tau.on_key(uD) != Vector.basis(uC))
    _identity(rep, "h(1_C) = 0", [()], lambda: h.on_key(uC))
    _identity(rep, "eps sigma = eps", on_C,
              lambda k: sigma.on_key(k)[uD] != (ONE if k == uC else 0))
    _identity(rep, "eps h = 0", on_C, lambda k: h.on_key(k)[uC])
    _identity(rep, "eps tau = eps", on_D, lambda k: tau.on_key(k)[uC] != (ONE if k == uD else 0))

    pairs = (("h(x)h", h, h), ("h(x)sigma", h, sigma), ("sigma(x)sigma", sigma, sigma))
    for label, left, right in pairs:
        _identity(rep, f"({label}) Delta h = 0", on_C, lambda k: tensor_coproduct(
            coalg_C, left.on_key, right.on_key, right.degree, h.on_key(k)))
    for label, left, right in pairs[:2]:
        _identity(rep, f"({label}) Delta tau = 0", on_D, lambda k: tensor_coproduct(
            coalg_C, left.on_key, right.on_key, right.degree, tau.on_key(k)))
    _identity(rep, "(sigma(x)sigma) Delta tau = Delta_D", on_D, lambda k: tensor_coproduct(
        coalg_C, sigma.on_key, sigma.on_key, sigma.degree, tau.on_key(k))
        != tensor_coproduct(coalg_D, Vector.basis, Vector.basis, 0, Vector.basis(k)))
    return rep


# -- symmetrized tensor trick -------------------------------------------------------


def sym_extension(f: LinOp, dom_space: SymSpace, cod_space: SymSpace, label: str = "") -> LinOp:
    """S(f): word -> f(x_1) o ... o f(x_n), the functorial coalgebra morphism."""
    def fn(word):
        if not word:
            return Vector.basis(())
        factors = [f.on_key(k) for k in word]
        if not all(factors):
            return Vector()
        return assemble_word(cod_space.base, factors, cod_space.weight_bound)

    return LinOp(dom_space, cod_space, 0, fn, label or f"S({f.label})")


def hat_homotopy(C: Contraction, space: SymSpace) -> LinOp:
    """Symmetrized contracting homotopy on S(U) in subset form (Berglund, "Homological
    perturbation theory for algebras over operads", arXiv:0909.3485):
    h^(x_1..x_n) = sum_i sum_{S in [n]-i} |S|!(n-1-|S|)!/n! e (tau sigma x_S) o h(x_i) o x_R,
    R = [n]-S-i.  Each (i, S) term stands for the |S|!(n-1-|S|)! placements of the 1/n!
    symmetrization that give it.  h is an odd symbol placed just before its slot i, and
    e is the Koszul sign of reordering x_1..x_n into (x_S, h, x_i, x_R).  A slot p with
    tau sigma x_p = 0 makes every term with p in S vanish, so S ranges over the slots
    whose tau-sigma image is nonzero, and the others always go to R."""
    tau_sigma = C.tau @ C.sigma
    h = C.h
    base = space.base

    # fn is read by name (hat_homotopy.<locals>.fn) in the benchmark's traced run
    def fn(word):
        n = len(word)
        degs = (-1,) + tuple(base.degree(k) for k in word)
        out = Vector()
        for i in range(1, n + 1):
            hv = h.on_key(word[i - 1])
            if hv.is_zero():
                continue
            others = tuple(p for p in range(1, n + 1) if p != i)
            live = tuple(p for p in others if tau_sigma.on_key(word[p - 1]))
            for size in range(len(live) + 1):
                coeff = Q(factorial(size) * factorial(n - 1 - size), factorial(n))
                for S in itertools.combinations(live, size):
                    R = tuple(p for p in others if p not in S)
                    s = koszul_sign(S + (0, i) + R, degs)
                    factors = ([tau_sigma.on_key(word[p - 1]) for p in S] + [hv]
                               + [Vector.basis(word[p - 1]) for p in R])
                    out.add_scaled(assemble_word(base, factors, space.weight_bound), coeff * s)
        return out

    return LinOp(space, space, -1, fn, "h^")


def symmetrized_contraction(C: Contraction, weight_bound: int,
                            keys_A=None, keys_B=None) -> Contraction:
    """Contraction (S(sigma), S(tau), h^) of S(U) onto S(V) induced by C,
    verified on the word corpora ``keys_A`` and ``keys_B`` (None: all words,
    feasible only over small bases; an empty corpus checks nothing).
    """
    SU = SymSpace(C.space_A, weight_bound)
    SV = SymSpace(C.space_B, weight_bound)
    Ssigma = sym_extension(C.sigma, SU, SV, "S(sigma)")
    Stau = sym_extension(C.tau, SV, SU, "S(tau)")
    hat = hat_homotopy(C, SU)
    dU = TaylorCoderivation.from_linear(C.d_A).as_map(SU)
    dV = TaylorCoderivation.from_linear(C.d_B).as_map(SV)
    out = Contraction(Ssigma, Stau, hat, dU, dV, verify_on_init=False)
    out.verify(keys_A, keys_B)
    return out


# -- homotopy transfer for L-infinity[1] --------------------------------------------


@dataclass
class LinfTransfer:
    """Transferred structure and morphisms, with the perturbed word-level contraction."""

    r: TaylorCoderivation            # structure on the small side
    f: TaylorMorphism                # S(W) -> S(V), linear part tau
    g: TaylorMorphism                # S(V) -> S(W), linear part sigma
    word_contraction: Contraction    # (G, F, H) with differentials (Q, R)
    arity_bound: int


def _transfer_recursions(Qd: TaylorCoderivation, C: Contraction, bound: int,
                         words_W, hat: LinOp, Qmap: LinOp):
    """Explicit transfer recursions for f_i, r_i, and the h^-based one for g_i (lazy).
    ``Qmap`` is Q on the words of S(V), whose cached images the g recursion reads."""
    V = C.space_A
    Wb = C.space_B
    f_tables: dict[int, dict] = {1: {}}
    r_tables: dict[int, dict] = {1: {}}
    by_weight: dict[int, list] = {}
    for w in words_W:
        by_weight.setdefault(len(w), []).append(w)
    for w in by_weight.get(1, []):
        f_tables[1][w] = C.tau.on_key(w[0])
        r_tables[1][w] = C.d_B.on_key(w[0])
    for i in range(2, bound + 1):
        F_part = TaylorMorphism.from_tables(Wb, V, f_tables, i - 1, label="F<")
        f_tables[i], r_tables[i] = {}, {}
        for word in by_weight.get(i, []):
            acc = Vector()
            for u, c in F_part.apply_word(word, i).items():
                if len(u) >= 2:
                    acc.add_scaled(Qd.component(len(u), u), c)
            f_tables[i][word] = C.h(acc)
            r_tables[i][word] = C.sigma(acc)

    g_cache: dict = {}

    def g_component(n, word):
        if n == 1:
            return C.sigma.on_key(word[0])
        got = g_cache.get(word)
        if got is not None:
            return got
        acc = Vector()
        for u, c in hat.on_key(word).items():
            for u2, c2 in Qmap.on_key(u).items():
                k = len(u2)
                if 1 <= k <= n - 1:
                    acc.add_scaled(g_component(k, u2), c * c2)
        g_cache[word] = acc
        return acc

    f = TaylorMorphism.from_tables(Wb, V, f_tables, bound, label="F")
    r = TaylorCoderivation.from_tables(Wb, r_tables, bound, 1, label="R")
    g = TaylorMorphism(V, Wb, g_component, bound, label="G")
    return r, f, g


def linf_transfer(Qd: TaylorCoderivation, C: Contraction, arity_bound: int,
                  corpus_A=None, corpus_B=None) -> LinfTransfer:
    """Transfer the L-infinity[1] structure Q along the contraction C.

    Computes (R, F, G) by the explicit recursions and independently by the
    Standard Perturbation Lemma on the symmetrized contraction; the two must
    agree exactly on the stated corpus.  The output is certified: R^2 = 0,
    F and G are coalgebra morphisms, F intertwines Q and R, the perturbed
    homotopy preserves the weight filtration and restricts to h.
    """
    V, Wb = C.space_A, C.space_B
    if Qd.degree != 1 or not Qd.q0.is_zero():
        raise ValueError("need a degree-one coderivation with vanishing constant term")
    corpus_A = tuple(V.keys()) if corpus_A is None else tuple(corpus_A)
    corpus_B = tuple(Wb.keys()) if corpus_B is None else tuple(corpus_B)
    for k in corpus_A:
        if Qd.component(1, (k,)) != C.d_A.on_key(k):
            raise ValueError("linear part of Q must be the contraction differential")
    words_U = words_over(V, corpus_A, arity_bound)
    words_W = words_over(Wb, corpus_B, arity_bound)

    # route 2: perturbation series on the symmetrized contraction
    sym = symmetrized_contraction(C, arity_bound, words_U, words_W)
    Qmap = Qd.as_map(sym.space_A)
    p = Perturbation(Qmap - sym.d_A, arity_bound + 1)
    _, pert = perturb(sym, p, words_U, words_W)
    r2 = taylor_coderivation_from_map(pert.d_B, arity_bound, label="R(spl)")
    f2 = taylor_morphism_from_map(pert.tau, arity_bound, label="F(spl)")
    g2 = taylor_morphism_from_map(pert.sigma, arity_bound, label="G(spl)")

    # route 1: explicit recursions
    r1, f1, g1 = _transfer_recursions(Qd, C, arity_bound, words_W, sym.h, Qmap)

    for w in words_W:
        if not w:
            continue
        n = len(w)
        if r1.component(n, w) != r2.component(n, w):
            raise RouteDisagreement(f"transferred structure differs at arity {n}, {w}")
        if f1.component(n, w) != f2.component(n, w):
            raise RouteDisagreement(f"transferred morphism F differs at arity {n}, {w}")
    for w in words_U:
        if not w:
            continue
        if g1.component(len(w), w) != g2.component(len(w), w):
            raise RouteDisagreement(f"transferred morphism G differs at arity {len(w)}, {w}")
    # R^2 = 0, QF = FR and GQ = RG are the perturbed contraction's axioms
    # "d_B^2 = 0", "tau chain map" and "sigma chain map", which ``perturb``
    # has verified on words_W and words_U (its d_A is Q on words, its d_B is R)
    if coalgebra_morphism_defect(pert.tau, words_W) is not None:
        raise RouteDisagreement("F is not a coalgebra morphism")
    if coalgebra_morphism_defect(pert.sigma, words_U) is not None:
        raise RouteDisagreement("G is not a coalgebra morphism")
    if coderivation_defect(pert.d_B, words_W) is not None:
        raise RouteDisagreement("R is not a coderivation")
    # Remark-level facts: H preserves the weight filtration and restricts to h
    for word in words_U:
        img = pert.h.on_key(word)
        if any(len(u) > len(word) for u in img.keys()):
            raise RouteDisagreement("perturbed homotopy does not preserve weights")
    for k in corpus_A:
        if pert.h.on_key((k,)) != Vector({(k2,): c for k2, c in C.h.on_key(k).items()}):
            raise RouteDisagreement("perturbed homotopy does not restrict to h on V")

    return LinfTransfer(r1, f1, g1, pert, arity_bound)


@dataclass
class PropTransferReport:
    ok: bool
    mismatches: list
    words_checked: int = 0


def verify_prop_transfer(alg_A: CommAlgebra, alg_B: CommAlgebra, C: Contraction,
                         arity_bound: int, keys_A=None, keys_B=None) -> PropTransferReport:
    """Check that transferring the Koszul-bracket structure of d_A along a semifull
    algebra contraction yields the Koszul brackets of d_B and the cumulants of tau."""
    keys_A = tuple(alg_A.space.keys() if keys_A is None else keys_A)
    keys_B = tuple(alg_B.space.keys() if keys_B is None else keys_B)
    semifull = check_semifull_algebra(C, alg_A, alg_B, keys_A, keys_B)
    if not semifull.ok:
        first = next(i for i in semifull.items if i.verdict != PASS)
        return PropTransferReport(False, [("semifull", first.line())])
    Qd = kos_lift(alg_A, C.d_A, arity_bound)
    res = linf_transfer(Qd, C, arity_bound, corpus_A=keys_A, corpus_B=keys_B)
    expect_r = kos_lift(alg_B, C.d_B, arity_bound)
    expect_f = cumulant_lift(alg_B, alg_A, C.tau, arity_bound)
    mismatches: list = []
    checked = 0
    for w in words_over(alg_B.space, keys_B, arity_bound, min_weight=1):
        n = len(w)
        checked += 1
        if res.r.component(n, w) != expect_r.component(n, w):
            mismatches.append(("structure", n, w))
        if res.f.component(n, w) != expect_f.component(n, w):
            mismatches.append(("morphism", n, w))
    return PropTransferReport(not mismatches, mismatches, checked)
