"""IBL-infinity[1] algebras: degree -1 derived BV coalgebra structures on a
cofree symmetric coalgebra, their component calculus indexed by inputs, outputs
and genus, morphism certification by three independent routes, the two-stage
homotopy transfer, and the Maurer-Cartan correspondence.

The central variable t has degree 2 here (k = -1 is hard-wired); general odd k
lives in the derived BV module.  Maurer-Cartan elements are flat (order, key)
Vectors in the quotient cut after N.  Their residuals are ``mc.mc_sum`` of the
Koszul-bracket lift of the flattened delta, and the Maurer-Cartan
correspondence is ``mc.correspondence_claims`` on sampled elements, read
through the Koszul-bracket and cumulant lifts of the flattened transfer
(``ibl_kuranishi_report``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations_with_replacement

from .core import GradedBasis, LinOp, Overflow, Vector
from .commalg import SymWordAlgebra, cumulant_lift, cumulant_recursion, kos_lift, koszul_recursion
from .hpt import Contraction, LinfTransfer, linf_transfer
from .mc import KuranishiData, NilpotentFiltration, correspondence_claims, mc_sum
from .report import Report, evaluable_scope, witness_verdict
from .symcoalg import (
    SymSpace,
    TaylorCoderivation,
    antipode,
    coderivation_defect,
    convolution,
    hat_extension,
    star_log,
    taylor_coderivation_from_map,
)
from .tseries import TOp, TruncatedTAlgebra, flat_unital_map, flatten_top, spl_t

T_DEGREE = 2  # k = -1


@dataclass
class IBLStructure:
    """delta = sum t^n delta_n on S_{<=W}(U); coefficient n has degree 1 - 2n."""

    space: SymSpace
    delta: TOp
    N: int

    @staticmethod
    def from_components(basis: GradedBasis, W: int, N: int,
                        coefficients: dict[int, LinOp]) -> "IBLStructure":
        space = SymSpace(basis, W)
        delta = TOp(coefficients, space, space, 1, T_DEGREE)
        return IBLStructure(space, delta, N)

    def algebra(self) -> SymWordAlgebra:
        return SymWordAlgebra(self.space)

    def quotient(self) -> TruncatedTAlgebra:
        return TruncatedTAlgebra(self.algebra(), self.N, T_DEGREE)


def _upto(space: SymSpace, k: int) -> list:
    return [w for w in space.keys() if len(w) <= k]


def _sampled_tuples(space: SymSpace, arity_bound: int, scope: int, limit: int):
    """Up to ``limit`` multisets of 2..arity_bound reduced words of total weight
    above their number and at most ``scope``, with the count of those passed
    over for lying beyond the scope."""
    words = [w for w in space.keys() if w]
    drawn, beyond = [], 0
    for k in range(2, arity_bound + 1):
        for tup in combinations_with_replacement(words, k):
            total = sum(len(w) for w in tup)
            if total <= k:
                continue
            if total > scope:
                beyond += 1
                continue
            drawn.append((tup, total))
            if len(drawn) == limit:
                return drawn, beyond
    return drawn, beyond


def _routes_c_d(rep: Report, S: SymSpace, bracket, reference: LinOp, excess, scope: int,
                arity_bound: int, d_samples: int, name_c: str, name_d: str) -> None:
    """Routes (c) and (d), one for structures and morphisms alike.  ``bracket``
    is the family the claims are about, a kernel on tuples of word keys whose
    shared values are only read (the Koszul brackets of delta_n, or the
    cumulants of f), ``reference`` its route-(b) operator, and ``excess(key)``
    how far an output key lies beyond the weight bound for weight-one
    arguments.  (c) evaluates the family on letters and matches ``reference``
    exactly; (d) samples words of higher weight, whose bound rises by the
    extra weight of the arguments.  Both are decided on ``scope``."""
    def route_c():
        for k in range(1, min(arity_bound, scope) + 1):
            for word in S.words_of_weight(k):
                val = bracket(tuple((x,) for x in word))
                if any(excess(key) > 0 for key in val.keys()):
                    return witness_verdict(("weight", word))
                if val != reference.on_key(word):
                    return witness_verdict(("route", word))
        return witness_verdict(None)

    def route_d():
        drawn, beyond = _sampled_tuples(S, arity_bound, scope, d_samples)
        for tup, total in drawn:
            val = bracket(tup)
            if any(excess(key) > total - len(tup) for key in val.keys()):
                return witness_verdict(tup)
        return True, f"{len(drawn)} sampled" + (
            f", {beyond} passed over beyond the scope" if beyond else "")

    rep.claim(name_c, scope, route_c)
    rep.claim(name_d, scope, route_d)


def ibl_check(ibl: IBLStructure, arity_bound: int = 3) -> Report:
    """Certify an IBL-infinity[1] structure by all equivalent routes.

    (b) the convolution with the antipode has image in bounded weights,
    (c) the Koszul brackets of each coefficient on weight-one words agree with
        (b) and land in bounded weights,
    (d) 12 sampled higher-weight arguments respect the shifted weight bound,
    plus flatness, unit/counit conditions, degrees, and componentwise vanishing
    of the square (the quadratic relations for small input/output/genus).

    Scope rule: each claim is evaluated on the words of weight <= the
    ``evaluable_scope`` of the operator it evaluates, recorded in the bounds as
    ``scope: <claim>``; ``scope: delta`` is the scope shared by all the
    coefficients.  A claim whose scope holds no reduced word is UNDETERMINED,
    never PASS, and no Overflow escapes.
    """
    rep = Report("IBL structure", bounds={"W": ibl.space.weight_bound, "N": ibl.N,
                                          "arity_bound": arity_bound})
    S = ibl.space
    delta = ibl.delta

    scopes = {}
    for n, op in sorted(delta.coeffs.items()):
        scope = scopes[n] = evaluable_scope(S, op.on_key)
        words = _upto(S, scope)
        rep.add(f"delta_{n}(1) = 0", op.on_key(()).is_zero() if scope >= 0 else None)
        rep.claim(f"counit kills delta_{n}", scope, lambda: witness_verdict(
            next((w for w in words if op.on_key(w)[()] != 0), None)))

        def degree_ok():
            try:
                op.check_homogeneous(words)
            except ValueError as exc:
                return False, str(exc)
            return op.degree == 1 - 2 * n, ""

        rep.claim(f"degree of delta_{n} is {1 - 2 * n}", scope, degree_ok)
    rep.bounds["scope: delta"] = min(scopes.values(), default=S.weight_bound)

    # every coefficient is odd, so sum_i [delta_i, delta_{n-i}] = 2 (delta o delta)_n
    flat_top = 2 * max(delta.support(), default=0) if delta.is_exact() else ibl.N
    sq = delta @ delta
    for n in range(flat_top + 1):
        op = sq.coeff(n)
        scope = evaluable_scope(S, op.on_key)
        rep.claim(f"flatness at order {n}", scope, lambda: witness_verdict(
            next((w for w in _upto(S, scope) if not op.on_key(w).is_zero()), None)))

    s_map = antipode(S)
    alg = ibl.algebra()
    for n, op in sorted(delta.coeffs.items()):
        phi_n = convolution(op, s_map, S.product)
        scope = evaluable_scope(S, phi_n.on_key)
        rep.claim(f"(b) image of delta_{n} * s in weights <= {n + 1} (inputs <= {scope})",
                  scope, lambda: witness_verdict(next(
                      (w for w in _upto(S, scope)
                       if any(len(u) > n + 1 for u in phi_n.on_key(w).keys())), None)))
        _routes_c_d(rep, S, lambda keys: koszul_recursion(alg, op, keys), phi_n,
                    lambda u: len(u) - n - 1, scope, arity_bound, 12,
                    f"(c) Koszul brackets of delta_{n} on letters match (b), weights <= {n + 1}",
                    f"(d) sampled weighted bound for delta_{n}")

    _component_square_checks(rep, ibl, sq)
    return rep


def _component_square_checks(rep: Report, ibl: IBLStructure, sq: TOp) -> None:
    """Componentwise vanishing of the square ``sq`` = delta o delta: for inputs i,
    outputs j and orders m up to 3, its (weight i -> weight j, t^m) block
    vanishes.  The blocks of order m are checked for inputs up to the evaluable
    scope of that order."""
    max_block = 3
    S = ibl.space
    ops = {m: sq.coeff(m) for m in range(0, min(ibl.N, max_block) + 1)}
    scopes = {m: evaluable_scope(S, op.on_key, max_block) for m, op in ops.items()}
    for m, scope in scopes.items():
        rep.bounds[f"scope: square blocks at order {m}"] = scope
        if scope < 1:
            rep.add(f"square blocks at order {m} vanish", None,
                    "no reduced word within the evaluable scope")
    for i in range(1, max_block + 1):
        for j in range(1, max_block + 1):
            for m, op in ops.items():
                if i > scopes[m]:
                    continue
                bad = next((w for w in S.words_of_weight(i)
                            if any(len(u) == j for u in op.on_key(w).keys())), None)
                rep.add(f"square block (in {i}, out {j}, order {m}) vanishes", *witness_verdict(bad))


# -- component extraction -------------------------------------------------------------


@dataclass
class PComponents:
    table: dict                      # (i, j, g) -> {word_i: Vector over weight-j words}

    def component(self, i: int, j: int, g: int) -> dict:
        return self.table.get((i, j, g), {})


def extract_p_components(ibl: IBLStructure) -> PComponents:
    """Read off p_{i,j,g} from delta_n * s via the t^{j+g-1} grading and weight-j
    projection; requires a certified structure (weights <= n+1).  Inputs run up
    to the evaluable scope of delta_n * s."""
    S = ibl.space
    s_map = antipode(S)
    table: dict = {}
    for n, op in sorted(ibl.delta.coeffs.items()):
        phi_n = convolution(op, s_map, S.product)
        top = evaluable_scope(S, phi_n.on_key)
        for i in range(1, top + 1):
            for word in S.words_of_weight(i):
                val = phi_n.on_key(word)
                for u, c in val.items():
                    j = len(u)
                    if j == 0:
                        raise ValueError("counit-violating component")
                    g = n + 1 - j
                    if g < 0:
                        raise ValueError(f"weight bound violated at {word}")
                    table.setdefault((i, j, g), {}).setdefault(word, []).append((u, c))
    # the keys u of one image are distinct, so no entry sums to zero
    return PComponents({key: {w: Vector(t) for w, t in entry.items()}
                        for key, entry in table.items()})


def reassemble_defect(ibl: IBLStructure, comps: PComponents):
    """delta must equal sum over components of t^{j+g-1} hat(p_{i,j,g})."""
    S = ibl.space
    coeffs: dict[int, LinOp] = {}
    for (i, j, g), entry in comps.table.items():
        op = hat_extension(S, i, lambda w, entry=entry: entry.get(w, Vector.zero()),
                           1 - 2 * (j + g - 1), f"p^{i},{j},{g}")
        n = j + g - 1
        coeffs[n] = coeffs[n] + op if n in coeffs else op
    rebuilt = TOp(coeffs, S, S, 1, T_DEGREE)
    diff = rebuilt - ibl.delta
    order = max(ibl.N, max(coeffs, default=0))
    scope = evaluable_scope(S, lambda w: diff.apply_key(w, order))
    return diff.first_nonzero(_upto(S, scope), order)


def degree_audit(ibl: IBLStructure, comps: PComponents):
    """|p_{i,j,g}| = 1 - 2(j + g - 1) on every extracted component."""
    S = ibl.space
    for (i, j, g), entry in comps.table.items():
        want = 1 - 2 * (j + g - 1)
        for word, val in entry.items():
            for u in val.keys():
                if S.degree(u) - S.degree(word) != want:
                    return (i, j, g, word)
    return None


# -- morphisms --------------------------------------------------------------------------


def ibl_morphism_check(f: TOp, source: IBLStructure, target: IBLStructure,
                       arity_bound: int = 3, title: str = "IBL morphism") -> Report:
    """Certify f: (U, delta) -> (V, delta') through the log route (b), the cumulant
    route (c) with exact route agreement, and 8 sampled arguments (d).

    Scope rule as in ``ibl_check``: the counit claim runs on the evaluable scope
    of f, the intertwining claim on that of f delta - delta' f (named in the
    claim), and routes (b)-(d) on that of log_* f; a claim whose scope holds no
    reduced word is UNDETERMINED, and no Overflow escapes.
    """
    rep = Report(title, bounds={"N": target.N, "arity_bound": arity_bound})
    SU = source.space
    N = min(source.N, target.N)
    scope_f = evaluable_scope(SU, lambda w: [f.coeff(n).on_key(w) for n in f.support()])
    rep.add("f(1) = 1", f.coeff(0).on_key(()) == Vector.basis(())
            and all(f.coeff(n).on_key(()).is_zero() for n in f.support() if n >= 1)
            if scope_f >= 0 else None)
    rep.claim("counit compatibility", scope_f, lambda: witness_verdict(next(
        ((n, w) for n in f.support() for w in _upto(SU, scope_f)
         if w and f.coeff(n).on_key(w)[()] != 0), None)))

    inter = f @ source.delta - target.delta @ f
    scope_i = evaluable_scope(SU, lambda w: inter.apply_key(w, N))

    def intertwines():
        bad = inter.first_nonzero(_upto(SU, scope_i), N)
        return witness_verdict(None if bad is None else bad[0])

    rep.claim(f"f delta = delta' f (orders <= {N}, weights <= {scope_i})", scope_i,
              intertwines)

    Vt = target.quotient()
    f_flat = flat_unital_map(f, Vt)
    # (b): log of f lands in the shifted weight bound
    logf = star_log(f_flat, Vt.mul, Vt.unit())
    scope = evaluable_scope(SU, logf.on_key)
    rep.claim("(b) log_* of f lands in t^m S_{<=m+1}", scope, lambda: witness_verdict(next(
        ((w, m) for w in _upto(SU, scope) for (m, u) in logf.on_key(w).keys()
         if len(u) > m + 1), None)))

    SU_alg = SymWordAlgebra(SU)
    _routes_c_d(rep, SU, lambda keys: cumulant_recursion(SU_alg, Vt, f_flat, keys), logf,
                lambda key: len(key[1]) - key[0] - 1, scope, arity_bound, 8,
                "(c) cumulants on letters match (b) and the weight bound",
                "(d) sampled weighted cumulant bound")
    return rep


# -- two-stage transfer -------------------------------------------------------------------


@dataclass
class IBLTransfer:
    target: IBLStructure
    F: TOp                     # S(V)[[t]] -> S(U)[[t]]
    G: TOp                     # S(U)[[t]] -> S(V)[[t]]
    H: TOp
    report: Report


def ibl_transfer(ibl: IBLStructure, C: Contraction, arity_bound: int = 3) -> IBLTransfer:
    """Stage 1: transfer the order-zero coderivation through the symmetrized
    contraction; stage 2: perturb by the positive-order part, which preserves
    the weight-shifted subspace.  Outputs are re-certified.

    Scope rule as in ``ibl_check``: every claim runs on the evaluable scope of
    what it evaluates, recorded in the bounds (merged reports keep their
    prefix; ``transferred: scope: delta`` is the scope of the transferred
    structure); a claim whose scope holds no reduced word is UNDETERMINED, and
    no Overflow escapes.  The perturbation series are flagged exact only when
    they terminate on every word of S (see ``spl_t``).
    """
    rep = Report("IBL transfer", bounds={"W": ibl.space.weight_bound, "N": ibl.N})
    S = ibl.space
    W = S.weight_bound
    delta0 = ibl.delta.coeff(0)
    scope = evaluable_scope(S, delta0.on_key)
    rep.claim("order-zero part is a coderivation", scope,
              lambda: (coderivation_defect(delta0, _upto(S, scope)) is None, ""))
    Qd = taylor_coderivation_from_map(delta0, W, exact_beyond=True, label="delta0")
    word_con = linf_transfer(Qd, C, W).word_contraction
    SV: SymSpace = word_con.space_B

    # Remark-level: the positive part preserves the weight-shifted subspace
    delta_plus = TOp({n: op for n, op in ibl.delta.coeffs.items() if n >= 1}, S, S, 1, T_DEGREE)
    _shift_claim(rep, "positive part preserves the weight-shifted subspace", S, delta_plus)

    deltaV, G, F, H = spl_t(word_con, ibl.delta, ibl.N)
    target = IBLStructure(SV, deltaV, ibl.N)
    rep.merge(ibl_check(target, arity_bound), prefix="transferred: ")
    rep.merge(ibl_morphism_check(F, target, ibl, arity_bound, title="F"), prefix="F: ")
    rep.merge(ibl_morphism_check(G, ibl, target, arity_bound, title="G"), prefix="G: ")
    _shift_claim(rep, "perturbed homotopy preserves the weight-shifted subspace", S, H)
    # linear parts
    ok_lin = all(F.coeff(0).on_key((k,)) == Vector({(k2,): c for k2, c in C.tau.on_key(k).items()})
                 for k in C.space_B.keys())
    rep.add("linear part of F is the section", ok_lin)
    ok_lin_g = all(G.coeff(0).on_key((k,)) == Vector({(k2,): c for k2, c in C.sigma.on_key(k).items()})
                   for k in C.space_A.keys())
    rep.add("linear part of G is the projection", ok_lin_g)
    return IBLTransfer(target, F, G, H, rep)


def _shift_claim(rep: Report, name: str, S: SymSpace, series: TOp) -> None:
    """Each t^n coefficient of ``series`` raises word weight by at most n, checked
    on its own evaluable scope; the claim's scope is the least of these."""
    scopes = {n: evaluable_scope(S, op.on_key) for n, op in series.coeffs.items()}
    rep.claim(name, min(scopes.values(), default=S.weight_bound), lambda: witness_verdict(next(
        ((n, w) for n, op in series.coeffs.items() for w in _upto(S, scopes[n])
         if any(len(u) > len(w) + n for u in op.on_key(w).keys())), None)))


# -- Maurer-Cartan theory -------------------------------------------------------------------


def ibl_shape_defect(ibl_space: SymSpace, x: Vector):
    """The first (n, word) where x = sum t^n x_n leaves the shape of an IBL
    Maurer-Cartan element: x_n a reduced word vector of weight <= n+1 and of
    total degree zero; None when there is none."""
    return next(((n, w) for n, w in x.keys() if len(w) > n + 1 or len(w) == 0
                 or ibl_space.degree(w) + T_DEGREE * n != 0), None)


def ibl_mc_check(ibl: IBLStructure, x: Vector,
                 lift: TaylorCoderivation) -> tuple[bool | None, Vector | None]:
    """(whether x is Maurer-Cartan up to order N, its residual).  The verdict is
    None, with no residual, when computing the residual leaves the word bound:
    the sample is undetermined, neither Maurer-Cartan nor not.  The residual is
    the Maurer-Cartan sum, cut at its arity bound, of ``lift``: the report's
    Koszul-bracket lift of the flattened delta, whose words all samples share."""
    bad = ibl_shape_defect(ibl.space, x)
    if bad is not None:
        raise ValueError(f"candidate violates the weight-shift shape at {bad}")
    try:
        res = mc_sum(lift, x, lift.arity_bound)
    except Overflow:
        return None, None
    return res.is_zero(), res


def ibl_kuranishi_report(ibl: IBLStructure, res: IBLTransfer, arity_cap: int,
                         samples_U, samples_V) -> Report:
    """``mc.correspondence_claims`` on the sampled Maurer-Cartan elements of U
    and V, with zero as the one homotopy datum and 12 steps for the inverse,
    on the flattened transfer: (G, F, H) as a contraction of the flattened
    deltas, with the Koszul-bracket lifts of the deltas and the cumulant lifts
    of F and G, and every sum cut at ``arity_cap``.

    Samples that are not Maurer-Cartan are skipped, and so are undetermined ones
    (``ibl_mc_check`` gives None); the bounds count, for U and for V, the samples
    evaluated, the Maurer-Cartan ones and the undetermined ones."""
    rep = Report("IBL Maurer-Cartan correspondence", bounds={"arity_cap": arity_cap})
    target = res.target
    St, Vt = ibl.quotient(), target.quotient()
    dflat, dVflat = flatten_top(ibl.delta, ibl.N), flatten_top(target.delta, target.N)
    Gflat, Fflat = flatten_top(res.G, target.N), flatten_top(res.F, ibl.N)
    C = Contraction(Gflat, Fflat, flatten_top(res.H, ibl.N), dflat, dVflat, verify_on_init=False)
    lifts = LinfTransfer(kos_lift(Vt, dVflat, arity_cap), cumulant_lift(Vt, St, Fflat, arity_cap),
                         cumulant_lift(St, Vt, Gflat, arity_cap), C, arity_cap)
    data = KuranishiData(kos_lift(St, dflat, arity_cap), lifts, C,
                         NilpotentFiltration({}, arity_cap + 1))
    mc_U = partial(ibl_mc_check, ibl, lift=data.Q)
    mc_V = partial(ibl_mc_check, target, lift=lifts.r)

    def mc_points(side: str, mc, samples) -> list:
        """The named Maurer-Cartan samples of one side; its counts go to the bounds."""
        verdicts = [mc(x)[0] for x in samples]
        rep.bounds[f"{side} samples evaluated"] = len(verdicts) - verdicts.count(None)
        rep.bounds[f"{side} samples Maurer-Cartan"] = verdicts.count(True)
        rep.bounds[f"{side} samples undetermined"] = verdicts.count(None)
        return [(f"{side} sample {i}", x) for i, x in enumerate(samples) if verdicts[i]]

    correspondence_claims(rep, data, mc_points("U", mc_U, samples_U),
                          mc_points("V", mc_V, samples_V), [Vector()], mc_U, mc_V, 12)
    return rep
