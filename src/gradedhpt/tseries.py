"""Formal t-power-series of operators and elements, truncation-order aware.

The central variable t is even; a series knows either its exact finite support
(``known_to is None``) or the last order up to which its coefficients are
reliable.  Congruence claims beyond the reliable order are the caller's
responsibility to report UNDETERMINED.

An element sum_n t^n v_n, poles allowed, is a flat ``Vector`` on (order, key)
pairs.  ``TOp.flat_image`` is the one flattening of an operator series onto
them; ``flatten_top`` and ``flat_unital_map`` are built on it.  With a pole,
``TruncatedTAlgebra`` is only used at an order that no term reaches.

``TOp`` only stores coefficients.  A composite of series (a square, an
intertwining defect, a difference) is ``LinOp`` algebra on the flattened
spaces, taken at ``known_order``, and ``unflatten`` reads a flattened operator
back as a series.  ``spl_t`` is ``hpt.perturb`` on the flattened contraction.

A structure series (``bv.bv_check``, ``ibl.ibl_check``) opens with one
preamble: the claims above its known order, each coefficient's degree and unit
claims, and flatness at each order, each decided (``Report.claim``) on the keys
of weight up to the ``report.evaluable_scope`` of its operator.  So is the one
morphism claim f D = D' f (``intertwining_claims``), on its flat defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .core import CommAlgebra, LinOp, Overflow, Vector
from .hpt import Contraction, Perturbation, perturb
from .report import Report, evaluable_scope, keys_upto, witness_verdict
from .symcoalg import _space_token


@dataclass
class TOp:
    """Sum_n t^n op_n with op_n : domain -> codomain homogeneous of degree
    (degree - n * t_degree); ``known_to`` is the largest order with exact
    coefficients (None: all orders).  A store of coefficients with no algebra
    of its own: series are composed as ``LinOp``s on the flattened spaces."""

    coeffs: dict
    domain: object
    codomain: object
    degree: int
    t_degree: int
    known_to: int | None = None

    @staticmethod
    def lift(op: LinOp, t_degree: int) -> "TOp":
        """The constant series with coefficient op at order 0."""
        return TOp({0: op}, op.domain, op.codomain, op.degree, t_degree)

    def coeff(self, n: int) -> LinOp:
        got = self.coeffs.get(n)
        if got is not None:
            return got
        return LinOp.zero(self.domain, self.codomain, self.degree - n * self.t_degree)

    def support(self):
        return sorted(self.coeffs)

    def is_exact(self) -> bool:
        return self.known_to is None

    def flat_image(self, n: int, key, N: int) -> Vector:
        """Image of t^n key on the flattened spaces: the sum over m of
        t^(n+m) op_m(key) for n + m <= N.  A coefficient whose order is cut
        is never evaluated."""
        return Vector(((n + m, k2), c) for m, op in self.coeffs.items() if n + m <= N
                      for k2, c in op.on_key(key).items())


class TSpace:
    """Flattened truncated t-module: keys (n, base_key) for 0 <= n <= N."""

    def __init__(self, base, N: int, t_degree: int):
        self.base = base
        self.N = N
        self.t_degree = t_degree

    def keys(self):
        return tuple((n, k) for n in range(self.N + 1) for k in self.base.keys())

    def degree(self, key) -> int:
        n, k = key
        return self.base.degree(k) + n * self.t_degree

    def __eq__(self, other):
        return (isinstance(other, TSpace) and self.base == other.base and self.N == other.N
                and self.t_degree == other.t_degree)

    def __hash__(self):
        return hash(("TSpace", _space_token(self.base), self.N, self.t_degree))


class TruncatedTAlgebra(CommAlgebra):
    """A[t]/(t^{N+1}) on (order, key) pairs.  Without poles it is a quotient
    ring, and claims about orders <= N read off its coefficients; with a pole
    it is not associative (a cut product times t^-1 returns below N)."""

    def __init__(self, A: CommAlgebra, N: int, t_degree: int):
        self.A = A
        self.N = N
        self.t_degree = t_degree
        self.space = TSpace(A.space, N, t_degree)
        self.unit_key = (0, A.unit_key)

    def mul_keys(self, k1, k2) -> list:
        (n1, a1), (n2, a2) = k1, k2
        n = n1 + n2
        if n > self.N:
            return []
        # a list comprehension: a generator per product (as in tuple(...) of
        # one) raised the peak RSS of bv_check on FIX-2 by about 0.1 MB
        return [((n, k), c) for k, c in self.A.mul_keys(a1, a2)]


def flatten_top(op: TOp, N: int) -> LinOp:
    """K[[t]]-linear extension of a t-series of operators to the flattened spaces."""
    if op.known_to is not None and op.known_to < N:
        raise ValueError("series not reliable up to the requested order")
    return LinOp(TSpace(op.domain, N, op.t_degree), TSpace(op.codomain, N, op.t_degree),
                 op.degree, lambda key: op.flat_image(*key, N), "flat")


def flat_unital_map(f: TOp, Bt: TruncatedTAlgebra) -> LinOp:
    """Restrict a degree-0 t-series map A[[t]] -> B[[t]] to A, landing in B[t]/t^{N+1}."""
    return LinOp(f.domain, Bt.space, f.degree, lambda key: f.flat_image(0, key, Bt.N), "f~")


def known_order(order: int, *series: TOp) -> int:
    """The one order rule for composites of series: a claim that reads ``order``
    takes the composite at the least of it and the order each factor is known to."""
    return min([order] + [s.known_to for s in series if not s.is_exact()])


def _coefficient_image(flat: LinOp, n: int, key) -> Vector:
    """The t^n coefficient of a flattened map on ``key``: the order-N part of the
    image of t^(N-n) key, which reads no coefficient of a factor above n."""
    N = flat.domain.N
    return Vector((k, c) for (m, k), c in flat.on_key((N - n, key)).items() if m == N)


def unflatten(flat: LinOp, support, known_to: int | None) -> TOp:
    """The series that the t-linear map ``flat`` of flattened spaces flattens,
    with coefficients at the orders ``support`` (each at most the order N of the
    spaces); the others are zero.  Coefficient n evaluates ``flat`` at order
    N - n, so it reads no order above n."""
    dom, cod = flat.domain, flat.codomain
    return TOp({n: LinOp(dom.base, cod.base, flat.degree - n * dom.t_degree,
                         partial(_coefficient_image, flat, n), f"({flat.label})_{n}")
                for n in support}, dom.base, cod.base, flat.degree, dom.t_degree, known_to)


def known_coefficients(rep: Report, series: TOp, label: str, N: int) -> dict:
    """The coefficients up to the order the series is known to; above it, the
    claims on each ``label_n`` and flatness at each order <= N are UNDETERMINED."""
    known = series.known_to
    if known is not None:
        rep.add_beyond(known, [f"claims on {label}_{n}" for n in series.support() if n > known]
                       + [f"flatness at order {n}" for n in range(known + 1, N + 1)])
    return {n: series.coeffs[n] for n in series.support() if known is None or n <= known}


def degree_claim(rep: Report, A: CommAlgebra, op: LinOp, name: str, want: int,
                 scope: int) -> None:
    """``op`` has degree ``want``: declared, and homogeneous on the keys in scope."""
    def decide():
        if op.degree != want:
            return False, f"declared degree {op.degree}"
        try:
            op.check_homogeneous(keys_upto(A, scope))
        except ValueError as exc:
            return False, str(exc)
        return True, ""

    rep.claim(name, scope, decide)


def unit_claim(rep: Report, A: CommAlgebra, op: LinOp, name: str, scope: int) -> None:
    """``op`` kills the unit, decided once the unit is in ``scope``."""
    rep.claim(name, scope, lambda: witness_verdict(
        None if op.on_key(A.unit_key).is_zero() else A.unit_key), least=0)


def flatness_claims(rep: Report, A: CommAlgebra, series: TOp, flat: LinOp) -> TOp:
    """The claims "flatness at order n", and the square as a series: every
    coefficient is odd, so sum_i [D_i, D_{n-i}] = 2 (D o D)_n.  ``flat`` is
    the series flattened at the order it is known to; an exact series is
    squared to twice its top order, flattened anew where that differs."""
    top = 2 * max(series.coeffs, default=0) if series.is_exact() else flat.domain.N
    if top != flat.domain.N:
        flat = flatten_top(series, top)
    sq = unflatten(flat @ flat, range(top + 1), series.known_to)
    for n in range(top + 1):
        op = sq.coeff(n)
        scope = evaluable_scope(A, op.on_key)
        rep.claim(f"flatness at order {n}", scope, lambda: witness_verdict(next(
            (key for key in keys_upto(A, scope) if not op.on_key(key).is_zero()), None)))
    return sq


def intertwining_claims(rep: Report, A: CommAlgebra, f: TOp, source: TOp, target: TOp, N: int,
                        label: str) -> None:
    """The claim ``label`` that f source = target f at ``known_order`` of the
    three series, decided on t^0 times the keys of ``A`` up to the evaluable
    scope of the flat defect (named in the claim); the orders above, to N, are
    UNDETERMINED."""
    order = known_order(N, f, source, target)
    f_ord = flatten_top(f, order)
    defect = f_ord @ flatten_top(source, order) - flatten_top(target, order) @ f_ord
    scope = evaluable_scope(A, lambda key: defect.on_key((0, key)))
    rep.claim(f"{label} (orders <= {order}, weights <= {scope})", scope, lambda: witness_verdict(
        next((key for key in keys_upto(A, scope) if defect.on_key((0, key))), None)))
    rep.add_beyond(order, [f"{label} beyond order {order}"] if order < N else [])


def _nilpotency(hd: LinOp, key, N: int) -> int:
    """The least j <= N with hd^j(key) = 0, and N + 1 when there is none."""
    v = Vector.basis(key)
    for j in range(1, N + 1):
        v = hd(v)
        if not v:
            return j
    return N + 1


def _sums(parts, count: int, top: int) -> list:
    """The orders up to ``top`` that are sums of at most ``count`` of ``parts``."""
    orders = {0}
    for _ in range(count):
        orders |= {a + p for a in orders for p in parts if a + p <= top}
    return sorted(orders)


def spl_t(C, Delta: TOp, N: int):
    """Standard Perturbation Lemma for a t-adically small perturbation: transfer
    the structure series ``Delta`` along the contraction C, whose differential
    d_A is Delta's order-zero coefficient.  The perturbation delta_+ is the
    positive-order part of Delta (with Delta's ``known_to``).  The outputs are
    ``hpt.perturb`` of the lifted contraction flattened at one order, by the
    flattened delta_+, with empty corpora (every caller certifies the outputs),
    read back by ``unflatten``.

    Returns (Delta_B, sigma, tau, h) as t-series; with no positive order they
    are the lifts of d_B, sigma, tau and h.  An exact Delta is flattened at N
    times delta_+'s top order, which holds every term of (h delta_+)^j for
    j <= N, and an inexact one at ``known_order(N, Delta)``.  The outputs are
    exact when Delta is exact and a power (h delta_+)^j with j <= N vanishes
    on every basis key of C's A side, the whole domain of h; j is then the
    certificate.  A power that cannot be evaluated on some key (Overflow)
    proves nothing, nor does one of an inexact Delta: the certificate is then
    one above the flattening order, which is sound since delta_+ has
    t-valuation >= 1, and the outputs are known to that order or N, the
    lesser.  The supports are the orders of the lemma's terms: sums of at
    most j - 1 orders of delta_+ for tau and h, and of at most j for sigma and
    Delta_B (j = N + 1 when cut).
    """
    td = Delta.t_degree
    plus = TOp({n: op for n, op in Delta.coeffs.items() if n >= 1}, Delta.domain,
               Delta.codomain, Delta.degree, td, Delta.known_to)
    if not plus.coeffs:
        return tuple(TOp.lift(op, td) for op in (C.d_B, C.sigma, C.tau, C.h))
    parts = plus.support()
    order = N * parts[-1] if Delta.is_exact() else known_order(N, Delta)
    flat = Contraction(*(flatten_top(TOp.lift(op, td), order)
                         for op in (C.sigma, C.tau, C.h, C.d_A, C.d_B)), verify_on_init=False)
    delta = flatten_top(plus, order)
    steps = N + 1
    if Delta.is_exact():
        hd = flat.h @ delta
        try:
            steps = max((_nilpotency(hd, (0, k), N) for k in C.space_A.keys()), default=1)
        except Overflow:
            pass
    exact = steps <= N
    _, out = perturb(flat, Perturbation(delta, steps if exact else order + 1), (), ())
    cap = order if exact else min(order, N)
    known = None if exact else cap
    outer, inner = _sums(parts, steps, cap), _sums(parts, steps - 1, cap)
    return (unflatten(out.d_B, outer, known), unflatten(out.sigma, outer, known),
            unflatten(out.tau, inner, known), unflatten(out.h, inner, known))
