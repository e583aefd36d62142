"""Formal t-power-series of operators and elements, truncation-order aware.

The central variable t is even; a series knows either its exact finite support
(``known_to is None``) or the last order up to which its coefficients are
reliable.  Congruence claims beyond the reliable order are the caller's
responsibility to report UNDETERMINED.

An element sum_n t^n v_n, poles allowed, is a flat ``Vector`` on (order, key)
pairs.  ``TOp.flat_image`` is the one flattening of an operator series onto
them; ``flatten_top`` and ``flat_unital_map`` are built on it.  With a pole,
``TruncatedTAlgebra`` is only used at an order that no term reaches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import LinOp, Overflow, Vector
from .commalg import CommAlgebra
from .hpt import lemma_outputs
from .symcoalg import _space_token


@dataclass
class TOp:
    """Sum_n t^n op_n with op_n : domain -> codomain homogeneous of degree
    (degree - n * t_degree); ``known_to`` is the largest order with exact
    coefficients (None: all orders)."""

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

    def min_power(self) -> int:
        return min(self.coeffs, default=0)

    def is_exact(self) -> bool:
        return self.known_to is None

    def _join(self, other: "TOp", shift_self: int = 0, shift_other: int = 0) -> int | None:
        if self.is_exact() and other.is_exact():
            return None
        outs = []
        if not self.is_exact():
            outs.append(self.known_to + shift_other)
        if not other.is_exact():
            outs.append(other.known_to + shift_self)
        return min(outs)

    def __add__(self, other: "TOp") -> "TOp":
        if self.degree != other.degree:
            raise ValueError("adding t-series of different degree")
        coeffs = dict(self.coeffs)
        for n, op in other.coeffs.items():
            coeffs[n] = coeffs[n] + op if n in coeffs else op
        known = self._join(other)
        return TOp(coeffs, self.domain, self.codomain, self.degree, self.t_degree, known)

    def __sub__(self, other: "TOp") -> "TOp":
        return self + other.scale(-1)

    def scale(self, a) -> "TOp":
        return TOp({n: op.scale(a) for n, op in self.coeffs.items()}, self.domain,
                   self.codomain, self.degree, self.t_degree, self.known_to)

    def __matmul__(self, other: "TOp") -> "TOp":
        """self o other; coefficients beyond the reliable order are dropped."""
        if other.codomain != self.domain:
            raise ValueError("t-series composition mismatch")
        known = self._join(other, shift_self=self.min_power(), shift_other=other.min_power())
        coeffs: dict = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                n = i + j
                if known is not None and n > known:
                    continue
                coeffs[n] = coeffs[n] + (a @ b) if n in coeffs else a @ b
        return TOp(coeffs, other.domain, self.codomain, self.degree + other.degree,
                   self.t_degree, known)

    def truncated(self, N: int) -> "TOp":
        """The series cut after order N: reliable to N at most.  The coefficients
        are lazy, so one that is cut is never evaluated."""
        return TOp({n: op for n, op in self.coeffs.items() if n <= N}, self.domain,
                   self.codomain, self.degree, self.t_degree,
                   N if self.known_to is None else min(self.known_to, N))

    def bracket(self, other: "TOp") -> "TOp":
        sign = -1 if (self.degree % 2 and other.degree % 2) else 1
        return self @ other - (other @ self).scale(sign)

    def apply_key(self, key, max_order: int) -> dict:
        """Orderwise image of a basis key, as {n: Vector} over its nonzero
        orders n <= max_order; the vectors are the coefficients' cached images."""
        return {n: v for n, op in self.coeffs.items() if n <= max_order and (v := op.on_key(key))}

    def flat_image(self, n: int, key, N: int) -> Vector:
        """Image of t^n key on the flattened spaces: the sum over m of
        t^(n+m) op_m(key) for n + m <= N.  A coefficient whose order is cut
        is never evaluated."""
        return Vector(((n + m, k2), c) for m, op in self.coeffs.items() if n + m <= N
                      for k2, c in op.on_key(key).items())

    def is_zero_on(self, keys, max_order: int) -> bool:
        return all(not self.apply_key(k, max_order) for k in keys)

    def first_nonzero(self, keys, max_order: int):
        for k in keys:
            img = self.apply_key(k, max_order)
            if img:
                return k, img
        return None


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


def spl_t(C, Delta: TOp, N: int):
    """Standard Perturbation Lemma for a t-adically small perturbation: transfer
    the structure series ``Delta`` along the contraction C, whose differential
    d_A is Delta's order-zero coefficient.  The perturbation is the
    positive-order part of Delta (with Delta's ``known_to``), and the outputs
    are ``hpt.lemma_outputs`` of the lifted contraction, the one lemma that
    ``hpt.perturb`` states for a nilpotent perturbation.

    Returns (Delta_B, sigma, tau, h) as t-series, where Delta_B is lift(d_B)
    plus the transferred perturbation; with no positive order they are the
    lifts of d_B, sigma, tau and h.  They are flagged exact when a power of
    h o perturbation vanishes on every basis key of C's A side, the whole
    domain of h.  A power that cannot be evaluated on some key (Overflow)
    proves nothing, and the geometric series and the outputs are then cut
    after order N (``TOp.truncated``), which is always sound since the
    perturbation has t-valuation >= 1.
    """
    td = Delta.t_degree
    h = TOp.lift(C.h, td)
    sigma = TOp.lift(C.sigma, td)
    tau = TOp.lift(C.tau, td)
    d_B = TOp.lift(C.d_B, td)
    delta_plus = TOp({n: op for n, op in Delta.coeffs.items() if n >= 1},
                     Delta.domain, Delta.codomain, Delta.degree, td, Delta.known_to)
    if not delta_plus.coeffs:
        return d_B, sigma, tau, h
    hd = h @ delta_plus
    top_order = max(delta_plus.support()) * (N + 1)
    powers = [TOp.lift(LinOp.identity(C.space_A), td)]
    corpus = C.space_A.keys()
    exact = False
    for j in range(1, N + 1):
        nxt = hd @ powers[-1]
        if corpus is not None:
            try:
                exact = nxt.is_zero_on(corpus, top_order)
            except Overflow:
                corpus = None
            if exact:
                break
        powers.append(nxt)
    geo = powers[0]
    for pw in powers[1:]:
        geo = geo + pw
    if not exact:
        geo = geo.truncated(N)
    outputs = lemma_outputs(sigma, tau, h, delta_plus, geo)
    if not exact:
        outputs = tuple(op.truncated(N) for op in outputs)
    delta_B, sigma_new, tau_new, h_new = outputs
    return d_B + delta_B, sigma_new, tau_new, h_new
