"""Graded commutative unitary algebras, exponential/logarithmic automorphisms,
cumulants and Koszul brackets (each by several independent routes), and the
differential-operator order filtration.

Cumulants measure the failure of a unital map to be an algebra morphism; Koszul
brackets measure the failure of an operator to be a derivation.  Both are
computed here by (a) a closed partition/unshuffle formula, (b) a two-slot
recursion, and (c) the composite through the symmetric coalgebra; agreement of
the routes is a standing internal-consistency requirement, checked by one
comparison (``_agreeing_routes``) for both families.  The route sets are fixed:
``cumulants`` compares all three routes, and ``koszul_brackets`` compares (a)
and (b), plus (c) when delta(1) = 0 (an operator with delta(1) != 0 keeps the
unit correction of (a) and (b), which (c) has no room for).  Route (c) is one
composite ``L o middle o E`` (``_composite_route``), read off through the
weight-one part ``symcoalg._corestriction``, with middle the coalgebra
morphism S(f) for cumulants and the coderivation lift of delta for Koszul
brackets: cumulants are the exponential version of Koszul brackets.  On the
diagonal, sum_n K(delta)_n(a, ..., a)/n! = e^{-a} delta(e^a) is decided once,
by ``bv.bv_mc_check`` with its ``nilpotency`` cross-check.
The closed formulas ``cumulant_partition`` and ``koszul_closed`` stay the
independent oracles.  The one memo here is the Koszul recursion's table of
prefix brackets K_m(a_1, ..., a_m): at most n vectors, each entry with the
argument prefix it was built from.  It lives for one scan over tuples of one
(A, delta), an order check's walk over multisets, where each tuple reuses
the brackets of the prefix it shares with the tuple before; an entry whose
prefix differs from the current tuple's is dropped, never used, and the scan
drops the memo when it returns.  Nothing is memoized across scans.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import factorial
from operator import add
from typing import Iterable, Sequence

from .core import (
    LinOp,
    ONE,
    Overflow,
    Q,
    RouteDisagreement,
    Vector,
    expand_homogeneous,
    koszul_sign,
    multi_unshuffles,
    set_partitions,
    unshuffle_sign,
    vector_degree,
)
from .symcoalg import (
    SymSpace,
    TaylorCoderivation,
    TaylorMorphism,
    _corestriction,
    assemble_word,
    canonical_word,
)


class AlgebraSpace:
    """Key space of an algebra backend (keys may be ints, tuples, ...)."""

    def __init__(self, keys: Sequence, degree_fn, token):
        self._keys = tuple(keys)
        self._degree = degree_fn
        self._token = token

    def keys(self):
        return self._keys

    def degree(self, key):
        return self._degree(key)

    def __eq__(self, other):
        return isinstance(other, AlgebraSpace) and self._token == other._token

    def __hash__(self):
        return hash(self._token)


class CommAlgebra:
    """Interface shared by the algebra backends; products are exact, Overflow is loud."""

    space: object
    unit_key: object

    def mul_keys(self, k1, k2) -> Vector:
        raise NotImplementedError

    def unit(self) -> Vector:
        return Vector.basis(self.unit_key)

    def mul(self, a: Vector, b: Vector) -> Vector:
        out = Vector()
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                out.add_scaled(self.mul_keys(k1, k2), c1 * c2)
        return out

    def product_list(self, vectors: Sequence[Vector]) -> Vector:
        out = self.unit()
        for v in vectors:
            out = self.mul(out, v)
        return out

    def product_keys(self, keys: Iterable) -> Vector:
        return self.product_list([Vector.basis(k) for k in keys])

    def order_check_keys(self):
        """Keys spanning enough of the algebra to certify differential-operator order."""
        return self.space.keys()


class ExplicitFDAlgebra(CommAlgebra):
    """Finite-dimensional backend: structure constants verified at construction."""

    def __init__(self, basis, products: dict, unit_index: int):
        self.basis = basis
        self.unit_key = unit_index
        self.space = basis
        table: dict = {}
        for (i, j), v in products.items():
            table[(i, j)] = v
        for (i, j), v in list(table.items()):
            if (j, i) not in table:
                s = -1 if (basis.degree(i) % 2 and basis.degree(j) % 2) else 1
                table[(j, i)] = v.scale(s)
        for k in basis.keys():
            table[(unit_index, k)] = Vector.basis(k)
            table[(k, unit_index)] = Vector.basis(k)
        self.table = table
        self._verify()

    def mul_keys(self, k1, k2) -> Vector:
        return self.table.get((k1, k2), Vector.zero())

    def _verify(self):
        b = self.basis
        if b.degree(self.unit_key) != 0:
            raise ValueError("unit must have degree 0")
        for i in b.keys():
            for j in b.keys():
                v = self.mul_keys(i, j)
                d = b.degree(i) + b.degree(j)
                for k in v.keys():
                    if b.degree(k) != d:
                        raise ValueError(f"product not graded: {i}*{j}")
                s = -1 if (b.degree(i) % 2 and b.degree(j) % 2) else 1
                if self.mul_keys(j, i) != v.scale(s):
                    raise ValueError(f"product not graded-commutative on ({i},{j})")
        for i in b.keys():
            for j in b.keys():
                for k in b.keys():
                    left = self.mul(self.mul_keys(i, j), Vector.basis(k))
                    right = self.mul(Vector.basis(i), self.mul_keys(j, k))
                    if left != right:
                        raise ValueError(f"product not associative on ({i},{j},{k})")


class GuardedFreeAlgebra(CommAlgebra):
    """Free graded-commutative algebra on nilpotent/guarded generators.

    Keys are exponent tuples; odd generators square to zero, even generators may
    carry a nilpotency exponent, and any product whose total word length would
    exceed the guard raises Overflow instead of truncating.
    """

    def __init__(self, generators: Sequence[tuple[str, int, int | None]], length_bound: int):
        self.gen_symbols = tuple(g[0] for g in generators)
        self.gen_degrees = tuple(int(g[1]) for g in generators)
        nil = []
        for sym, deg, n in generators:
            if deg % 2:
                if n is not None and n != 2:
                    raise ValueError(f"odd generator {sym} must have nilpotency 2")
                nil.append(2)
            else:
                nil.append(n)
        self.nilpotency = tuple(nil)
        self._odd_desc = tuple(i for i in reversed(range(len(nil))) if self.gen_degrees[i] % 2)
        self.length_bound = length_bound
        self.unit_key = (0,) * len(generators)
        keys = self._enumerate()
        self.space = AlgebraSpace(keys, self._key_degree,
                                  ("guarded", self.gen_symbols, self.gen_degrees,
                                   self.nilpotency, length_bound))

    def _enumerate(self):
        keys = [()]
        for i, _ in enumerate(self.gen_symbols):
            cap = self.nilpotency[i] - 1 if self.nilpotency[i] is not None else self.length_bound
            keys = [k + (e,) for k in keys for e in range(cap + 1)]
        keys = [k for k in keys if sum(k) <= self.length_bound]
        keys.sort(key=lambda k: (sum(k), k))
        return keys

    def _key_degree(self, key) -> int:
        return sum(e * d for e, d in zip(key, self.gen_degrees))

    def mul_keys(self, k1, k2) -> Vector:
        out = tuple(map(add, k1, k2))
        for e, n in zip(out, self.nilpotency):
            if n is not None and e >= n:
                return Vector.zero()
        length = sum(out)
        if length > self.length_bound:
            raise Overflow(f"monomial length {length} exceeds guard {self.length_bound}")
        # each odd letter of k2 moves left past the odd letters of k1 after it
        crossings = later = 0
        for i in self._odd_desc:
            crossings += k2[i] * later
            later += k1[i]
        return Vector.basis(out, -1 if crossings % 2 else 1)

    def monomial(self, exponents: dict[str, int], coeff=ONE) -> Vector:
        key = tuple(exponents.get(s, 0) for s in self.gen_symbols)
        for e, n in zip(key, self.nilpotency):
            if n is not None and e >= n:
                return Vector.zero()
        if sum(key) > self.length_bound:
            raise Overflow(f"monomial length {sum(key)} exceeds guard {self.length_bound}")
        return Vector.basis(key, coeff)

    def show_key(self, key) -> str:
        parts = [f"{s}^{e}" if e > 1 else s for s, e in zip(self.gen_symbols, key) if e]
        return "*".join(parts) if parts else "1"

    def order_check_keys(self):
        gens = []
        for i in range(len(self.gen_symbols)):
            k = tuple(1 if j == i else 0 for j in range(len(self.gen_symbols)))
            if k in set(self.space.keys()):
                gens.append(k)
        return tuple(gens)


class SymWordAlgebra(CommAlgebra):
    """S_{<=W}(U) with the symmetric product, as an algebra backend."""

    def __init__(self, sym_space: SymSpace):
        self.sym_space = sym_space
        self.space = sym_space
        self.unit_key = ()

    def mul_keys(self, k1, k2) -> Vector:
        cw = self.sym_space.product_words(k1, k2)
        if cw is None:
            return Vector.zero()
        word, s = cw
        return Vector.basis(word, s)

    def order_check_keys(self):
        return self.sym_space.words_of_weight(1)


# -- exponential / logarithmic automorphisms --------------------------------------


def exp_automorphism(A: CommAlgebra, arity_bound: int) -> TaylorMorphism:
    """Taylor data e_n(a_1,...,a_n) = a_1...a_n."""
    def fn(n, word):
        return A.product_keys(word)
    return TaylorMorphism(A.space, A.space, fn, arity_bound, label="E")


def log_automorphism(A: CommAlgebra, arity_bound: int) -> TaylorMorphism:
    """Taylor data l_n(a_1,...,a_n) = (-1)^{n-1} (n-1)! a_1...a_n; inverse of E."""
    def fn(n, word):
        coeff = (-1 if (n - 1) % 2 else 1) * factorial(n - 1)
        return A.product_keys(word).scale(coeff)
    return TaylorMorphism(A.space, A.space, fn, arity_bound, label="L")


# -- cumulants ---------------------------------------------------------------------


def _args_degrees(space, parts: tuple[Vector, ...]) -> tuple[int, ...]:
    return tuple(vector_degree(space, p) or 0 for p in parts)


def cumulant_partition(A: CommAlgebra, B: CommAlgebra, f: LinOp, args: tuple[Vector, ...]) -> Vector:
    """Closed formula: sum over unordered set partitions with (-1)^{k-1}(k-1)! weights."""
    def kernel(*parts):
        n = len(parts)
        degs = _args_degrees(A.space, parts)
        out = Vector.zero()
        for part in set_partitions(n):
            flat = tuple(p for block in part for p in block)
            s = koszul_sign(flat, degs)
            k = len(part)
            coeff = (-1 if (k - 1) % 2 else 1) * factorial(k - 1) * s
            images = [f(A.product_list([parts[p] for p in block])) for block in part]
            out.add_scaled(B.product_list(images), coeff)
        return out

    return expand_homogeneous(A.space, args, kernel)


def cumulant_recursion(A: CommAlgebra, B: CommAlgebra, f: LinOp, args: tuple[Vector, ...]) -> Vector:
    """Two-slot recursion: kappa_{n+2}(..., b, c) from kappa_{n+1}(..., bc) and products."""
    def rec(parts: tuple[Vector, ...]) -> Vector:
        n = len(parts)
        if n == 1:
            return f(parts[0])
        rest, b, c = parts[:-2], parts[-2], parts[-1]
        out = Vector().add_scaled(rec(rest + (A.mul(b, c),)))
        m = len(rest)
        degs = _args_degrees(A.space, rest) + (vector_degree(A.space, b) or 0,
                                               vector_degree(A.space, c) or 0)
        for i in range(m + 1):
            for unsh in multi_unshuffles((i, m - i)):
                perm = unsh[0] + (m,) + unsh[1] + (m + 1,)
                s = koszul_sign(perm, degs)
                left = rec(tuple(rest[p] for p in unsh[0]) + (b,))
                right = rec(tuple(rest[p] for p in unsh[1]) + (c,))
                out.add_scaled(B.mul(left, right), -s)
        return out

    return expand_homogeneous(A.space, args, lambda *parts: rec(parts))


def _composite_route(A: CommAlgebra, B: CommAlgebra, middle, args: tuple[Vector, ...]) -> Vector:
    """The definition route of both families: the corestriction of L o middle o E
    applied to a_1 o ... o a_n, with E the exponential automorphism of A, L the
    logarithmic one of B, and middle a map S(A) -> S(B) given by ``apply_word``."""
    n = len(args)
    E, L = exp_automorphism(A, n), log_automorphism(B, n)
    out = Vector.zero()
    for w, c in assemble_word(A.space, args, n).items():
        z = Vector.zero()
        for u, cu in E.apply_word(w, n).items():
            z.add_scaled(middle.apply_word(u, n), cu)
        for u, cu in z.items():
            out.add_scaled(_corestriction(L.apply_word(u, n)), c * cu)
    return out


def _agreeing_routes(family: str, *thunks) -> Vector:
    """Evaluate each route (a thunk) and require exact agreement."""
    vals = [route() for route in thunks]
    for other in vals[1:]:
        if other != vals[0]:
            raise RouteDisagreement(f"{family} routes disagree")
    return vals[0]


def cumulant_composite(A: CommAlgebra, B: CommAlgebra, f: LinOp, args: tuple[Vector, ...]) -> Vector:
    """Definition route: corestriction of L o S(f) o E applied to a_1 o ... o a_n."""
    return _composite_route(A, B, TaylorMorphism.from_linear(f), args)


def cumulants(A: CommAlgebra, B: CommAlgebra, f: LinOp, args: tuple[Vector, ...]) -> Vector:
    """Evaluate kappa(f)_n on args by the partition, recursion and composite
    routes; exact agreement required."""
    if f(A.unit()) != B.unit():
        raise ValueError("cumulants need a unital map: f(1_A) = 1_B")
    return _agreeing_routes("cumulant",
                            lambda: cumulant_partition(A, B, f, args),
                            lambda: cumulant_recursion(A, B, f, args),
                            lambda: cumulant_composite(A, B, f, args))


# -- Koszul brackets ---------------------------------------------------------------


def koszul_closed(A: CommAlgebra, delta: LinOp, args: tuple[Vector, ...]) -> Vector:
    """Unshuffle formula; the i = 0 block carries the delta(1)-correction terms."""
    du = delta(A.unit())

    def kernel(*parts):
        n = len(parts)
        degs = _args_degrees(A.space, parts)
        out = Vector.zero()
        for i in range(0, n + 1):
            sign_i = -1 if (n - i) % 2 else 1
            for unsh in multi_unshuffles((i, n - i)):
                s = unshuffle_sign(unsh, degs)
                head = delta(A.product_list([parts[p] for p in unsh[0]])) if i else du
                if head.is_zero():
                    continue
                tail = A.product_list([parts[p] for p in unsh[1]])
                out.add_scaled(A.mul(head, tail), sign_i * s)
        return out

    return expand_homogeneous(A.space, args, kernel)


def koszul_recursion(A: CommAlgebra, delta: LinOp, args: tuple[Vector, ...],
                     memo: dict | None = None) -> Vector:
    """Recursion K_{n+2}(..., b, c) = K_{n+1}(..., bc) - K_{n+1}(..., b)c -+ K_{n+1}(..., c)b.

    On one homogeneous tuple a_1, ..., a_n (one kernel call) every state is
    K_{m+1}(a_1, ..., a_m, c), with c a product of later arguments.  Only the
    prefix brackets K_m(a_1, ..., a_m), the b branch, are reached from more
    than one parent; they are memoized by m, each entry with the argument
    prefix it was built from, so delta is evaluated at 2^n - 1 leaves, not
    3^(n-1).  The memo is ``memo`` when given, else a dict of this call: a
    scan over many tuples of one (A, delta) passes one dict, so a tuple
    reuses the brackets of the prefix it shares with the tuple before it.  At
    each kernel call the entries whose prefix differs from the new tuple's
    are dropped, so any order of tuples gives the same values, and the memo
    holds at most n vectors.  Argument degrees are computed once per kernel
    call, and the degree of c is carried down as a sum.
    """
    du = delta(A.unit())
    unital = du.is_zero()
    memo = {} if memo is None else memo

    def rec(parts: tuple[Vector, ...], degs: tuple[int, ...], m: int, c: Vector,
            dc: int) -> Vector:
        if m == 0:
            return delta(c) if unital else delta(c) - A.mul(du, c)
        b, db = parts[m - 1], degs[m - 1]
        out = Vector().add_scaled(rec(parts, degs, m - 1, A.mul(b, c), db + dc))
        if m not in memo:
            memo[m] = (parts[:m], rec(parts, degs, m - 1, b, db))
        out.add_scaled(A.mul(memo[m][1], c), -1)
        out.add_scaled(A.mul(rec(parts, degs, m - 1, c, dc), b),
                       1 if db % 2 and dc % 2 else -1)
        return out

    def kernel(*parts):
        for m in [m for m, (prefix, _) in memo.items() if prefix != parts[:m]]:
            del memo[m]
        degs = _args_degrees(A.space, parts)
        return rec(parts, degs, len(parts) - 1, parts[-1], degs[-1])

    try:
        return expand_homogeneous(A.space, args, kernel)
    finally:
        # rec's closure holds rec: emptying that cell breaks the cycle, so the
        # closure is freed on return rather than by the garbage collector
        del rec


def koszul_composite(A: CommAlgebra, delta: LinOp, args: tuple[Vector, ...]) -> Vector:
    """Definition route: corestriction of L o delta~ o E (requires delta(1) = 0)."""
    if not delta(A.unit()).is_zero():
        raise ValueError("composite Koszul route needs delta(1) = 0")
    return _composite_route(A, A, TaylorCoderivation.from_linear(delta), args)


def koszul_brackets(A: CommAlgebra, delta: LinOp, args: tuple[Vector, ...]) -> Vector:
    """Evaluate K(delta)_n on args by the closed and recursion routes, and by the
    composite route when delta(1) = 0; exact agreement required."""
    thunks = (lambda: koszul_closed(A, delta, args), lambda: koszul_recursion(A, delta, args))
    if delta(A.unit()).is_zero():
        thunks += (lambda: koszul_composite(A, delta, args),)
    return _agreeing_routes("Koszul bracket", *thunks)


def derivation_defect(A: CommAlgebra, delta: LinOp, keys=None):
    """First basis pair where K(delta)_2 != 0, or None if delta is a derivation there."""
    keys = tuple(A.space.keys() if keys is None else keys)
    for i, k1 in enumerate(keys):
        for k2 in keys[i:]:
            val = koszul_closed(A, delta, (Vector.basis(k1), Vector.basis(k2)))
            if not val.is_zero():
                return (k1, k2)
    return None


# -- order filtration --------------------------------------------------------------


def koszul_vanishes(A: CommAlgebra, delta: LinOp, n: int, keys=None) -> tuple | None:
    """Witness tuple where K(delta)_n != 0 on the checking corpus, else None.

    The multisets are walked in lexicographic order with one prefix memo of
    ``koszul_recursion`` for the whole walk, so consecutive tuples share
    their common prefix brackets; each entry is used only while its stored
    prefix equals the current tuple's, and the memo is dropped on return.
    """
    keys = A.order_check_keys() if keys is None else keys
    memo: dict = {}
    # canonical multisets of size n span the arguments, by symmetry
    for tup in combinations_with_replacement(keys, n):
        if canonical_word(A.space, tup) is None:
            continue
        args = tuple(Vector.basis(k) for k in tup)
        if not koszul_recursion(A, delta, args, memo=memo).is_zero():
            return tup
    return None


def diff_order(A: CommAlgebra, delta: LinOp, max_order: int, keys=None) -> int | None:
    """Largest arity with a nonvanishing Koszul bracket on the corpus (that is,
    the differential-operator order); None if K_{max_order+1} still fails to
    vanish (reported UNBOUNDED by callers).

    On a generating corpus this is sound: if K_m vanishes on generator tuples
    for every m > k, the two-slot recursion propagates the vanishing to all
    product arguments, downward in product length.  Each arity is one
    ``koszul_vanishes`` scan with a prefix memo of its own; no bracket is
    kept from one arity to the next.
    """
    if koszul_vanishes(A, delta, max_order + 1, keys) is not None:
        return None
    order = 0
    for m in range(1, max_order + 1):
        if koszul_vanishes(A, delta, m, keys) is not None:
            order = m
    return order


# -- lifts to the symmetric coalgebra ----------------------------------------------


def kos_lift(A: CommAlgebra, delta: LinOp, arity_bound: int) -> TaylorCoderivation:
    """Package all K(delta)_n as a coderivation on S(A); needs delta(1) = 0."""
    if not delta(A.unit()).is_zero():
        raise ValueError("kos_lift needs delta(1) = 0")

    def fn(n, word):
        return koszul_recursion(A, delta, tuple(Vector.basis(k) for k in word))

    return TaylorCoderivation(A.space, fn, arity_bound, delta.degree, label=f"Kos({delta.label})")


def cumulant_lift(A: CommAlgebra, B: CommAlgebra, f: LinOp, arity_bound: int) -> TaylorMorphism:
    """Package all kappa(f)_n as a coalgebra morphism S(A) -> S(B)."""
    if f(A.unit()) != B.unit():
        raise ValueError("cumulant_lift needs f(1_A) = 1_B")

    def fn(n, word):
        return cumulant_recursion(A, B, f, tuple(Vector.basis(k) for k in word))

    return TaylorMorphism(A.space, B.space, fn, arity_bound, label=f"kappa({f.label})")


# -- exponential endomorphisms ---------------------------------------------------


def exp_endomorphism(A: CommAlgebra, delta: LinOp, certificate: int) -> LinOp:
    """exp(delta) = sum_{j<m} delta^j / j! for nilpotent degree-0 delta with delta^m = 0."""
    if delta.degree != 0:
        raise ValueError("exp needs a degree-0 operator")
    power = delta.power(certificate)
    bad = [k for k in A.space.keys() if not power.on_key(k).is_zero()]
    if bad:
        raise ValueError(f"nilpotency certificate {certificate} fails at {bad[0]}")

    def fn(key):
        out = Vector.basis(key)
        term = Vector.basis(key)
        for j in range(1, certificate):
            term = delta(term)
            out.add_scaled(term, Q(1, factorial(j)))
        return out

    return LinOp(A.space, A.space, 0, fn, f"exp({delta.label})")
