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
brackets: cumulants are the exponential version of Koszul brackets.  Their
lifts, ``kos_lift`` and ``cumulant_lift``, are the Taylor data whose
Maurer-Cartan sums ``mc.mc_sum`` forms for ``bv`` and ``ibl``, one recursion
per canonical word of the diagonal.  On the diagonal,
sum_n K(delta)_n(a, ..., a)/n! = e^{-a} delta(e^a) is decided once, by
``bv.bv_mc_check`` with its ``nilpotency`` cross-check.
Routes (a) and (b) multiply keys by ``core.CommAlgebra.mul_keys``, the one
algebra interface: the explicit table backend and the guarded free algebra
(its own key space) implement it here, and S(V) is ``symcoalg.SymSpace``
itself, so every family runs on S(V) as it stands.  The recursions
of route (b) are kernels on one tuple of basis keys, which a caller with
vectors extends by ``core.expand_multilinear``; the values they return are
shared (memo entries, ``on_key`` images), read and never mutated.  The closed
formulas ``cumulant_partition`` and ``koszul_closed`` stay the independent
oracles.  With delta(1) = 0, delta is a derivation where K(delta)_2
vanishes: the arity-2 scan ``koszul_vanishes(A, delta, 2)`` decides it.  The
one memo here is the Koszul recursion's, one table per level m of the states
K_{m+1}(a_1, ..., a_m, c), keyed by the basis key of c (so at most dim A
entries) and stored with the key prefix a_1, ..., a_m they were built from.
It lives for one scan over key tuples of one (A, delta), an order check's
walk over multisets or one multilinear expansion, where each tuple reuses the
tables of the prefix it shares with the tuple before; a level whose prefix
differs is replaced, never used, and the scan drops the memo when it returns.
Nothing is memoized across scans.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import factorial
from operator import add, mul
from typing import Iterable, Sequence

from .core import (
    CommAlgebra,
    LinOp,
    ONE,
    Overflow,
    Q,
    RouteDisagreement,
    Vector,
    expand_multilinear,
    set_partitions,
    unshuffles,
)
from .symcoalg import (
    TaylorCoderivation,
    TaylorMorphism,
    _corestriction,
    assemble_word,
    multisets_by_weight,
)


class ExplicitFDAlgebra(CommAlgebra):
    """Finite-dimensional backend: structure constants verified at construction."""

    def __init__(self, basis, products: dict, unit_index: int):
        self.basis = basis
        self.unit_key = unit_index
        self.space = basis
        table = dict(products)
        for (i, j), v in list(table.items()):
            if (j, i) not in table:
                s = -1 if (basis.degree(i) % 2 and basis.degree(j) % 2) else 1
                table[(j, i)] = v.scale(s)
        for k in basis.keys():
            table[(unit_index, k)] = Vector.basis(k)
            table[(k, unit_index)] = Vector.basis(k)
        self.table = table
        self._verify()

    def mul_keys(self, k1, k2) -> Iterable:
        v = self.table.get((k1, k2))
        return () if v is None else v.items()

    def _verify(self):
        b = self.basis
        if b.degree(self.unit_key) != 0:
            raise ValueError("unit must have degree 0")
        for i in b.keys():
            for j in b.keys():
                v = Vector(self.mul_keys(i, j))
                d = b.degree(i) + b.degree(j)
                for k in v.keys():
                    if b.degree(k) != d:
                        raise ValueError(f"product not graded: {i}*{j}")
                s = -1 if (b.degree(i) % 2 and b.degree(j) % 2) else 1
                if Vector(self.mul_keys(j, i)) != v.scale(s):
                    raise ValueError(f"product not graded-commutative on ({i},{j})")
        for i in b.keys():
            for j in b.keys():
                for k in b.keys():
                    left = self.mul(Vector(self.mul_keys(i, j)), Vector.basis(k))
                    right = self.mul(Vector.basis(i), Vector(self.mul_keys(j, k)))
                    if left != right:
                        raise ValueError(f"product not associative on ({i},{j},{k})")


class GuardedFreeAlgebra(CommAlgebra):
    """Free graded-commutative algebra on nilpotent/guarded generators.

    Keys are exponent tuples; odd generators square to zero, even generators may
    carry a nilpotency exponent, and any product whose total word length would
    exceed the guard raises Overflow instead of truncating; a key's weight is
    that length, its exponent sum.  The algebra is its own key space (``keys``,
    ``degree``), equal to another built from the same generators and guard.
    """

    def __init__(self, generators: Sequence[tuple[str, int, int | None]], weight_bound: int):
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
        self.weight_bound = weight_bound
        self.unit_key = (0,) * len(generators)
        keys = [()]
        for n in self.nilpotency:
            keys = [k + (e,) for k in keys for e in range(weight_bound + 1 if n is None else n)]
        keys = (k for k in keys if sum(k) <= weight_bound)
        self._keys = tuple(sorted(keys, key=lambda k: (sum(k), k)))
        self._token = (self.gen_symbols, self.gen_degrees, self.nilpotency, weight_bound)

    @property
    def space(self) -> "GuardedFreeAlgebra":
        return self

    def __eq__(self, other):
        return isinstance(other, GuardedFreeAlgebra) and self._token == other._token

    def __hash__(self):
        return hash(self._token)

    def keys(self) -> tuple:
        return self._keys

    def degree(self, key) -> int:
        return sum(map(mul, key, self.gen_degrees))

    def weight(self, key) -> int:
        return sum(key)

    def mul_keys(self, k1, k2) -> Iterable:
        out = tuple(map(add, k1, k2))
        for e, n in zip(out, self.nilpotency):
            if n is not None and e >= n:
                return ()
        length = sum(out)
        if length > self.weight_bound:
            raise Overflow(f"monomial length {length} exceeds guard {self.weight_bound}")
        # each odd letter of k2 moves left past the odd letters of k1 after it
        crossings = later = 0
        for i in self._odd_desc:
            crossings += k2[i] * later
            later += k1[i]
        return ((out, -1 if crossings % 2 else 1),)

    def monomial(self, exponents: dict[str, int], coeff=ONE) -> Vector:
        key = tuple(exponents.get(s, 0) for s in self.gen_symbols)
        for e, n in zip(key, self.nilpotency):
            if n is not None and e >= n:
                return Vector.zero()
        if sum(key) > self.weight_bound:
            raise Overflow(f"monomial length {sum(key)} exceeds guard {self.weight_bound}")
        return Vector.basis(key, coeff)

    def show_key(self, key) -> str:
        parts = [f"{s}^{e}" if e > 1 else s for s, e in zip(self.gen_symbols, key) if e]
        return "*".join(parts) if parts else "1"

    def order_check_keys(self):
        n = len(self.gen_symbols)
        return tuple(k for k in (tuple(int(i == j) for j in range(n)) for i in range(n))
                     if k in self._keys)


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


def _block_products(A: CommAlgebra, keys: tuple) -> dict:
    """The product of the keys at each ascending tuple of positions, every one
    formed from the block without its last position: one table per kernel call
    of the closed formulas, whose unshuffle or partition blocks share it."""
    out = {(): A.unit()}
    for size in range(1, len(keys) + 1):
        for block in combinations(range(len(keys)), size):
            out[block] = A.mul(out[block[:-1]], Vector.basis(keys[block[-1]]))
    return out


def cumulant_partition(A: CommAlgebra, B: CommAlgebra, f: LinOp, args: tuple[Vector, ...]) -> Vector:
    """Closed formula: sum over unordered set partitions with (-1)^{k-1}(k-1)! weights."""
    def kernel(*keys):
        degs = tuple(map(A.space.degree, keys))
        images = {block: f(v) for block, v in _block_products(A, keys).items()}
        out = Vector()
        for factors, sign in set_partitions(degs, images.__getitem__):
            k = len(factors)
            coeff = (-1 if (k - 1) % 2 else 1) * factorial(k - 1) * sign
            out.add_scaled(reduce(B.mul, factors), coeff)
        return out

    return expand_multilinear(args, kernel)


def cumulant_recursion(A: CommAlgebra, B: CommAlgebra, f: LinOp, keys: tuple) -> Vector:
    """Two-slot recursion on one tuple of basis keys, vectors going through
    ``core.expand_multilinear``: kappa_{n+2}(..., b, c) from kappa_{n+1}(..., bc)
    and products; the bc branch runs over the terms of b * c.  The value on
    one key is f's ``on_key`` image, shared: read, never mutated."""
    def rec(keys: tuple) -> Vector:
        if len(keys) == 1:
            return f.on_key(keys[0])
        rest, b, c = keys[:-2], keys[-2], keys[-1]
        out = Vector()
        for kc, x in A.mul_keys(b, c):
            out.add_scaled(rec(rest + (kc,)), x)
        # (left, b, right, c): b passes the right block, c stays last
        degs = tuple(map(A.space.degree, rest))
        b_odd = A.space.degree(b) % 2
        for i in range(len(rest) + 1):
            for left, right, s in unshuffles(degs, i):
                if b_odd and sum(degs[p] for p in right) % 2:
                    s = -s
                lv = rec(tuple(map(rest.__getitem__, left)) + (b,))
                rv = rec(tuple(map(rest.__getitem__, right)) + (c,))
                out.add_scaled(B.mul(lv, rv), -s)
        return out

    try:
        return rec(keys)
    finally:
        del rec


def _composite_route(A: CommAlgebra, B: CommAlgebra, middle, args: tuple[Vector, ...]) -> Vector:
    """The definition route of both families: the corestriction of L o middle o E
    applied to a_1 o ... o a_n, with E the exponential automorphism of A, L the
    logarithmic one of B, and middle a map S(A) -> S(B) given by ``apply_word``."""
    n = len(args)
    E, L = exp_automorphism(A, n), log_automorphism(B, n)
    out = Vector()
    for w, c in assemble_word(A.space, args, n).items():
        z = Vector()
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
                            lambda: expand_multilinear(
                                args, lambda *keys: cumulant_recursion(A, B, f, keys)),
                            lambda: cumulant_composite(A, B, f, args))


# -- Koszul brackets ---------------------------------------------------------------


def koszul_closed(A: CommAlgebra, delta: LinOp, args: tuple[Vector, ...]) -> Vector:
    """Unshuffle formula; the i = 0 block carries the delta(1)-correction terms."""
    du = delta(A.unit())

    def kernel(*keys):
        n = len(keys)
        degs = tuple(map(A.space.degree, keys))
        products = _block_products(A, keys)
        out = Vector()
        for i in range(0, n + 1):
            sign_i = -1 if (n - i) % 2 else 1
            for left, right, s in unshuffles(degs, i):
                head = delta(products[left]) if i else du
                if head.is_zero():
                    continue
                out.add_scaled(A.mul(head, products[right]), sign_i * s)
        return out

    return expand_multilinear(args, kernel)


def koszul_recursion(A: CommAlgebra, delta: LinOp, keys: tuple,
                     memo: dict | None = None) -> Vector:
    """K_n(a_1, ..., a_n) on one tuple of basis keys, by the recursion
    K_{n+2}(..., b, c) = K_{n+1}(..., bc) - K_{n+1}(..., b)c -+ K_{n+1}(..., c)b.

    Vectors go through ``core.expand_multilinear``.  Every state is
    K_{m+1}(a_1, ..., a_m, c) with c a basis key: K is linear in c, so the bc
    branch runs over the terms of ``mul_keys(b, c)``, and a vanishing product
    prunes its whole branch.  The states are memoized in one table per level,
    ``memo[m] = ((a_1, ..., a_m), {c: K_{m+1}(a_1, ..., a_m, c)})``, so each
    is evaluated once however many branches reach it; the prefix brackets
    K_m(a_1, ..., a_m) are the entries with c = a_m.  On n keys delta is
    evaluated at most once per product of a nonempty sub-multiset of them,
    and a table holds at most dim A entries.  The memo is ``memo`` when
    given, else a dict of this call: a scan over many tuples of one
    (A, delta) passes one dict, so a tuple reuses the tables of the prefix
    it shares with the tuple before it.  A level whose prefix differs from
    this tuple's is replaced by an empty one, so any order of tuples gives
    the same values.  delta(1) is read as ``delta.on_key(A.unit_key)``.
    The value returned is shared (a table entry, or delta's own ``on_key``
    image): like an ``on_key`` image, it is read and never mutated.
    """
    du = delta.on_key(A.unit_key)
    unital = du.is_zero()
    memo = {} if memo is None else memo
    mul_keys = A.mul_keys
    degs = tuple(map(A.space.degree, keys))
    tables = []
    for m in range(len(keys)):
        if m not in memo or memo[m][0] != keys[:m]:
            memo[m] = (keys[:m], {})
        tables.append(memo[m][1])

    def rec(m: int, ck, dc: int) -> Vector:
        table = tables[m]
        v = table.get(ck)
        if v is not None:
            return v
        if m == 0:
            v = delta.on_key(ck)
            if not unital:
                v = v - A.mul(du, Vector.basis(ck))
        else:
            b, db = keys[m - 1], degs[m - 1]
            s = 1 if db % 2 and dc % 2 else -1
            v = Vector([(k, x * y) for kc, x in mul_keys(b, ck)
                        for k, y in rec(m - 1, kc, db + dc).items()]
                       + [(k, -x * y) for kb, x in rec(m - 1, b, db).items()
                          for k, y in mul_keys(kb, ck)]
                       + [(k, s * x * y) for kc, x in rec(m - 1, ck, dc).items()
                          for k, y in mul_keys(kc, b)])
        table[ck] = v
        return v

    try:
        return rec(len(keys) - 1, keys[-1], degs[-1])
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
    memo: dict = {}
    thunks = (lambda: koszul_closed(A, delta, args), lambda: expand_multilinear(
        args, lambda *keys: koszul_recursion(A, delta, keys, memo)))
    if delta(A.unit()).is_zero():
        thunks += (lambda: koszul_composite(A, delta, args),)
    return _agreeing_routes("Koszul bracket", *thunks)


# -- order filtration --------------------------------------------------------------


def koszul_vanishes(A: CommAlgebra, delta: LinOp, n: int, keys=None) -> tuple | None:
    """Witness tuple where K(delta)_n != 0 on the checking corpus, else None.

    Multisets of n keys span the arguments, by symmetry: the walk is
    ``multisets_by_weight``'s, lexicographic in the corpus order and without
    those that repeat an odd key.  Each is a key tuple for ``koszul_recursion``
    with one memo for the walk, so a tuple shares the tables of the prefix it
    has in common with the one before; the values are only tested for zero.
    """
    keys = A.order_check_keys() if keys is None else keys
    memo: dict = {}
    return next((tup for _, cases in multisets_by_weight(A, keys, n) for tup in cases
                 if not koszul_recursion(A, delta, tup, memo).is_zero()), None)


def diff_order(A: CommAlgebra, delta: LinOp, max_order: int, keys=None) -> int | None:
    """Largest arity with a nonvanishing Koszul bracket on the corpus (that is,
    the differential-operator order); None if K_{max_order+1} still fails to
    vanish (reported UNBOUNDED by callers).

    On a generating corpus this is sound: if K_m vanishes on generator tuples
    for every m > k, the two-slot recursion propagates the vanishing to all
    product arguments, downward in product length.  Each arity is one
    ``koszul_vanishes`` walk of its multisets, with a memo of its own.
    """
    if koszul_vanishes(A, delta, max_order + 1, keys) is not None:
        return None
    return max((m for m in range(1, max_order + 1) if koszul_vanishes(A, delta, m, keys)),
               default=0)


# -- lifts to the symmetric coalgebra ----------------------------------------------


def kos_lift(A: CommAlgebra, delta: LinOp, arity_bound: int) -> TaylorCoderivation:
    """Package all K(delta)_n as a coderivation on S(A); needs delta(1) = 0."""
    if not delta(A.unit()).is_zero():
        raise ValueError("kos_lift needs delta(1) = 0")

    return TaylorCoderivation(A.space, lambda n, word: koszul_recursion(A, delta, word),
                              arity_bound, delta.degree, label=f"Kos({delta.label})")


def cumulant_lift(A: CommAlgebra, B: CommAlgebra, f: LinOp, arity_bound: int) -> TaylorMorphism:
    """Package all kappa(f)_n as a coalgebra morphism S(A) -> S(B)."""
    if f(A.unit()) != B.unit():
        raise ValueError("cumulant_lift needs f(1_A) = 1_B")

    return TaylorMorphism(A.space, B.space, lambda n, word: cumulant_recursion(A, B, f, word),
                          arity_bound, label=f"kappa({f.label})")


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
