"""Truncated symmetric coalgebra S_{<=W}(V): words, coproduct, Taylor calculus, convolution.

Coalgebra morphisms and coderivations of S(V) are both determined by their
Taylor coefficients (corestrictions), and share one store of them: the domain
base, a cached component function, the arity bound with whether coefficients
beyond it vanish, a label, and ``q0``, the coefficient on the empty word (the
constant term of a coderivation, zero for a morphism).  Component functions are
built from tables, from a linear map, or by corestriction of a word-level map;
``_corestriction`` is the one weight-one part of an image on words, which the
composite route of ``commalg`` uses too.  The store also gives the data on the
grouplike e^x, sum_n t_n(x, ..., x)/n!, as a polynomial in the coefficients of
x with one term per canonical word and its multinomial weight
(``diagonal_polynomial``).  The two reconstruction formulas live here: a morphism
on a word is the sum over set partitions of the word of the Koszul-signed
products of its coefficients on the blocks, and a coderivation on a word is
the sum over (i, n-i)-unshuffles of its coefficient on the first block times
the rest.  So do the coderivation bracket, the unshuffle coproduct
and the convolution Hopf calculus (star product, exp/log, antipode), whose
exp_* of the weight-one data rebuilds the same morphism, together with the
dual cocumulant / Koszul cobracket recursions.  exp_* and log_* are one sum
c_k G^{*k} over cached convolution powers (``_star_series``) with values in
a ``core.CommAlgebra`` they take whole, and ``tensor_coproduct`` is the one
(left (x) right) o Delta with its Koszul sign: convolution multiplies its
pairs by the algebra's ``mul_keys``, the coderivation bracket evaluates one
coderivation on the tensor (other (x) id) Delta, and the morphism and
coderivation defects and the semifull-coalgebra identities of ``hpt`` all
compare through it.

There is one coalgebra interface: ``unit_key``, ``keys``, ``reduced_keys``,
``degree``, ``coproduct`` and ``reduced_coproduct``.  ``SymSpace`` is the
cofree coalgebra with it, whose coproduct yields the splits of a word and
stores none, and ``FiniteCoalgebra`` an explicit one, whose coproduct table is
its definition.  The splits of a word, here and in the reconstruction
formulas, are `core.unshuffles` read off its letters (``_word_unshuffles``):
``TaylorCoderivation.apply_word`` and ``hat_extension`` read them one arity
at a time, and every other job reads whole coproducts.  ``SymSpace`` is also
the truncated free algebra: it implements the one algebra interface
``core.CommAlgebra``, its ``mul_keys`` the symmetric product of two words, so
one object carries both structures: ``hat_extension`` multiplies by its
``mul``, and the convolutions of ``ibl`` take it as their algebra.

A tensor (an element of C^{(x)n}, such as a coproduct image or a tilde
recursion's value) is a `Vector` keyed by tuples of keys; ``canonical_sum``
projects one to canonical words of S(V).  ``insert_factors`` multiplies
weight-one vectors into a canonical word letter by letter (``insert_letter``),
re-sorting no key tuple; ``assemble_word`` is that product on the empty word.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, groupby
from math import factorial, prod
from typing import Callable, Iterable, Iterator

from .core import (
    CommAlgebra,
    GradedBasis,
    LinOp,
    ONE,
    Overflow,
    Q,
    Vector,
    koszul_sign,
    set_partitions,
    unshuffles,
)

SymWord = tuple  # ascending tuple of base keys


def canonical_word(base, keys: Iterable) -> tuple[SymWord, int] | None:
    """Sort ``keys`` ascending; return (word, Koszul sign), or None if an odd key repeats."""
    keys = tuple(keys)
    degs = tuple(base.degree(k) for k in keys)
    order = tuple(sorted(range(len(keys)), key=keys.__getitem__))
    word = tuple(keys[i] for i in order)
    for a, b in zip(word, word[1:]):
        if a == b and base.degree(a) % 2:
            return None
    return word, koszul_sign(order, degs)


def insert_letter(base, k, word: SymWord) -> tuple[SymWord, int] | None:
    """``canonical_word(base, (k,) + word)`` for a canonical ``word``: k moves to
    its sorted slot, found by bisection, past the letters x before it with the
    sign (-1)^(|k| sum |x|); None if k is odd and already in the word."""
    j = bisect_left(word, k)
    s = 1
    if base.degree(k) % 2:
        if j < len(word) and word[j] == k:
            return None
        if sum(base.degree(x) for x in word[:j]) % 2:
            s = -1
    return word[:j] + (k,) + word[j:], s


def canonical_sum(base, terms: Iterable) -> Vector:
    """Sum of (keys, coeff) terms as canonical words: each key tuple is sorted
    with its Koszul sign, and a tuple repeating an odd key drops out.  This is
    also the projection of a tensor (a Vector on key tuples) to S(base)."""
    return Vector((cw[0], coeff * cw[1]) for keys, coeff in terms
                  if (cw := canonical_word(base, keys)) is not None)


def _word_unshuffles(word: SymWord, degs: tuple, i: int):
    """`unshuffles` of ``word`` (letter degrees ``degs``) read off its letters:
    (left, right, sign) with left and right sub-words.  Combinations of the
    letters run in the order of those of the positions."""
    rights = list(combinations(word, len(word) - i)) if i <= len(word) else []
    rights.reverse()
    for left, right, (_, _, s) in zip(combinations(word, i), rights, unshuffles(degs, i)):
        yield left, right, s


def words_over(base, keys, max_weight: int, min_weight: int = 0) -> Iterator[SymWord]:
    """The one multiset enumerator: canonical words with letters from a key
    subset, yielded in increasing weight from min_weight to max_weight and
    lexicographic within a weight (scopes, samples and witnesses rely on this
    order), multisets of the sorted keys in which no odd letter repeats."""
    keys, odd_pairs = sorted(keys), {(k, k) for k in keys if base.degree(k) % 2}
    return (w for n in range(min_weight, max_weight + 1)
            for w in combinations_with_replacement(keys, n)
            if odd_pairs.isdisjoint(zip(w, w[1:])))


def multisets_by_weight(A: CommAlgebra, keys, m: int) -> Iterator:
    """The arity-m multisets of the distinct ``keys`` of A as ``report.scan``
    levels: an empty level m, where the arity starts, then each key tuple at its
    total ``A.weight``, or at m where units weigh less; ``words_over`` the key
    positions, lexicographic in key order, without those repeating an odd key."""
    corpus = tuple(dict.fromkeys(keys))
    weights = tuple(map(A.weight, corpus))
    positions = GradedBasis(tuple(map(str, range(len(corpus)))), tuple(map(A.space.degree, corpus)))
    yield m, ()
    for word in words_over(positions, positions.keys(), m, min_weight=m):
        yield max(m, sum(map(weights.__getitem__, word))), (tuple(map(corpus.__getitem__, word)),)


class SymSpace(CommAlgebra):
    """Weight-truncated symmetric power space: canonical words of weight <= W over
    ``base``.  With the unshuffle coproduct it is the cofree coalgebra, and
    with the symmetric product (``mul_keys``, which raises Overflow past W) the
    truncated free algebra; the empty word is the unit and the counit's dual.
    Its order-check keys are the letters."""

    unit_key: SymWord = ()

    def __init__(self, base, weight_bound: int):
        self.base = base
        self.weight_bound = weight_bound
        self._keys: tuple[SymWord, ...] | None = None

    @property
    def space(self) -> "SymSpace":
        return self

    def __eq__(self, other):
        return (isinstance(other, SymSpace) and self.base == other.base
                and self.weight_bound == other.weight_bound)

    def __hash__(self):
        return hash(("SymSpace", self.weight_bound, _space_token(self.base)))

    def degree(self, word: SymWord) -> int:
        return sum(self.base.degree(k) for k in word)

    def weight(self, word: SymWord) -> int:
        return len(word)

    def keys(self) -> tuple[SymWord, ...]:
        if self._keys is None:
            self._keys = tuple(words_over(self.base, self.base.keys(), self.weight_bound))
        return self._keys

    def reduced_keys(self) -> tuple[SymWord, ...]:
        return tuple(w for w in self.keys() if w)

    def words_of_weight(self, n: int) -> tuple[SymWord, ...]:
        return self.keys_by_weight()[n] if 0 <= n <= self.weight_bound else ()

    def order_check_keys(self):
        return self.words_of_weight(1)

    # -- coproduct -------------------------------------------------------------
    def coproduct(self, word: SymWord) -> Iterator[tuple[SymWord, SymWord, int]]:
        """Unshuffle coproduct: all splittings (left, right, Koszul sign),
        yielded one by one and stored nowhere."""
        degs = tuple(map(self.base.degree, word))
        for i in range(len(word) + 1):
            yield from _word_unshuffles(word, degs, i)

    def reduced_coproduct(self, word: SymWord) -> Iterator[tuple[SymWord, SymWord, int]]:
        return (t for t in self.coproduct(word) if t[0] and t[1])

    # -- product ---------------------------------------------------------------
    def product_words(self, w1: SymWord, w2: SymWord) -> tuple[SymWord, int] | None:
        if len(w1) + len(w2) > self.weight_bound:
            raise Overflow(f"word weight {len(w1) + len(w2)} exceeds bound {self.weight_bound}")
        return canonical_word(self.base, w1 + w2)

    def mul_keys(self, w1: SymWord, w2: SymWord) -> Iterable:
        cw = self.product_words(w1, w2)
        return () if cw is None else (cw,)


def _space_token(base) -> object:
    # stable identity token for hashing spaces built over bases or other spaces
    return base if base.__hash__ else id(base)


def insert_factors(base, factors, word: SymWord) -> list:
    """The symmetric product f_1 ... f_m o ``word`` of weight-1 vectors with a
    canonical word as (word, coefficient) terms, equal words not merged: the
    letters of f_m, then f_(m-1), ..., go into the canonical word built so far
    (``insert_letter``); a term repeating an odd letter drops out."""
    terms = [(word, ONE)]
    for f in reversed(factors):
        terms = [(cw[0], a * c if cw[1] > 0 else -a * c) for k, a in f.items() for w, c in terms
                 if (cw := insert_letter(base, k, w)) is not None]
    return terms


def assemble_word(base, factors: list[Vector], bound: int) -> Vector:
    """Symmetric product of weight-1 vectors: canonical weight-k words with signs."""
    if len(factors) > bound:
        raise Overflow(f"assembled word weight {len(factors)} exceeds bound {bound}")
    return Vector(insert_factors(base, factors, ()))


def _table_fn(tables: dict[int, dict[SymWord, Vector]]) -> Callable[[int, SymWord], Vector]:
    """Component function read off tables {n: {word: value}}, zero where absent."""
    return lambda n, word: tables.get(n, {}).get(word, Vector.zero())


def _linear_fn(f: LinOp) -> Callable[[int, SymWord], Vector]:
    """Component function of the linear extension of f: f on letters, zero above."""
    return lambda n, word: f.on_key(word[0]) if n == 1 else Vector.zero()


def _corestriction(v: Vector) -> Vector:
    """The weight-one part of a vector on words, as a vector over the base: the
    corestriction of a word-level map is this part of its image of a word."""
    return Vector((w[0], c) for w, c in v.items() if len(w) == 1)


class _TaylorData:
    """Taylor coefficients of a coalgebra morphism or coderivation of S(V).

    ``component_fn(n, word)`` gives the coefficient of arity n >= 1 on a
    canonical word over ``base`` (the domain base); it is cached per word, a
    zero coefficient as the shared ``Vector.zero()``, and so is its refusal: a
    word whose coefficient raised Overflow raises it again without being
    evaluated.
    ``q0`` is the coefficient on the empty word: the constant term of a
    coderivation, zero for a morphism.  ``exact_beyond`` asserts that every
    coefficient above ``arity_bound`` vanishes (as opposed to merely unknown).
    """

    def __init__(self, base, component_fn: Callable[[int, SymWord], Vector], arity_bound: int,
                 exact_beyond: bool, label: str, q0: Vector):
        self.base = base
        self._fn = component_fn
        self._cache: dict = {}
        self.arity_bound = arity_bound
        self.exact_beyond = exact_beyond
        self.label = label
        self.q0 = q0

    def component(self, n: int, word: SymWord) -> Vector:
        if n != len(word):
            raise ValueError("arity/word mismatch")
        if n == 0:
            return self.q0
        if n > self.arity_bound:
            if self.exact_beyond:
                return Vector.zero()
            raise Overflow(f"Taylor coefficient of arity {n} beyond arity bound {self.arity_bound}")
        v = self._cache.get(word)
        if v is None:
            try:
                v = self._fn(n, word) or Vector.zero()
            except Overflow as exc:
                v = str(exc)  # not exc: its traceback would keep the frames alive
            self._cache[word] = v
        if isinstance(v, str):
            raise Overflow(v)
        return v

    def eval_keys(self, keys: tuple) -> Vector:
        """The coefficient on any tuple of keys: the canonical word's, with the
        Koszul sign of sorting (zero if an odd key repeats).  Its caller is
        the coderivation ``bracket``; a diagonal reads ``diagonal_polynomial``."""
        cw = canonical_word(self.base, keys)
        if cw is None:
            return Vector.zero()
        word, s = cw
        return self.component(len(word), word).scale(s)

    def diagonal_polynomial(self, keys, min_arity: int, max_arity: int) -> list:
        """sum_n t_n(x, ..., x)/n! for min_arity <= n <= max_arity as a
        polynomial in the coefficients c_k of x on the given keys, formed once
        and evaluated per x by ``evaluate_polynomial``.  A canonical word M
        of weight n over the keys, with letter multiplicities m_k, gives a term
        (j, a/prod m_k!, ((k, m_k), ...)) per key j with coefficient a in
        t_n(M), as the multilinear extension on n copies of x reads M
        n!/prod m_k! times.  Every ordering of a word with at most one odd
        letter sorts with sign +1, and the orderings of a word with two or more
        odd letters cancel in pairs (swap two of them), so it drops out."""
        odd = {k for k in keys if self.base.degree(k) % 2}
        terms = []
        for word in words_over(self.base, keys, max_arity, min_weight=min_arity):
            if len(odd.intersection(word)) > 1:
                continue
            powers = tuple((k, sum(1 for _ in run)) for k, run in groupby(word))
            d = prod(factorial(m) for _, m in powers)
            terms.extend((j, Q(a, d), powers) for j, a in self.component(len(word), word).items())
        return terms

    @staticmethod
    def evaluate_polynomial(terms: list, x: Vector) -> Vector:
        """A polynomial of ``diagonal_polynomial`` at x: the sum of its terms
        a * prod c_k^{m_k} j, zero for a letter k outside the support of x."""
        coeffs = dict(x.items())
        out = []
        for j, a, powers in terms:
            for k, m in powers:
                c = coeffs.get(k)
                if c is None:
                    break
                a *= c ** m
            else:
                out.append((j, a))
        return Vector(out)


class TaylorMorphism(_TaylorData):
    """Degree-0 coalgebra-morphism data: graded-symmetric tables f_n : V^{on} -> W,
    with ``cod_base`` the base of W and no constant term."""

    def __init__(self, dom_base, cod_base, component_fn: Callable[[int, SymWord], Vector],
                 arity_bound: int, exact_beyond: bool = True, label: str = ""):
        super().__init__(dom_base, component_fn, arity_bound, exact_beyond, label, Vector.zero())
        self.cod_base = cod_base

    @staticmethod
    def from_tables(dom_base, cod_base, tables: dict[int, dict[SymWord, Vector]],
                    arity_bound: int, label: str = "") -> "TaylorMorphism":
        return TaylorMorphism(dom_base, cod_base, _table_fn(tables), arity_bound, True, label)

    @staticmethod
    def from_linear(f: LinOp) -> "TaylorMorphism":
        """S(f): the coalgebra morphism with f_1 = f and no higher coefficients."""
        return TaylorMorphism(f.domain, f.codomain, _linear_fn(f), 1, True, f"S({f.label})")

    def apply_word(self, word: SymWord, cod_bound: int) -> Vector:
        """The morphism on a canonical word, by the set-partition formula: the
        sum over set partitions of the word of the symmetric product of the
        coefficients on the blocks, with the Koszul sign of the partition.  A
        zero coefficient prunes every partition that contains its block (see
        `set_partitions`).  A block beyond the arity bound of non-exact data
        raises Overflow."""
        def factor(block):
            return self.component(len(block), tuple(map(word.__getitem__, block))) or None

        out = Vector()
        for factors, sign in set_partitions(tuple(map(self.base.degree, word)), factor):
            out.add_scaled(assemble_word(self.cod_base, factors, cod_bound), sign)
        return out

    def as_map(self, dom_space: SymSpace, cod_space: SymSpace) -> LinOp:
        if dom_space.base != self.base or cod_space.base != self.cod_base:
            raise ValueError("space/base mismatch")
        return LinOp(dom_space, cod_space, 0,
                     lambda w: self.apply_word(w, cod_space.weight_bound),
                     self.label or "F")

    def compose(self, inner: "TaylorMorphism") -> "TaylorMorphism":
        """Taylor coefficients of self o inner, computed through weight-n words,
        up to the smaller of the two arity bounds."""
        if self.base != inner.cod_base:
            raise ValueError("composition base mismatch")

        def fn(n, word):
            out = Vector()
            for w, c in inner.apply_word(word, n).items():
                out.add_scaled(self.component(len(w), w), c)
            return out

        return TaylorMorphism(inner.base, self.cod_base, fn,
                              min(self.arity_bound, inner.arity_bound),
                              self.exact_beyond and inner.exact_beyond,
                              f"({self.label})o({inner.label})")


class TaylorCoderivation(_TaylorData):
    """Coderivation data: tables q_n : V^{on} -> V (n >= 1) plus constant term q0 in V."""

    def __init__(self, base, component_fn: Callable[[int, SymWord], Vector], arity_bound: int,
                 degree: int, q0: Vector | None = None, exact_beyond: bool = True, label: str = ""):
        super().__init__(base, component_fn, arity_bound, exact_beyond, label,
                         q0 if q0 is not None else Vector.zero())
        self.degree = degree

    @staticmethod
    def from_tables(base, tables: dict[int, dict[SymWord, Vector]], arity_bound: int, degree: int,
                    label: str = "") -> "TaylorCoderivation":
        return TaylorCoderivation(base, _table_fn(tables), arity_bound, degree, label=label)

    @staticmethod
    def from_linear(d: LinOp) -> "TaylorCoderivation":
        """The linear coderivation extending d (no constant or higher terms)."""
        return TaylorCoderivation(d.domain, _linear_fn(d), 1, d.degree, label=f"~{d.label}")

    def apply_word(self, word: SymWord, bound: int) -> Vector:
        """The coderivation on a canonical word, by the unshuffle formula: the
        sum over (i, n-i)-unshuffles of q_i(block) o rest, i = 0 giving
        q0 o word (skipped when q0 is zero).  ``rest`` is canonical, so each
        output letter is inserted into it (``insert_letter``) rather than the
        whole word re-sorted."""
        n = len(word)
        if self.q0 and n + 1 > bound:
            raise Overflow(f"coderivation output weight {n + 1} exceeds bound {bound}")
        base = self.base
        degs = tuple(map(base.degree, word))
        top = min(n, self.arity_bound) if self.exact_beyond else n

        def terms():
            for i in range(0 if self.q0 else 1, top + 1):
                for left, rest, s in _word_unshuffles(word, degs, i):
                    qv = self.component(i, left)
                    if qv:
                        for k, c in qv.items():
                            if (cw := insert_letter(base, k, rest)) is not None:
                                yield cw[0], c * (s * cw[1])

        return Vector(terms())

    def as_map(self, space: SymSpace) -> LinOp:
        return LinOp(space, space, self.degree,
                     lambda w: self.apply_word(w, space.weight_bound), self.label or "Q")

    def bracket(self, other: "TaylorCoderivation") -> "TaylorCoderivation":
        """Componentwise coderivation bracket [q, r]: on a word, q on the tensor
        (r (x) id) Delta(word) of ``tensor_coproduct`` (r.q0 on the empty
        split), minus the same with q and r exchanged; the constant term is
        that on the empty word."""
        if not (self.exact_beyond and other.exact_beyond):
            raise Overflow("bracket needs exact arity data")
        q, r = self, other
        sign = -1 if (q.degree % 2) and (r.degree % 2) else 1
        arity_bound = q.arity_bound + r.arity_bound - 1
        space = SymSpace(q.base, arity_bound)

        def after(a, b, word):
            # a on (b (x) id) Delta(word): b's output letter, then the rest
            tensor = tensor_coproduct(space, lambda w: b.component(len(w), w), Vector.basis, 0,
                                      Vector.basis(word))
            out = Vector()
            for (k, rest), c in tensor.items():
                out.add_scaled(a.eval_keys((k,) + rest), c)
            return out

        def fn(word):
            return after(q, r, word) - after(r, q, word).scale(sign)

        return TaylorCoderivation(q.base, lambda n, word: fn(word), arity_bound,
                                  q.degree + r.degree, fn(()), True, f"[{q.label},{r.label}]")


def taylor_morphism_from_map(F: LinOp, arity_bound: int, label: str = "") -> TaylorMorphism:
    """Corestriction: extract Taylor coefficients of a word-level map (weight-1 parts)."""
    return TaylorMorphism(F.domain.base, F.codomain.base,
                          lambda n, word: _corestriction(F.on_key(word)),
                          arity_bound, False, label or F.label)


def taylor_coderivation_from_map(Qm: LinOp, arity_bound: int, exact_beyond: bool = False,
                                 label: str = "") -> TaylorCoderivation:
    """Corestriction of a word-level coderivation, its constant term included."""
    return TaylorCoderivation(Qm.domain.base, lambda n, word: _corestriction(Qm.on_key(word)),
                              arity_bound, Qm.degree, _corestriction(Qm.on_key(())), exact_beyond,
                              label or Qm.label)


def hat_extension(space: SymSpace, arity: int, table_fn: Callable[[SymWord], Vector],
                  degree: int, label: str = "") -> LinOp:
    """One-block extension of a map U^{o arity} -> S(U) to all of S(U):
    sum over (arity, k-arity)-unshuffles of table(block) o rest."""
    base = space.base

    def fn(word):
        out = Vector()
        for block, rest, s in _word_unshuffles(word, tuple(map(base.degree, word)), arity):
            val = table_fn(block)
            if val.is_zero():
                continue
            out.add_scaled(space.mul(val, Vector.basis(rest)), s)
        return out

    return LinOp(space, space, degree, fn, label or "hat")


# -- convolutionalgebra ---------------------------------------------------------


def counit_map(dom_space: SymSpace, alg: CommAlgebra) -> LinOp:
    """The star-unit: sends the empty word to the unit of ``alg``, reduced words to 0."""
    unit = alg.unit()
    return LinOp(dom_space, alg.space, 0, lambda w: Vector.zero() if w else unit, "eps")


def convolution(F: LinOp, G: LinOp, alg: CommAlgebra) -> LinOp:
    """Convolution product F * G = mul o (F (x) G) o Delta: on a word, the
    products ``alg.mul_keys`` of the key pairs of its tensor from
    ``tensor_coproduct``, whose sign carries G past each left factor."""
    dom: SymSpace = F.domain
    if G.domain != dom:
        raise ValueError("convolution factors need the same domain")
    mul_keys = alg.mul_keys

    def fn(word):
        tensor = tensor_coproduct(dom, F.on_key, G.on_key, G.degree, Vector.basis(word))
        return Vector([(k, c * x) for (k1, k2), c in tensor.items() for k, x in mul_keys(k1, k2)])

    return LinOp(dom, F.codomain, F.degree + G.degree, fn, f"({F.label})*({G.label})")


def antipode(space: SymSpace) -> LinOp:
    """Hopf antipode of S(V): x_1 o...o x_k -> (-1)^k x_1 o...o x_k."""
    return LinOp(space, space, 0,
                 lambda w: Vector.basis(w, -ONE if len(w) % 2 else ONE), "s")


def _star_series(G: LinOp, coeff: Callable[[int], object], alg: CommAlgebra, label: str) -> LinOp:
    """sum_k coeff(k) G^{*k} over cached convolution powers in ``alg``, G^{*0}
    the star-unit eps; G(1) = 0, so on a word of weight n only k <= n
    contribute, and eps is evaluated on the empty word only."""
    dom: SymSpace = G.domain
    powers: list[LinOp] = [counit_map(dom, alg), G]

    def fn(word):
        n = len(word)
        while len(powers) <= n:
            powers.append(convolution(powers[-1], G, alg))
        out = Vector()
        for k in range(1, n + 1) if n else (0,):
            out.add_scaled(powers[k].on_key(word), coeff(k))
        return out

    return LinOp(dom, G.codomain, G.degree, fn, label)


def star_exp(phi: LinOp, alg: CommAlgebra) -> LinOp:
    """exp_*(phi) = eps + sum 1/k! phi^{*k} in the convolution algebra with values
    in ``alg``; requires phi(1) = 0 (finite on each word)."""
    if not phi.on_key(()).is_zero():
        raise ValueError("star_exp needs phi(1) = 0")
    return _star_series(phi, lambda k: Q(1, factorial(k)), alg, f"exp*({phi.label})")


def star_log(F: LinOp, alg: CommAlgebra) -> LinOp:
    """log_*(F) = sum (-1)^{k-1}/k (F - eps)^{*k} in the convolution algebra with
    values in ``alg``; requires F(1) = the unit of ``alg``.  F - eps is F on
    reduced words and zero on the empty word."""
    if F.on_key(()) != alg.unit():
        raise ValueError("star_log needs F(1) = 1")
    G = LinOp(F.domain, F.codomain, F.degree, lambda w: F.on_key(w) if w else Vector.zero(),
              f"{F.label}-eps")
    return _star_series(G, lambda k: Q(1 if k % 2 else -1, k) if k else 0, alg,
                        f"log*({F.label})")


# -- morphism / coderivation certification ---------------------------------------


def tensor_coproduct(coalg, left: Callable, right: Callable, right_degree: int,
                     v: Vector) -> Vector:
    """(left (x) right) o Delta applied to v, as a tensor on pairs of keys.
    ``left`` and ``right`` map keys to vectors (``Vector.basis`` for the
    identity), and right, of degree ``right_degree``, passes each left factor
    with its Koszul sign.  The one tensor coproduct: convolution, the
    coderivation bracket and the coalgebra checks all read it."""
    terms = []
    for key, c in v.items():
        for l, r, s in coalg.coproduct(key):
            lv = left(l)
            if lv:
                sgn = -c * s if right_degree % 2 and coalg.degree(l) % 2 else c * s
                rv = right(r)
                terms += [((k1, k2), sgn * c1 * c2) for k1, c1 in lv.items() for k2, c2 in rv.items()]
    return Vector(terms)


def coalgebra_morphism_defect(F: LinOp, words=None):
    """First word where Delta o F != (F (x) F) o Delta, or None (F degree 0)."""
    dom: SymSpace = F.domain
    for w in (dom.keys() if words is None else words):
        if (tensor_coproduct(F.codomain, Vector.basis, Vector.basis, 0, F.on_key(w))
                != tensor_coproduct(dom, F.on_key, F.on_key, 0, Vector.basis(w))):
            return w
    return None


def coderivation_defect(Qm: LinOp, words=None):
    """First word where Delta o Q != (Q (x) id + id (x) Q) o Delta, or None."""
    space: SymSpace = Qm.domain
    for w in (space.keys() if words is None else words):
        v = Vector.basis(w)
        if (tensor_coproduct(space, Vector.basis, Vector.basis, 0, Qm.on_key(w))
                != tensor_coproduct(space, Qm.on_key, Vector.basis, 0, v)
                + tensor_coproduct(space, Vector.basis, Qm.on_key, Qm.degree, v)):
            return w
    return None


# -- cocumulants and Koszul cobrackets --------------------------------------------


@dataclass
class FiniteCoalgebra:
    """Explicit finite-dimensional cocommutative counital coaugmented coalgebra.

    ``cop`` lists the full coproduct of every basis key as (left, right, coeff)
    triples; the designated ``unit_key`` is grouplike and spans the coaugmentation.
    """

    basis: object
    cop: dict
    unit_key: object

    def __post_init__(self):
        self.cop = {k: tuple((l, r, Q(c)) for l, r, c in terms) for k, terms in self.cop.items()}
        self.verify()

    def keys(self):
        return self.basis.keys()

    def reduced_keys(self):
        return tuple(k for k in self.basis.keys() if k != self.unit_key)

    def degree(self, key):
        return self.basis.degree(key)

    def coproduct(self, key):
        return self.cop.get(key, ())

    def reduced_coproduct(self, key):
        """Reduced coproduct on the complement of the coaugmentation."""
        if key == self.unit_key:
            return ()
        u = self.unit_key
        acc = Vector([((l, r), c) for l, r, c in self.coproduct(key)] + [((u, key), -1), ((key, u), -1)])
        return tuple((l, r, c) for (l, r), c in acc.items())

    def verify(self):
        if self.basis.degree(self.unit_key) != 0:
            raise ValueError("coaugmentation must have degree 0")
        u = self.unit_key
        if Vector(((l, r), c) for l, r, c in self.coproduct(u)) != Vector.basis((u, u)):
            raise ValueError("unit key must be grouplike")
        for k in self.keys():
            # counit axiom: (eps (x) id) Delta = id = (id (x) eps) Delta
            left = Vector([(r, c) for l, r, c in self.coproduct(k) if l == u])
            right = Vector([(l, c) for l, r, c in self.coproduct(k) if r == u])
            if left != Vector.basis(k) or right != Vector.basis(k):
                raise ValueError(f"counit axiom fails on {k}")
            cop = self.coproduct(k)
            # cocommutativity
            flipped = Vector(((r, l), -c if (self.degree(l) % 2 and self.degree(r) % 2) else c)
                             for l, r, c in cop)
            if Vector(((l, r), c) for l, r, c in cop) != flipped:
                raise ValueError(f"coproduct not cocommutative on {k}")
            # coassociativity
            left = Vector(((l2, r2, r), c * c2) for l, r, c in cop for l2, r2, c2 in self.coproduct(l))
            right = Vector(((l, l2, r2), c * c2) for l, r, c in cop for l2, r2, c2 in self.coproduct(r))
            if left != right:
                raise ValueError(f"coproduct not coassociative on {k}")
        # cocompleteness: iterated reduced coproducts vanish
        for k in self.reduced_keys():
            layer = Vector.basis((k,))
            for _ in range(len(list(self.keys())) + 1):
                if not layer:
                    break
                layer = Vector((word[:-1] + (l, r), c * c2) for word, c in layer.items()
                               for l, r, c2 in self.reduced_coproduct(word[-1]))
            if layer:
                raise ValueError(f"coalgebra not cocomplete at {k}")


def _last_slot_coproduct(D, tensor: Vector) -> list:
    """(id^{m-2} (x) Delta_D) on the last slot of a tensor, as (key tuple, coeff) terms."""
    return [(tup[:-1] + (l, r), c * s) for tup, c in tensor.items()
            for l, r, s in D.reduced_coproduct(tup[-1])]


def cocumulant_tilde(C, D, f: LinOp, n: int) -> Callable:
    """Tensor-valued cocumulant recursion (reduced coproducts) of a degree-0 map;
    returns key -> tensor."""
    memo: dict = {}

    def kt(m: int, key) -> Vector:
        got = memo.get((m, key))
        if got is not None:
            return got
        if m == 1:
            out = Vector(((k,), c) for k, c in f.on_key(key).items())
        else:
            terms = _last_slot_coproduct(D, kt(m - 1, key))
            splits = tuple(C.reduced_coproduct(key))
            # subtract shuffled products of lower cocumulants
            for k in range(m - 1):
                # tau_k moves slot k (the last output of a) to position m-2; then
                # the first k slots shuffle with the next m-2-k, the last two
                # fixed (positions[p] is the slot placed at p, the inverse of the
                # unshuffle).  order[p] is the slot of a + b placed at p by both;
                # the unshuffles are of positions only, their signs unused.
                perm = list(range(m))
                perm.insert(m - 2, perm.pop(k))
                orders = [tuple(perm[p] for p in map((L + R).index, range(m - 2)))
                          + tuple(perm[m - 2:]) for L, R, _ in unshuffles((0,) * (m - 2), k)]
                for l, r, s in splits:
                    a = kt(k + 1, l)
                    if not a:
                        continue
                    b = kt(m - 1 - k, r)
                    if not b:
                        continue
                    for ta, ca in a.items():
                        for tb, cb in b.items():
                            tup = ta + tb  # m slots total
                            degs = tuple(map(D.degree, tup))
                            for order in orders:
                                terms.append((tuple(tup[p] for p in order),
                                              -s * ca * cb * koszul_sign(order, degs)))
            out = Vector(terms)
        memo[(m, key)] = out
        return out

    return lambda key: kt(n, key)


def _projected(base, kt: Callable, n: int) -> Callable:
    """key -> (1/n!) pi kt(key): the natural projection of a tensor recursion to S(base)."""
    return lambda key: canonical_sum(base, kt(key).items()).scale(Q(1, factorial(n)))


def cocumulants_cofree(C, D, f: LinOp, n: int) -> Callable:
    """kappa^co(f)_n = (1/n!) pi ktilde_n; zero for all n >= 2 iff f is a coalgebra morphism."""
    return _projected(D, cocumulant_tilde(C, D, f, n), n)


def koszul_cobracket_tilde(C, delta: LinOp, n: int) -> Callable:
    """Tensor-valued Koszul cobracket recursion (reduced coproducts)."""
    memo: dict = {}

    def kt(m: int, key) -> Vector:
        got = memo.get((m, key))
        if got is not None:
            return got
        if m == 1:
            out = Vector(((k,), c) for k, c in delta.on_key(key).items())
        else:
            terms = _last_slot_coproduct(C, kt(m - 1, key))
            perm = tuple(range(m - 2)) + (m - 1, m - 2)
            for l, r, s in C.reduced_coproduct(key):
                for ta, ca in kt(m - 1, l).items():
                    tup = ta + (r,)
                    s1 = koszul_sign(perm, tuple(C.degree(x) for x in tup))
                    terms += [(tup, -s * ca), (tuple(tup[p] for p in perm), -s * ca * s1)]
            out = Vector(terms)
        memo[(m, key)] = out
        return out

    return lambda key: kt(n, key)


def koszul_cobrackets_cofree(C, delta: LinOp, n: int) -> Callable:
    """K^co(delta)_n = (1/n!) pi Ktilde_n; zero for all n >= 2 iff delta is a coderivation."""
    return _projected(C, koszul_cobracket_tilde(C, delta, n), n)
