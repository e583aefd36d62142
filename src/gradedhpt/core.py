"""Exact graded linear algebra: bases, sparse vectors, homogeneous maps, Koszul signs.

Everything downstream (symmetric coalgebras, cumulants, perturbation theory)
is built on the three primitives defined here: `koszul_sign`, the two-block
`unshuffles` with their running Koszul sign, and the `Vector`/`LinOp` pair.
`set_partitions` builds each partition block by block through `unshuffles`
and prunes at a block whose factor is None.  Both enumerate on demand and keep
no table between calls.  `expand_multilinear` is the one multilinear
extension: a family given by a kernel on tuples of basis keys, on vectors.
`CommAlgebra` is the one algebra interface, with the one key-level product
``mul_keys``: the explicit and monomial algebras of ``commalg``, the
truncated t-quotients of ``tseries`` and ``symcoalg.SymSpace`` (the
truncated free algebra S(V), which is also the cofree coalgebra) implement
it.

Scalars are exact and int-first: `Q` returns an ``int`` when a value is
integral and a `fractions.Fraction` otherwise, and it raises `TypeError` on a
float, so no float ever enters any computation.  Every scalar that enters a
`Vector` or a scaling passes through `Q`; sums and products of stored
coefficients stay ``int`` or ``Fraction`` by closure.  The coefficients, signs
and factorials of the paper's formulas are integers, so almost all arithmetic
here is on ints.  A scalar handed out to a caller (`Vector.__getitem__`) is a
``Fraction``, so that a caller's own ``/`` stays exact.

`Vector` owns its coefficient dict: no other code reads or writes it, and
coefficients are summed in two places only, ``Vector(terms)`` for
``(key, scalar)`` terms and ``Vector.add_scaled`` for a scaled vector.  A
tensor is a Vector too, keyed by tuples of keys.  ``Vector.zero()`` is one
shared, read-only vector, and every cache stores it for an empty image.  A
`LinOp` sum shares a summand's cached image where the other is zero, so a
cached image may sit in several caches at once: no code writes into one.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from math import factorial
from types import MappingProxyType


def Q(value, denominator=None) -> int | Fraction:
    """The exact scalar ``value`` (or ``value / denominator``): an ``int`` when
    it is integral, a ``Fraction`` otherwise.  A float raises TypeError."""
    if denominator is None:
        if type(value) is int:
            return value
        if type(value) is not Fraction:
            if isinstance(value, float):
                raise TypeError(f"float scalar {value!r}: exact arithmetic only")
            value = Fraction(value)
    else:
        value = Fraction(value, denominator)
    return value.numerator if value.denominator == 1 else value


ZERO = 0
ONE = 1


class Overflow(Exception):
    """A result would leave the guarded regime (weight/word-length bound).

    Raised instead of silently truncating, so every reported identity is exact.
    """


class ConvergenceFault(Exception):
    """A perturbation series did not terminate within its certificate."""


class RouteDisagreement(Exception):
    """Two independent computation routes produced different exact answers."""


def koszul_sign(perm: tuple[int, ...], degrees: tuple[int, ...] | list[int]) -> int:
    """Sign of rearranging homogeneous symbols ``x_0..x_{n-1}`` into ``x_perm[0]..x_perm[n-1]``.

    Each inversion of two odd-degree symbols contributes a factor -1.
    """
    if len(perm) != len(degrees):
        raise ValueError(f"permutation length {len(perm)} != degrees length {len(degrees)}")
    odd = [p for p in perm if degrees[p] % 2]
    s = 1
    for i in range(len(odd)):
        for j in range(i + 1, len(odd)):
            if odd[i] > odd[j]:
                s = -s
    return s


def unshuffles(degrees, i: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """(left, right, sign) for each (i, n-i)-unshuffle of the positions 0..n-1,
    n = len(degrees): left runs through ``combinations(range(n), i)`` in order,
    right holds the other positions ascending (the (n-i)-combinations in
    reverse order are these complements), and sign is the Koszul sign of
    placing left before right.  The sign is a running count, one pass over
    left: each odd left position flips it once for every odd right position
    before it, the odd positions before it less the odd left ones."""
    odd = [d % 2 for d in degrees]
    odd_before = list(accumulate(odd, initial=0))
    positions = range(len(odd))
    rights = list(combinations(positions, len(odd) - i)) if i <= len(odd) else []
    rights.reverse()
    for left, right in zip(combinations(positions, i), rights):
        flips = t = 0
        for p in left:
            if odd[p]:
                flips += odd_before[p] - t
                t += 1
        yield left, right, -1 if flips % 2 else 1


def set_partitions(degrees, factor: Callable[[tuple[int, ...]], object]) -> Iterator[tuple[tuple, int]]:
    """(factors, sign) for each set partition of the positions 0..n-1 into
    blocks ordered by their least position, n = len(degrees): factors holds
    ``factor(block)`` for each block and sign is the Koszul sign of placing
    the blocks one after another.  A partition is built block by block, each
    the first remaining position together with a subset of the rest, split
    off by `unshuffles` with its sign; a factor of None prunes every partition
    that contains its block, so no block after it is evaluated."""
    stack = [(tuple(range(len(degrees))), (), 1)]
    while stack:
        rest, factors, sign = stack.pop()
        if not rest:
            yield factors, sign
            continue
        first, tail = rest[0], rest[1:]
        tail_degrees = [degrees[p] for p in tail]
        for i in range(len(tail) + 1):
            for left, right, s in unshuffles(tail_degrees, i):
                value = factor((first,) + tuple(map(tail.__getitem__, left)))
                if value is not None:
                    stack.append((tuple(map(tail.__getitem__, right)), factors + (value,), sign * s))


class Vector:
    """Sparse exact vector: mapping basis-key -> nonzero scalar.

    A stored coefficient is an ``int`` or a ``Fraction`` (see `Q`), never a
    float; an integral value may be stored either way and compares and hashes
    equal.  ``v[key]`` hands the coefficient out as a ``Fraction``.

    The dict ``c`` is private to this class.  The two accumulate entry points
    are ``Vector(terms)``, which sums ``(key, scalar)`` terms with repeated
    keys, and ``add_scaled``, which adds a scaled vector in place; every other
    operation returns a new vector.  Callers read through ``items()``,
    ``keys()`` and ``v[key]``.

    ``Vector.zero()`` is the library's one zero: a single shared vector whose
    ``c`` is a read-only mapping, so a write to it raises TypeError instead of
    changing every image that shares it.  An accumulator starts from
    ``Vector()``.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping | Iterable | None = None):
        c: dict = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
            for k, v in items:
                if type(v) is not int:
                    v = Q(v)
                if v:
                    w = c.get(k)
                    if w is None:
                        c[k] = v
                    else:
                        w += v
                        if w:
                            c[k] = w
                        else:
                            del c[k]
        self.c = c

    @staticmethod
    def basis(key, coeff=ONE) -> "Vector":
        v = Vector()
        coeff = Q(coeff)
        if coeff:
            v.c[key] = coeff
        return v

    @staticmethod
    def zero() -> "Vector":
        """The shared, read-only zero vector (not an accumulator)."""
        return _ZERO

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self) -> bool:
        return bool(self.c)

    def add_scaled(self, other: "Vector", a=ONE) -> "Vector":
        """self += a * other, in place; returns self.  Call it only on a vector
        the caller created: ``LinOp.on_key`` hands out cached, shared vectors,
        and on ``Vector.zero()`` it raises TypeError."""
        if type(a) is not int:
            a = Q(a)
        if not a:
            return self
        c = self.c
        scaled = a != 1
        # a snapshot when other is self: the loop writes to the dict it reads
        for k, v in (tuple(c.items()) if other is self else other.c.items()):
            if scaled:
                v = a * v
            w = c.get(k)
            if w is None:
                c[k] = v
            else:
                w += v
                if w:
                    c[k] = w
                else:
                    del c[k]
        return self

    def _copy(self) -> "Vector":
        r = Vector()
        r.c = dict(self.c)
        return r

    def __add__(self, other: "Vector") -> "Vector":
        return self._copy().add_scaled(other)

    def __sub__(self, other: "Vector") -> "Vector":
        return self._copy().add_scaled(other, -1)

    def __neg__(self) -> "Vector":
        r = Vector()
        r.c = {k: -v for k, v in self.c.items()}
        return r

    def scale(self, a) -> "Vector":
        a = Q(a)
        r = Vector()
        if a:
            r.c = {k: a * v for k, v in self.c.items()}
        return r

    __rmul__ = scale
    __mul__ = scale

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def items(self):
        return self.c.items()

    def keys(self):
        return self.c.keys()

    def __getitem__(self, key) -> Fraction:
        return Fraction(self.c.get(key, ZERO))

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        return " + ".join(f"({v})*{k}" for k, v in sorted(self.c.items(), key=lambda t: repr(t[0])))


_ZERO = Vector()
_ZERO.c = MappingProxyType({})


@dataclass(frozen=True)
class GradedBasis:
    """Finite ordered basis of a graded space; index order is the canonical order."""

    symbols: tuple[str, ...]
    degrees: tuple[int, ...]

    def __post_init__(self):
        if len(self.symbols) != len(self.degrees):
            raise ValueError("symbols/degrees length mismatch")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate basis symbols")

    @staticmethod
    def make(entries: Iterable[tuple[str, int]]) -> "GradedBasis":
        entries = list(entries)
        return GradedBasis(tuple(s for s, _ in entries), tuple(int(d) for _, d in entries))

    def __len__(self) -> int:
        return len(self.symbols)

    def keys(self) -> range:
        return range(len(self.symbols))

    def degree(self, key: int) -> int:
        return self.degrees[key]

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise KeyError(f"unknown basis symbol {symbol!r}") from None


@dataclass(frozen=True)
class ShiftedSpace:
    """Same keys as ``base``, degrees shifted by a constant (even shifts only here)."""

    base: object
    shift: int

    def keys(self):
        return self.base.keys()

    def degree(self, key) -> int:
        return self.base.degree(key) + self.shift


class LinOp:
    """Homogeneous linear map between spaces, given on basis keys and extended linearly.

    Lazy: images are computed on demand and cached, so operator algebra
    (composition, perturbation series) stays affordable on large word spaces.
    An operator caches its own images only.  A cached image is shared and
    read-only, and an empty one is ``Vector.zero()``, so a cache holds no
    empty vectors of its own.  A sum shares a summand's cached image where
    the other is zero, so ``d + delta`` holds d's image object wherever delta
    vanishes.  A certificate evaluates its identity key by key on the images
    of the maps it certifies and builds no operator of its own, and ``power``
    iterates on vectors.
    """

    __slots__ = ("domain", "codomain", "degree", "_fn", "_cache", "label")

    def __init__(self, domain, codomain, degree: int, fn: Callable, label: str = ""):
        self.domain = domain
        self.codomain = codomain
        self.degree = degree
        self._fn = fn
        self._cache: dict = {}
        self.label = label

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def from_dict(domain, codomain, degree: int, images: Mapping, label: str = "") -> "LinOp":
        d = dict(images)
        return LinOp(domain, codomain, degree, lambda k: d.get(k, Vector.zero()), label)

    @staticmethod
    def identity(space) -> "LinOp":
        return LinOp(space, space, 0, Vector.basis, "id")

    @staticmethod
    def zero(domain, codomain=None, degree: int = 0) -> "LinOp":
        return LinOp(domain, codomain if codomain is not None else domain, degree,
                     lambda k: Vector.zero(), "0")

    # -- evaluation ------------------------------------------------------------
    def on_key(self, key) -> Vector:
        v = self._cache.get(key)
        if v is None:
            v = self._fn(key) or Vector.zero()
            self._cache[key] = v
        return v

    def __call__(self, v: Vector) -> Vector:
        out = Vector()
        for k, c in v.items():
            out.add_scaled(self.on_key(k), c)
        return out

    # -- operator algebra --------------------------------------------------------
    def __matmul__(self, other: "LinOp") -> "LinOp":
        if other.codomain != self.domain:
            raise ValueError(f"composition mismatch: {other.label or other.codomain} -> {self.label or self.domain}")
        return LinOp(other.domain, self.codomain, self.degree + other.degree,
                     lambda k: self(other.on_key(k)), f"({self.label})o({other.label})")

    def __add__(self, other: "LinOp") -> "LinOp":
        """Where one summand's image of a key is zero, the sum's image is the
        other's cached image itself."""
        if self.degree != other.degree:
            raise ValueError("adding maps of different degree")

        def fn(k):
            a, b = self.on_key(k), other.on_key(k)
            return a + b if a and b else a or b

        return LinOp(self.domain, self.codomain, self.degree, fn, f"{self.label}+{other.label}")

    def __sub__(self, other: "LinOp") -> "LinOp":
        """Where other's image of a key is zero, the difference's image is
        self's cached image itself; where only self's is, a fresh negation."""
        if self.degree != other.degree:
            raise ValueError("subtracting maps of different degree")

        def fn(k):
            a, b = self.on_key(k), other.on_key(k)
            return a - b if a and b else -b if b else a

        return LinOp(self.domain, self.codomain, self.degree, fn, f"{self.label}-{other.label}")

    def scale(self, a) -> "LinOp":
        a = Q(a)
        return LinOp(self.domain, self.codomain, self.degree, lambda k: self.on_key(k).scale(a),
                     f"{a}*{self.label}")

    __rmul__ = scale

    def power(self, n: int) -> "LinOp":
        """self^n: self applied n times to a key, stopping at zero."""
        if self.domain != self.codomain:
            raise ValueError("powers need an endomorphism")

        def fn(k):
            v = Vector.basis(k)
            for _ in range(n):
                if not v:
                    break
                v = self(v)
            return v

        return LinOp(self.domain, self.domain, n * self.degree, fn, f"({self.label})^{n}")

    def bracket(self, other: "LinOp") -> "LinOp":
        """Graded commutator [self, other] = s o - (-1)^{|s||o|} o s."""
        sign = -1 if (self.degree % 2) and (other.degree % 2) else 1
        first = self @ other
        second = (other @ self).scale(sign)
        return LinOp(first.domain, first.codomain, first.degree,
                     lambda k: first.on_key(k) - second.on_key(k),
                     f"[{self.label},{other.label}]")

    # -- verification ------------------------------------------------------------
    def is_zero_on(self, keys) -> bool:
        return all(self.on_key(k).is_zero() for k in keys)

    def first_difference(self, other: "LinOp", keys):
        for k in keys:
            if self.on_key(k) != other.on_key(k):
                return k
        return None

    def check_homogeneous(self, keys=None) -> None:
        keys = self.domain.keys() if keys is None else keys
        for k in keys:
            d = self.domain.degree(k)
            for k2 in self.on_key(k).keys():
                if self.codomain.degree(k2) != d + self.degree:
                    raise ValueError(
                        f"map {self.label!r} not homogeneous of degree {self.degree}: "
                        f"key {k} (degree {d}) -> {k2} (degree {self.codomain.degree(k2)})")

    def __repr__(self):
        return f"LinOp({self.label or 'anon'}, degree={self.degree})"


class CommAlgebra:
    """The one algebra interface: graded-commutative unital algebras whose
    products are exact and whose Overflow is loud.

    ``mul_keys(k1, k2)`` is the one key-level product: it yields the
    ``(key, coeff)`` terms of k1 * k2, none when the product vanishes.  The
    monomial backends yield at most one term and build no Vector; an
    explicit structure table yields the items of its entry.  A caller that
    needs a vector wraps the terms in ``Vector(...)``.  ``space`` is the key
    space (keys and degrees) of the algebra.  ``weight`` and ``weight_bound``
    grade its keys for ``report.evaluable_scope``; the default (the unit 0, every
    other key 1, bound 1) is one level, for a finite algebra that never overflows.
    """

    space: object
    unit_key: object
    weight_bound = 1

    def weight(self, key) -> int:
        return 0 if key == self.unit_key else 1

    def keys_by_weight(self) -> tuple:
        """The keys of each weight 0, 1, ..., ``weight_bound`` in key order, one
        tuple per weight, grouped once per algebra for ``report``."""
        if "_by_weight" not in self.__dict__:
            groups: list = [[] for _ in range(self.weight_bound + 1)]
            for key in self.space.keys():
                groups[self.weight(key)].append(key)
            self._by_weight = tuple(map(tuple, groups))
        return self._by_weight

    def mul_keys(self, k1, k2) -> Iterable:
        raise NotImplementedError

    def unit(self) -> Vector:
        return Vector.basis(self.unit_key)

    def mul(self, a: Vector, b: Vector) -> Vector:
        mul_keys = self.mul_keys
        return Vector([(k, c1 * c2 * c) for k1, c1 in a.items() for k2, c2 in b.items()
                       for k, c in mul_keys(k1, k2)])

    def product_keys(self, keys: Iterable) -> Vector:
        """The product of basis keys, folded through ``mul_keys``."""
        out = self.unit()
        for k in keys:
            out = Vector([(kk, c * x) for k1, c in out.items() for kk, x in self.mul_keys(k1, k)])
        return out

    def order_check_keys(self):
        """Keys spanning enough of the algebra to certify differential-operator order."""
        return self.space.keys()


def expand_multilinear(args: tuple[Vector, ...], kernel: Callable[..., Vector]) -> Vector:
    """Multilinear extension of a kernel defined on tuples of basis keys: the
    kernel on each choice of one key from every vector in ``args``, times the
    product of their coefficients (each prefix product is formed once).

    Coefficients are degree-0 scalars, so no Koszul signs arise here.
    """
    terms = [((), ONE)]
    for v in args:
        terms = [(keys + (k,), coeff * c) for keys, coeff in terms for k, c in v.items()]
    out = Vector()
    for keys, coeff in terms:
        out.add_scaled(kernel(*keys), coeff)
    return out


def exp_series(evaluate: Callable[[tuple], Vector], x, arities: Iterable[int]) -> Vector:
    """sum over n in ``arities`` of evaluate((x,)*n)/n! on the diagonal of x: the
    exponential e^x of the BV e^a route.  Sums of Taylor data read canonical
    words instead, through ``mc.mc_sum``."""
    out = Vector()
    for n in arities:
        out.add_scaled(evaluate((x,) * n), Q(1, factorial(n)))
    return out
