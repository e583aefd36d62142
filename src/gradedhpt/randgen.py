"""Deterministic random instance families for differential testing.

Random graded commutative algebras are drawn from verified templates (free
graded-commutative quotients), so associativity holds by construction and is
still re-checked exhaustively by the ExplicitFD constructor.  Each template is
returned on a random unitriangular basis, so products of basis keys may have
several terms.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import CommAlgebra, GradedBasis, LinOp, Q, Vector
from .commalg import ExplicitFDAlgebra


def _rand_coeff(rng: random.Random) -> int | Fraction:
    return Q(rng.randint(-3, 3), rng.choice([1, 1, 1, 2]))


def random_homogeneous(rng: random.Random, space, degree: int, keys=None) -> Vector:
    keys = space.keys() if keys is None else keys
    return Vector({k: _rand_coeff(rng) for k in keys if space.degree(k) == degree})


def _rebased(rng: random.Random, A: ExplicitFDAlgebra) -> ExplicitFDAlgebra:
    """A on the basis e'_i = e_i + sum_{j<i} r_ij e_j, with random integers r_ij
    and j running over the non-unit keys of the degree of e_i: the same algebra,
    its unit unchanged.  The change of basis is unitriangular, so its inverse is
    integral."""
    unit, degree = A.unit_key, A.space.degree
    keys = [k for k in A.space.keys() if k != unit]
    new = {i: Vector([(i, 1)] + [(j, rng.randint(-2, 2)) for j in keys[:n]
                                 if degree(j) == degree(i)])
           for n, i in enumerate(keys)}

    def in_new_basis(v: Vector) -> Vector:
        # peel off the top keys first
        out = []
        for i in reversed(keys):
            c = v[i]
            if c:
                out.append((i, c))
                v = v - new[i].scale(c)
        return Vector(out + [(unit, v[unit])])

    prods = {(i, j): in_new_basis(A.mul(new[i], new[j])) for i in keys for j in keys}
    return ExplicitFDAlgebra(A.basis, prods, unit)


def random_algebra(rng: random.Random, template: int | None = None) -> ExplicitFDAlgebra:
    """A 3- or 4-dimensional graded commutative unitary algebra from a verified
    template, on a random unitriangular basis."""
    return _rebased(rng, _template_algebra(rng, template))


def _template_algebra(rng: random.Random, template: int | None) -> ExplicitFDAlgebra:
    t = rng.randrange(4) if template is None else template
    if t == 0:
        # K[x]/(x^3), deg x even
        d = rng.choice([0, 2, -2])
        basis = GradedBasis.make([("1", 0), ("x", d), ("x2", 2 * d)])
        alpha = _rand_coeff(rng)
        prods = {(1, 1): Vector.basis(2, alpha)}
        return ExplicitFDAlgebra(basis, prods, 0)
    if t == 1:
        # exterior algebra on two odd generators
        d1 = rng.choice([1, -1, 3])
        d2 = rng.choice([1, -1])
        basis = GradedBasis.make([("1", 0), ("u", d1), ("v", d2), ("uv", d1 + d2)])
        prods = {
            (1, 1): Vector.zero(),
            (2, 2): Vector.zero(),
            (1, 2): Vector.basis(3),
            (3, 1): Vector.zero(),
            (3, 2): Vector.zero(),
            (3, 3): Vector.zero(),
        }
        return ExplicitFDAlgebra(basis, prods, 0)
    if t == 2:
        # K 1 + K x + K y with x^2 = alpha y, xy = y^2 = 0
        d = rng.choice([0, 2])
        basis = GradedBasis.make([("1", 0), ("x", d), ("y", 2 * d)])
        prods = {(1, 1): Vector.basis(2, _rand_coeff(rng)),
                 (1, 2): Vector.zero(), (2, 2): Vector.zero()}
        return ExplicitFDAlgebra(basis, prods, 0)
    # K[x]/(x^2) tensor exterior(xi)
    dx = rng.choice([0, 2, -2])
    dxi = rng.choice([1, -1])
    basis = GradedBasis.make([("1", 0), ("x", dx), ("xi", dxi), ("xxi", dx + dxi)])
    prods = {
        (1, 1): Vector.zero(),
        (2, 2): Vector.zero(),
        (1, 2): Vector.basis(3),
        (3, 1): Vector.zero(),
        (3, 2): Vector.zero(),
        (3, 3): Vector.zero(),
    }
    return ExplicitFDAlgebra(basis, prods, 0)


def random_unital_map(rng: random.Random, A: CommAlgebra, B: CommAlgebra) -> LinOp:
    """Degree-0 map with f(1_A) = 1_B, random homogeneous images elsewhere."""
    images = {A.unit_key: B.unit()}
    for k in A.space.keys():
        if k == A.unit_key:
            continue
        images[k] = random_homogeneous(rng, B.space, A.space.degree(k))
    return LinOp.from_dict(A.space, B.space, 0, images, "f")


def random_unital_operator(rng: random.Random, A: CommAlgebra, degree: int) -> LinOp:
    """Random homogeneous operator with delta(1_A) = 0."""
    images = {}
    for k in A.space.keys():
        if k == A.unit_key:
            continue
        images[k] = random_homogeneous(rng, A.space, A.space.degree(k) + degree)
    return LinOp.from_dict(A.space, A.space, degree, images, "delta")


def random_nilpotent_operator(rng: random.Random, A: CommAlgebra, degree: int) -> LinOp:
    """Strictly basis-triangular operator with delta(1) = 0; nilpotent by construction."""
    keys = list(A.space.keys())
    images = {}
    for i, k in enumerate(keys):
        if k == A.unit_key:
            continue
        span = [k2 for k2 in keys[i + 1:] if k2 != A.unit_key]
        images[k] = random_homogeneous(rng, A.space, A.space.degree(k) + degree, span)
    return LinOp.from_dict(A.space, A.space, degree, images, "nildelta")


def random_algebra_pair(rng: random.Random) -> tuple[ExplicitFDAlgebra, ExplicitFDAlgebra]:
    """Source and target sharing enough degrees for nontrivial unital maps."""
    if rng.random() < 0.5:
        A = random_algebra(rng)
        return A, A
    t = rng.randrange(4)
    return random_algebra(rng, t), random_algebra(rng, t)
