import itertools
import random
from fractions import Fraction
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from gradedhpt import core
from gradedhpt.commalg import cumulants, koszul_brackets
from gradedhpt.core import (
    GradedBasis,
    LinOp,
    Vector,
    koszul_sign,
    multi_unshuffles,
    set_partitions,
    unshuffle_sign,
)
from gradedhpt.randgen import (
    random_algebra_pair,
    random_homogeneous,
    random_unital_map,
    random_unital_operator,
)


def sign_by_transpositions(perm, degrees, order):
    """Multiply adjacent-transposition signs along a chosen bubble-sort schedule."""
    seq = list(perm)
    sign = 1
    dirty = True
    while dirty:
        dirty = False
        positions = range(len(seq) - 1) if order == "ltr" else range(len(seq) - 2, -1, -1)
        for i in positions:
            if seq[i] > seq[i + 1]:
                if degrees[seq[i]] % 2 and degrees[seq[i + 1]] % 2:
                    sign = -sign
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                dirty = True
    return sign


class TestKoszulSign:
    def test_identity(self):
        assert koszul_sign((0, 1, 2, 3), (1, 1, 1, 1)) == 1

    def test_odd_transposition(self):
        assert koszul_sign((1, 0), (1, 3)) == -1

    def test_even_transposition(self):
        assert koszul_sign((1, 0), (2, 1)) == 1

    def test_three_cycle_two_decompositions(self):
        # (x1,x2,x3) -> (x3,x1,x2) on degrees (1,1,0); both bubble schedules agree
        perm, degs = (2, 0, 1), (1, 1, 0)
        s1 = sign_by_transpositions(perm, degs, "ltr")
        s2 = sign_by_transpositions(perm, degs, "rtl")
        assert s1 == s2 == koszul_sign(perm, degs)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            koszul_sign((0, 1), (1,))

    @given(st.data())
    def test_composition_homomorphism(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        degs = tuple(data.draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n)))
        p = tuple(data.draw(st.permutations(range(n))))
        q = tuple(data.draw(st.permutations(range(n))))
        # rearrange by q, then rearrange the result by p: net permutation q o p
        net = tuple(q[p[i]] for i in range(n))
        degs_q = tuple(degs[q[i]] for i in range(n))
        assert koszul_sign(net, degs) == koszul_sign(q, degs) * koszul_sign(p, degs_q)

    @given(st.data())
    def test_matches_bubble_sort(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        degs = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        p = tuple(data.draw(st.permutations(range(n))))
        assert koszul_sign(p, degs) == sign_by_transpositions(p, degs, "ltr")


class TestUnshuffles:
    def test_small_counts(self):
        assert len(multi_unshuffles((1, 1))) == 2
        assert len(multi_unshuffles((2, 1))) == 3

    def test_221_against_exhaustive_filter(self):
        got = set(multi_unshuffles((2, 2, 1)))
        brute = set()
        for perm in itertools.permutations(range(5)):
            blocks = (perm[0:2], perm[2:4], perm[4:5])
            if all(b == tuple(sorted(b)) for b in blocks):
                brute.add(blocks)
        assert got == brute
        assert len(got) == 30

    def test_multinomial_counts(self):
        from math import factorial

        def compositions(n):
            """Ordered compositions of n into positive parts."""
            if n == 0:
                return [()]
            return [(first,) + rest for first in range(1, n + 1) for rest in compositions(n - first)]

        for n in range(0, 7):
            for comp in compositions(n):
                expect = factorial(n)
                for part in comp:
                    expect //= factorial(part)
                assert len(multi_unshuffles(comp)) == expect
        assert len(multi_unshuffles((3, 3, 2))) == 560

    def test_blocks_increasing_and_disjoint(self):
        for unsh in multi_unshuffles((2, 3)):
            flat = [p for block in unsh for p in block]
            assert sorted(flat) == list(range(5))
            for block in unsh:
                assert list(block) == sorted(block)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            multi_unshuffles((2, -1))

    def test_unshuffle_sign(self):
        # splitting (x0, x1) odd/odd as ((1), (0)) crosses once
        assert unshuffle_sign(((1,), (0,)), (1, 1)) == -1
        assert unshuffle_sign(((0,), (1,)), (1, 1)) == 1


class TestSetPartitions:
    def test_bell_numbers(self):
        for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
            assert len(set_partitions(n)) == bell

    def test_blocks_cover(self):
        for part in set_partitions(4):
            flat = sorted(p for block in part for p in block)
            assert flat == [0, 1, 2, 3]


def two_dim_basis():
    return GradedBasis.make([("x", 0), ("xi", 1)])


class TestVectorAndLinOp:
    def test_scalar_roundtrip(self):
        for p, q in [(3, 4), (-7, 2), (11, 13)]:
            a = Q(p, q)
            assert a * (1 / a) == 1

    def test_vector_arith(self):
        v = Vector({0: Q(1, 2)}) + Vector({0: Q(1, 2), 1: Q(3)})
        assert v == Vector({0: 1, 1: 3})
        assert (v - v).is_zero()
        assert (-2 * v) == Vector({0: -2, 1: -6})

    def test_compose_identity_and_zero(self):
        b = two_dim_basis()
        f = LinOp.from_dict(b, b, 1, {b.index("x"): Vector.basis(b.index("xi")).scale(2)})
        assert (LinOp.identity(b) @ f).first_difference(f, b.keys()) is None
        assert (f @ LinOp.zero(b)).is_zero_on(b.keys())
        g = f @ LinOp.identity(b)
        assert g.degree == 1

    def test_compose_mismatch(self):
        b = two_dim_basis()
        c = GradedBasis.make([("y", 0)])
        f = LinOp.identity(b)
        g = LinOp.identity(c)
        with pytest.raises(ValueError):
            g @ f

    def test_homogeneity_check(self):
        b = two_dim_basis()
        bad = LinOp.from_dict(b, b, 0, {b.index("x"): Vector.basis(b.index("xi"))})
        with pytest.raises(ValueError):
            bad.check_homogeneous()

    def test_bracket_degree_sign(self):
        b = two_dim_basis()
        d = LinOp.from_dict(b, b, 1, {b.index("x"): Vector.basis(b.index("xi"))})
        h = LinOp.from_dict(b, b, -1, {b.index("xi"): Vector.basis(b.index("x"))})
        # both odd: [d, h] = dh + hd
        dh = d.bracket(h)
        expect = d @ h + h @ d
        assert dh.first_difference(expect, b.keys()) is None


# -- the scalar contract: int-first exact scalars, Fractions at the boundary --------


def random_vector(rng, space) -> Vector:
    """A randgen vector on all of ``space``, one homogeneous part per degree;
    its coefficients mix ints and half-integer Fractions."""
    return Vector([kc for d in sorted({space.degree(k) for k in space.keys()})
                   for kc in random_homogeneous(rng, space, d).items()])


def as_fractions(v: Vector) -> dict:
    return {k: Fraction(c) for k, c in v.items()}


def fraction_reference(*terms) -> dict:
    """sum of a * v over the (a, v) terms, computed on Fraction coefficients."""
    out: dict = {}
    for a, v in terms:
        for k, c in as_fractions(v).items():
            out[k] = out.get(k, Fraction(0)) + Fraction(a) * c
    return {k: c for k, c in out.items() if c}


class TestScalarContract:
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_arithmetic_matches_fraction_reference(self, seed):
        rng = random.Random(seed)
        A, B = random_algebra_pair(rng)
        f = random_unital_map(rng, A, B)
        x, y = random_vector(rng, A.space), random_vector(rng, A.space)
        a = core.Q(rng.randint(-3, 3), rng.choice([1, 2]))
        x_before = as_fractions(x)
        cases = {
            "x + y": (x + y, fraction_reference((1, x), (1, y))),
            "x - y": (x - y, fraction_reference((1, x), (-1, y))),
            "a x": (x.scale(a), fraction_reference((a, x))),
            "x += a y": (Vector(x.items()).add_scaled(y, a), fraction_reference((1, x), (a, y))),
            "x += a x": ((lambda w: w.add_scaled(w, a))(Vector(x.items())),
                         fraction_reference((1 + a, x))),
            "f(x)": (f(x), fraction_reference(*((c, f.on_key(k)) for k, c in x.items()))),
            "x y": (A.mul(x, y), fraction_reference(*(
                (c1 * c2, A.mul_keys(k1, k2)) for k1, c1 in x.items() for k2, c2 in y.items()))),
        }
        for name, (got, expect) in cases.items():
            assert as_fractions(got) == expect, name
            assert all(type(c) in (int, Fraction) and c for c in got.c.values()), name
        assert as_fractions(x) == x_before

    def test_floats_are_rejected(self):
        v = Vector.basis(0)
        b = two_dim_basis()
        for make in (lambda: core.Q(0.5), lambda: core.Q(2.0), lambda: core.Q(1.5, 2),
                     lambda: Vector({0: 0.5}), lambda: Vector.basis(0, -1.0),
                     lambda: v.scale(2.0), lambda: Vector().add_scaled(v, 1.0),
                     lambda: LinOp.identity(b).scale(0.5)):
            with pytest.raises(TypeError):
                make()

    def test_integral_scalars_are_ints(self):
        assert type(core.Q(4, 2)) is int and core.Q(4, 2) == 2
        assert type(core.Q(Fraction(6, 3))) is int
        assert core.Q(1, 2) == Fraction(1, 2)
        v = Vector({0: Fraction(3), 1: core.Q(1, 2)})
        assert type(v.c[0]) is int

    def test_getitem_hands_out_fractions(self):
        v = Vector({0: 3, 1: core.Q(1, 2)})
        for k in (0, 1, 2):
            assert type(v[k]) is Fraction
        assert v[0] / 2 == Fraction(3, 2)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_routes_leave_shared_images_alone(self, seed):
        # add_scaled accumulates in place: every route must accumulate into a
        # vector it created, never into a cached LinOp image or a product table
        rng = random.Random(seed)
        A, B = random_algebra_pair(rng)
        f = random_unital_map(rng, A, B)
        delta = random_unital_operator(rng, A, rng.choice([-1, 0, 1]))
        args = tuple(random_vector(rng, A.space) for _ in range(rng.randint(1, 3)))
        shared = {"f": {k: f.on_key(k) for k in A.space.keys()},
                  "delta": {k: delta.on_key(k) for k in A.space.keys()},
                  "A.table": dict(A.table), "B.table": dict(B.table)}
        snapshot = {name: {k: dict(v.items()) for k, v in images.items()}
                    for name, images in shared.items()}
        koszul_brackets(A, delta, args)
        cumulants(A, B, f, args)
        assert all(f.on_key(k) is v for k, v in shared["f"].items())
        assert all(delta.on_key(k) is v for k, v in shared["delta"].items())
        assert {name: {k: dict(v.items()) for k, v in images.items()}
                for name, images in shared.items()} == snapshot
