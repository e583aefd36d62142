import itertools
import random
from collections import Counter
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
    set_partitions,
    unshuffles,
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


def iterated_unshuffles(sizes):
    """Each unshuffle of the positions 0..n-1 into ordered blocks of the given
    sizes: each block is split off the remaining positions by the two-block
    `unshuffles`."""
    layer = [((), tuple(range(sum(sizes))))]
    for size in sizes:
        layer = [(blocks + (tuple(rest[p] for p in left),), tuple(rest[p] for p in right))
                 for blocks, rest in layer
                 for left, right, _ in unshuffles((0,) * len(rest), size)]
    return [blocks for blocks, _ in layer]


def parity_patterns(n):
    """Degree tuples of length n, one for every pattern of parities (all-even
    and all-odd included), mixing the signs and sizes of the degrees."""
    for bits in itertools.product((0, 1), repeat=n):
        yield tuple((3 if b else 2) if p % 2 else (-1 if b else 0) for p, b in enumerate(bits))


class TestUnshuffles:
    def test_small_counts(self):
        assert len(list(unshuffles((0, 0), 1))) == 2
        assert len(list(unshuffles((0, 0, 0), 2))) == 3

    def test_221_against_exhaustive_filter(self):
        got = set(iterated_unshuffles((2, 2, 1)))
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
                assert len(iterated_unshuffles(comp)) == expect
        assert len(iterated_unshuffles((3, 3, 2))) == 560

    def test_blocks_increasing_and_disjoint(self):
        for left, right, _ in unshuffles((0,) * 5, 2):
            assert sorted(left + right) == list(range(5))
            for block in (left, right):
                assert list(block) == sorted(block)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            list(unshuffles((0, 0), -1))

    def test_unshuffle_sign(self):
        # splitting (x0, x1) odd/odd as ((1), (0)) crosses once
        assert list(unshuffles((1, 1), 1)) == [((0,), (1,), 1), ((1,), (0,), -1)]

    def test_signs_and_order_match_koszul_sign(self):
        # every i, n <= 7, every parity pattern: left in the order of
        # combinations, right the rest ascending, and the running sign the
        # Koszul sign of left + right
        for n in range(8):
            for degs in parity_patterns(n):
                for i in range(n + 1):
                    got = list(unshuffles(degs, i))
                    assert [left for left, _, _ in got] == list(itertools.combinations(range(n), i))
                    for left, right, s in got:
                        assert right == tuple(p for p in range(n) if p not in left)
                        assert s == koszul_sign(left + right, degs), (degs, left)


def brute_partitions(n):
    """Unordered partitions of {0..n-1}, blocks ascending and ordered by their
    least element: n-1 joins a block of a partition of {0..n-2} or starts one."""
    if n == 0:
        return [()]
    out = []
    for part in brute_partitions(n - 1):
        out += [part[:i] + (part[i] + (n - 1,),) + part[i + 1:] for i in range(len(part))]
        out.append(part + ((n - 1,),))
    return out


class TestSetPartitions:
    def test_bell_numbers(self):
        for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
            assert len(list(set_partitions((0,) * n, tuple))) == bell

    def test_blocks_cover(self):
        for part, _ in set_partitions((0,) * 4, tuple):
            flat = sorted(p for block in part for p in block)
            assert flat == [0, 1, 2, 3]

    def test_partitions_and_signs_match_brute_force(self):
        # blocks ordered by least position; the carried sign is the Koszul
        # sign of the blocks placed one after another
        for n in range(7):
            for degs in parity_patterns(n):
                got = list(set_partitions(degs, tuple))
                assert sorted(part for part, _ in got) == sorted(brute_partitions(n))
                for part, sign in got:
                    assert sign == koszul_sign(sum(part, ()), degs), (degs, part)

    def test_none_factor_prunes_its_block(self):
        # a None factor on every block holding 0 and 1 removes the partitions
        # that keep them together; the blocks evaluated are exactly the last
        # blocks of the prefixes whose earlier blocks all have a factor
        def pruned(block):
            return {0, 1} <= set(block)

        seen = Counter()

        def factor(block):
            seen[block] += 1
            return None if pruned(block) else block

        got = [part for part, _ in set_partitions((0,) * 5, factor)]
        assert sorted(got) == sorted(p for p in brute_partitions(5) if not any(map(pruned, p)))
        assert len(got) == 52 - 15
        prefixes = {part[:j] for part in brute_partitions(5) for j in range(1, len(part) + 1)
                    if not any(map(pruned, part[:j - 1]))}
        assert seen == Counter(prefix[-1] for prefix in prefixes)


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

    def test_zero_is_one_shared_read_only_vector(self):
        zero = Vector.zero()
        assert zero is Vector.zero() and zero == Vector() and not zero
        with pytest.raises(TypeError):
            zero.add_scaled(Vector.basis(0))
        assert zero.is_zero()
        assert zero + Vector.basis(0) == Vector.basis(0) and zero.is_zero()
        acc = Vector()
        assert acc is not zero and acc.add_scaled(Vector.basis(0)) == Vector.basis(0)

    def test_an_empty_image_is_cached_as_the_shared_zero(self):
        b = two_dim_basis()
        f = LinOp(b, b, 0, lambda k: Vector(), "fresh zero")
        assert all(f.on_key(k) is Vector.zero() for k in b.keys())

    def test_a_sum_shares_a_summands_image_where_the_other_is_zero(self):
        # f and g are nonzero on x, z only on w: where one summand's image is
        # zero the sum holds the other's cached image itself, z - f a fresh
        # negation, and two zero images give the shared zero
        b = GradedBasis.make([("x", 0), ("y", 0), ("w", 0)])
        x, y, w = b.keys()
        f = LinOp.from_dict(b, b, 0, {x: Vector({x: 1, y: 2})}, "f")
        g = LinOp.from_dict(b, b, 0, {x: Vector.basis(y, -2)}, "g")
        z = LinOp.from_dict(b, b, 0, {w: Vector.basis(x)}, "z")
        assert (f + z).on_key(x) is f.on_key(x)
        assert (z + f).on_key(x) is f.on_key(x)
        assert (f - z).on_key(x) is f.on_key(x)
        assert (z + f).on_key(w) is z.on_key(w)
        neg = (z - f).on_key(x)
        assert neg == Vector({x: -1, y: -2}) and neg is not f.on_key(x)
        assert f.on_key(x) == Vector({x: 1, y: 2})
        assert (f + z).on_key(y) is Vector.zero() and (f - z).on_key(y) is Vector.zero()
        assert (f + g).on_key(x) == Vector.basis(x) and (f + g).on_key(x) is not f.on_key(x)
        assert (f - f).on_key(x) is Vector.zero()

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

    def test_scale_keeps_the_label(self):
        b = two_dim_basis()
        f = LinOp.from_dict(b, b, 1, {b.index("x"): Vector.basis(b.index("xi"))}, "f")
        assert f.scale(Q(-1, 2)).label == "-1/2*f"

    def test_power_iterates(self, monkeypatch):
        # op^5 is one operator that applies op five times to a key; it builds
        # no chain of composites, and agrees with that chain on every key
        b = GradedBasis.make([("x", 0), ("y", 0), ("z", 0)])
        op = LinOp.from_dict(b, b, 0, {0: Vector({0: 1, 1: 2}), 1: Vector({2: 1, 0: -1}),
                                       2: Vector({0: Q(1, 3)})}, "op")
        chain = LinOp.identity(b)
        for _ in range(5):
            chain = op @ chain
        built = []
        init = LinOp.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LinOp, "__init__", counted)
        power = op.power(5)
        assert len(built) == 1
        assert power.degree == 0
        assert power.first_difference(chain, b.keys()) is None
        nilpotent = LinOp.from_dict(b, b, 0, {0: Vector.basis(1), 1: Vector.basis(2)}, "n")
        assert nilpotent.power(2).on_key(0) == Vector.basis(2)
        assert nilpotent.power(3).is_zero_on(b.keys())


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
                (c1 * c2, Vector(A.mul_keys(k1, k2))) for k1, c1 in x.items() for k2, c2 in y.items()))),
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
