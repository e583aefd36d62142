import gc
import random
import weakref
from fractions import Fraction as Q
from functools import reduce
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from gradedhpt import commalg
from gradedhpt.bv import bv_check, bv_mc_check
from gradedhpt.core import (
    GradedBasis,
    LinOp,
    Overflow,
    Vector,
    expand_multilinear,
    exp_series,
    koszul_sign,
)
from gradedhpt.commalg import (
    ExplicitFDAlgebra,
    GuardedFreeAlgebra,
    cumulant_lift,
    cumulant_partition,
    cumulant_recursion,
    cumulants,
    diff_order,
    exp_automorphism,
    exp_endomorphism,
    kos_lift,
    koszul_brackets,
    koszul_closed,
    koszul_recursion,
    koszul_vanishes,
    log_automorphism,
)
from gradedhpt.fixtures import fix1, fix1_perturbation, fix2
from gradedhpt.randgen import (
    random_algebra,
    random_algebra_pair,
    random_homogeneous,
    random_nilpotent_operator,
    random_unital_map,
    random_unital_operator,
)
from gradedhpt.mc import mc_sum
from gradedhpt.symcoalg import SymSpace, canonical_word, multisets_by_weight
from gradedhpt.tseries import TOp, TruncatedTAlgebra, flatten_top


def random_args(rng, space, n: int) -> tuple:
    """n random arguments, each a sum of random_homogeneous parts of one or two
    degrees, so that the routes see combinations with int and Fraction
    coefficients, not only basis vectors."""
    degrees = sorted({space.degree(k) for k in space.keys()})
    return tuple(Vector([kc for d in rng.sample(degrees, rng.randint(1, min(2, len(degrees))))
                         for kc in random_homogeneous(rng, space, d).items()])
                 for _ in range(n))


def koszul_on(A, delta, args: tuple, memo=None):
    """The key-tuple kernel ``koszul_recursion`` on vectors: its multilinear
    extension, one memo over the expansion (``memo`` when given)."""
    memo = {} if memo is None else memo
    return expand_multilinear(args, lambda *keys: koszul_recursion(A, delta, keys, memo))


def cumulant_on(A, B, f, args: tuple):
    """The key-tuple kernel ``cumulant_recursion`` on vectors."""
    return expand_multilinear(args, lambda *keys: cumulant_recursion(A, B, f, keys))


class OnKeyCounted(LinOp):
    """A LinOp that counts its ``on_key`` calls, cached images included."""

    calls = 0

    def on_key(self, key):
        self.calls += 1
        return super().on_key(key)


def rebased(rng, A: ExplicitFDAlgebra) -> ExplicitFDAlgebra:
    """A on the basis e'_i = e_i + sum_j r_ij e_j, with j < i running over the
    basis keys of the degree of e_i (the unit among them when e_i has degree
    0) and random r_ij: the same algebra, with products of basis keys that
    have several terms."""
    keys = list(A.space.keys())
    new = {i: Vector.basis(i) + Vector({j: rng.randint(-2, 2) for j in keys[:n]
                                        if A.space.degree(j) == A.space.degree(i)})
           if i != A.unit_key else Vector.basis(i) for n, i in enumerate(keys)}

    def in_new_basis(v: Vector) -> Vector:
        # new is unitriangular, so peel off its top keys first
        out = Vector()
        for i in reversed(keys):
            c = v[i]
            if c:
                out.add_scaled(Vector.basis(i), c)
                v = v - new[i].scale(c)
        return out

    prods = {(i, j): in_new_basis(A.mul(new[i], new[j]))
             for i in keys for j in keys if A.unit_key not in (i, j)}
    return ExplicitFDAlgebra(A.basis, prods, A.unit_key)


def exterior_two() -> ExplicitFDAlgebra:
    basis = GradedBasis.make([("1", 0), ("u", 1), ("v", 1), ("uv", 2)])
    prods = {(1, 1): Vector.zero(), (2, 2): Vector.zero(), (1, 2): Vector.basis(3),
             (3, 1): Vector.zero(), (3, 2): Vector.zero(), (3, 3): Vector.zero()}
    return ExplicitFDAlgebra(basis, prods, 0)


def nil_three() -> ExplicitFDAlgebra:
    # K 1 + K x + K y, x^2 = y, deg x = 2
    basis = GradedBasis.make([("1", 0), ("x", 2), ("y", 4)])
    return ExplicitFDAlgebra(basis, {(1, 1): Vector.basis(2)}, 0)


class TestBackends:
    def test_explicit_fd_rejects_nonassociative(self):
        basis = GradedBasis.make([("1", 0), ("x", 0), ("y", 0)])
        # x*x = y, x*y = 1 breaks associativity: (xx)y != x(xy)
        prods = {(1, 1): Vector.basis(2), (1, 2): Vector.basis(0), (2, 2): Vector.zero()}
        with pytest.raises(ValueError):
            ExplicitFDAlgebra(basis, prods, 0)

    def test_guarded_free_signs_and_nilpotency(self):
        A = GuardedFreeAlgebra([("y", 0, None), ("dy", 1, None)], 6)
        y = A.monomial({"y": 1})
        dy = A.monomial({"dy": 1})
        assert A.mul(dy, dy).is_zero()
        assert A.mul(y, dy) == A.monomial({"y": 1, "dy": 1})
        # odd-odd swap sign in two-generator exterior part
        B = GuardedFreeAlgebra([("a", 1, None), ("b", 1, None)], 4)
        ab = B.mul(B.monomial({"a": 1}), B.monomial({"b": 1}))
        ba = B.mul(B.monomial({"b": 1}), B.monomial({"a": 1}))
        assert ba == -1 * ab

    def test_guarded_free_overflow(self):
        A = GuardedFreeAlgebra([("y", 0, None)], 3)
        y2 = A.monomial({"y": 2})
        with pytest.raises(Overflow):
            A.mul(y2, y2)

    def test_guarded_nilpotency_exponent(self):
        A = GuardedFreeAlgebra([("x", 2, 3)], 10)
        x2 = A.monomial({"x": 2})
        assert A.mul(x2, A.monomial({"x": 1})).is_zero()

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_guarded_free_sign_is_the_sort_sign(self, data):
        # three odd generators (of degrees 1, 3, -1) interleaved with even ones:
        # the product of two monomials is the sorted concatenation of their
        # letters, with the Koszul sign of that sort, and products associate
        A = GuardedFreeAlgebra([("e", 1, None), ("y", 0, 3), ("f", 3, None), ("z", 2, None),
                                ("g", -1, None), ("w", -2, 2)], 9)
        keys = [k for k in A.space.keys() if sum(k) <= 3]
        k1, k2, k3 = (data.draw(st.sampled_from(keys)) for _ in range(3))

        def letters(key):
            return [i for i, e in enumerate(key) for _ in range(e)]

        word = letters(k1) + letters(k2)
        order = tuple(sorted(range(len(word)), key=word.__getitem__))
        degs = tuple(A.gen_degrees[i] for i in word)
        out = tuple(map(sum, zip(k1, k2)))
        vanishes = any(n is not None and e >= n for e, n in zip(out, A.nilpotency))
        expect = Vector.zero() if vanishes else Vector.basis(out, koszul_sign(order, degs))
        assert Vector(A.mul_keys(k1, k2)) == expect
        a, b, c = (Vector.basis(k) for k in (k1, k2, k3))
        assert A.mul(A.mul(a, b), c) == A.mul(a, A.mul(b, c))

    def test_random_algebras_have_multi_term_products(self):
        # randgen rebases each template on a unitriangular basis that fixes the
        # unit, so some key products have several terms
        rng = random.Random(3)
        algebras = [random_algebra(rng) for _ in range(40)]
        assert all(Vector(A.mul_keys(A.unit_key, k)) == Vector.basis(k)
                   for A in algebras for k in A.space.keys())
        assert any(len(Vector(A.mul_keys(i, j)).keys()) > 1
                   for A in algebras for i in A.space.keys() for j in A.space.keys())

    def test_graded_commutativity_random(self):
        rng = random.Random(5)
        for _ in range(10):
            A = random_algebra(rng)
            for i in A.space.keys():
                for j in A.space.keys():
                    s = -1 if (A.space.degree(i) % 2 and A.space.degree(j) % 2) else 1
                    assert Vector(A.mul_keys(j, i)) == Vector(A.mul_keys(i, j)).scale(s)


class TestReferenceCounting:
    """A dropped algebra or word space is freed at once, with the cyclic
    collector off: its key space is itself, a property, never a stored
    attribute that would hold it in a reference cycle."""

    @staticmethod
    def freed_on_drop(make) -> bool:
        enabled = gc.isenabled()
        gc.disable()
        try:
            ref = weakref.ref(make())
            return ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_guarded_free_algebra(self):
        def make():
            A = GuardedFreeAlgebra([("y", 0, None), ("dy", 1, None)], 4)
            assert A.space is A and A == GuardedFreeAlgebra([("y", 0, None), ("dy", 1, None)], 4)
            A.mul(A.monomial({"y": 1}), A.monomial({"dy": 1}))
            return A

        assert self.freed_on_drop(make)

    def test_sym_space_after_keys(self):
        def make():
            S = SymSpace(GradedBasis.make([("x", 0), ("xi", 1)]), 3)
            assert S.space is S and S.keys()
            S.mul(Vector.basis((0,)), Vector.basis((1,)))
            return S

        assert self.freed_on_drop(make)


class TestExpLog:
    def test_linear_parts_identity(self):
        A = nil_three()
        E, L = exp_automorphism(A, 4), log_automorphism(A, 4)
        for k in A.space.keys():
            assert E.component(1, (k,)) == Vector.basis(k)
            assert L.component(1, (k,)) == Vector.basis(k)

    def test_l3_coefficient(self):
        A = nil_three()
        L = log_automorphism(A, 4)
        # l_3 = (+2) * product; on (1,1,1) the cube of the unit is the unit
        assert L.component(3, (0, 0, 0)) == Vector.basis(0, 2)

    def test_exp_log_inverse_weight_four(self):
        A = nil_three()
        S = SymSpace(A.space, 4)
        E = exp_automorphism(A, 4).as_map(S, S)
        L = log_automorphism(A, 4).as_map(S, S)
        idm = LinOp.identity(S)
        assert (E @ L).first_difference(idm, S.keys()) is None
        assert (L @ E).first_difference(idm, S.keys()) is None


class TestCumulants:
    def test_first_two(self):
        rng = random.Random(9)
        A = exterior_two()
        f = random_unital_map(rng, A, A)
        a, b = Vector.basis(1), Vector.basis(2)
        assert cumulant_partition(A, A, f, (a,)) == f(a)
        expect = f(A.mul(a, b)) - A.mul(f(a), f(b))
        assert cumulant_partition(A, A, f, (a, b)) == expect

    def test_third_display(self):
        rng = random.Random(10)
        A = exterior_two()
        B = exterior_two()
        f = random_unital_map(rng, A, B)
        for keys in [(1, 2, 3), (1, 1, 2), (3, 3, 3)]:
            a, b, c = (Vector.basis(k) for k in keys)
            da, db, dc = (A.space.degree(k) for k in keys)
            expect = (f(A.mul(A.mul(a, b), c))
                      - B.mul(f(A.mul(a, b)), f(c))
                      - B.mul(f(A.mul(a, c)), f(b)).scale((-1) ** (db * dc))
                      - B.mul(f(A.mul(b, c)), f(a)).scale((-1) ** (da * (db + dc)))
                      + B.mul(B.mul(f(a), f(b)), f(c)).scale(2))
            assert cumulant_partition(A, B, f, (a, b, c)) == expect

    def test_morphism_has_no_higher_cumulants(self):
        A = exterior_two()
        images = {0: Vector.basis(0), 1: Vector.basis(1, 3), 2: Vector.basis(2, 5),
                  3: Vector.basis(3, 15)}
        f = LinOp.from_dict(A.space, A.space, 0, images, "morph")
        for n in (2, 3, 4):
            for keys in [(1, 2), (1, 2, 3), (1, 1, 2, 3)][n - 2:n - 1]:
                args = tuple(Vector.basis(k) for k in keys)
                assert cumulants(A, A, f, args).is_zero()

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_triple_route_random(self, seed):
        rng = random.Random(seed)
        A, B = random_algebra_pair(rng)
        f = random_unital_map(rng, A, B)
        for n in (2, 3, 4):
            cumulants(A, B, f, random_args(rng, A.space, n))

    def test_route_disagreement_raises(self):
        # a deliberately broken route comparison: tamper with f between routes is not
        # possible through the public API, so check the exception plumbing directly
        A = exterior_two()
        f = LinOp.from_dict(A.space, A.space, 0, {0: Vector.basis(0)})
        args = (Vector.basis(1), Vector.basis(2))
        r1 = cumulant_partition(A, A, f, args)
        r2 = cumulant_on(A, A, f, args)
        assert r1 == r2

    def test_composition_compatibility(self):
        rng = random.Random(13)
        A = random_algebra(rng, 1)
        B = random_algebra(rng, 1)
        C = random_algebra(rng, 1)
        f = random_unital_map(rng, A, B)
        g = random_unital_map(rng, B, C)
        kf = cumulant_lift(A, B, f, 4)
        kg = cumulant_lift(B, C, g, 4)
        kgf = cumulant_lift(A, C, g @ f, 4)
        comp = kg.compose(kf)
        S = SymSpace(A.space, 4)
        for n in range(1, 5):
            for w in S.words_of_weight(n):
                assert kgf.component(n, w) == comp.component(n, w), (n, w)


class TestKoszulBrackets:
    def test_second_display(self):
        rng = random.Random(17)
        A = exterior_two()
        delta = random_unital_operator(rng, A, 1)
        for k1 in A.space.keys():
            for k2 in A.space.keys():
                a, b = Vector.basis(k1), Vector.basis(k2)
                s = (-1) ** (A.space.degree(k1) * A.space.degree(k2))
                expect = (delta(A.mul(a, b)) - A.mul(delta(a), b)
                          - A.mul(delta(b), a).scale(s))
                assert koszul_closed(A, delta, (a, b)) == expect

    def test_derivation_has_no_second_bracket(self):
        # de Rham d on the guarded polynomial-deRham algebra is a derivation
        A = GuardedFreeAlgebra([("y", 0, None), ("dy", 1, None)], 8)
        images = {}
        for key in A.space.keys():
            a, b = key
            images[key] = A.monomial({"y": a - 1, "dy": b + 1}, a) if a >= 1 and b == 0 else Vector.zero()
        d = LinOp.from_dict(A.space, A.space, 1, images, "d")
        keys = [k for k in A.space.keys() if sum(k) <= 3]
        assert koszul_vanishes(A, d, 2, keys) is None
        assert diff_order(A, d, 3) == 1

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_triple_route_random(self, seed):
        rng = random.Random(seed)
        A = random_algebra(rng)
        delta = random_unital_operator(rng, A, rng.choice([-1, 0, 1]))
        for n in (2, 3, 4, 5):
            koszul_brackets(A, delta, random_args(rng, A.space, n))

    def test_recursion_evaluates_delta_at_two_n_points(self):
        # each state K_{m+1}(a_1, ..., a_m, c) is evaluated once, with c a basis
        # key; the leaves (m = 0) are the products of nonempty sub-multisets of
        # xi, y, ..., y: y^j for 1 <= j <= n-1 and xi y^j for 0 <= j <= n-1, so
        # delta.on_key is called 2n - 1 times there and once more for delta(1)
        # (a memo of prefix brackets only called it 2^n times)
        A = GuardedFreeAlgebra([("y", 0, None), ("xi", 1, None)], 5)
        d_dy = OnKeyCounted(A.space, A.space, 0,
                            lambda k: Vector.basis((k[0] - 1, k[1]), k[0]) if k[0] else Vector.zero(),
                            "d/dy")
        y, xi = (1, 0), (0, 1)
        for n in (2, 3, 4, 5):
            d_dy.calls = 0
            koszul_recursion(A, d_dy, (xi,) + (y,) * (n - 1))
            assert d_dy.calls == 2 * n, n

    def test_one_memo_over_a_walk_of_multisets(self):
        # koszul_vanishes walks the 10 multisets of size 3 over the generators
        # y, z, w with one memo.  Its level-0 table (empty prefix) lives for the
        # whole walk, and every leaf key is a monomial of length 1 to 3 in
        # y, z, w, so delta.on_key is called once per such monomial (3 + 6 + 10
        # = 19) and once per tuple for delta(1): 19 + 10 = 29 calls (a memo of
        # prefix brackets only called delta 65 times)
        A = GuardedFreeAlgebra([("y", 0, None), ("z", 2, None), ("w", 0, None)], 6)
        d_dy = OnKeyCounted(A.space, A.space, 0,
                            lambda k: Vector.basis((k[0] - 1,) + k[1:], k[0]) if k[0] else Vector.zero(),
                            "d/dy")
        assert koszul_vanishes(A, d_dy, 3) is None
        assert d_dy.calls == 29

    def test_zero_product_prunes_its_branch(self):
        # on (xi, xi, y) the products xi * xi and xi * (xi y) vanish, so no state
        # is evaluated below them: the tables hold K_3(xi, xi, y), the three
        # states of prefix (xi,) and the three leaves xi, y, xi y
        A = GuardedFreeAlgebra([("y", 0, None), ("xi", 1, None)], 5)
        d_dy = OnKeyCounted(A.space, A.space, 0,
                            lambda k: Vector.basis((k[0] - 1, k[1]), k[0]) if k[0] else Vector.zero(),
                            "d/dy")
        y, xi = (1, 0), (0, 1)
        memo: dict = {}
        value = koszul_recursion(A, d_dy, (xi, xi, y), memo)
        assert d_dy.calls == 4
        assert {m: (prefix, set(table)) for m, (prefix, table) in memo.items()} == {
            0: ((), {xi, y, (1, 1)}),
            1: ((xi,), {xi, y, (1, 1)}),
            2: ((xi, xi), {y}),
        }
        assert value == koszul_closed(A, d_dy, tuple(Vector.basis(k) for k in (xi, xi, y)))

    def test_tables_hold_at_most_dim_a_entries(self, monkeypatch):
        # the states of one level are keyed by basis keys, so across a
        # koszul_vanishes scan no table outgrows the basis
        A = GuardedFreeAlgebra([("y", 0, None), ("xi", 1, None), ("z", 2, None)], 6)
        rng = random.Random(3)
        keys = A.space.keys()
        delta = LinOp.from_dict(A.space, A.space, 1, {
            k: random_homogeneous(rng, A.space, A.space.degree(k) + 1,
                                  [j for j in keys if sum(j) <= sum(k)])
            for k in keys if k != A.unit_key}, "delta")
        sizes = []

        def recorded(A, delta, keys, memo=None):
            out = koszul_recursion(A, delta, keys, memo)
            sizes.extend(len(table) for _, table in memo.values())
            return out

        monkeypatch.setattr(commalg, "koszul_recursion", recorded)
        for n in (2, 3):
            koszul_vanishes(A, delta, n, [k for k in keys if sum(k) <= 2])
        assert sizes and max(sizes) <= len(A.space.keys())
        assert max(sizes) > 1

    def test_walk_skips_what_canonical_word_drops(self, monkeypatch):
        # koszul_vanishes walks the multisets of multisets_by_weight, which are
        # words_over the positions of the distinct keys: lexicographic in the
        # corpus order, a corpus given with repeats included, and without
        # exactly the multisets canonical_word drops (an odd key repeated)
        A = GuardedFreeAlgebra([("y", 0, None), ("xi", 1, None), ("z", 2, None),
                                ("eta", -1, None)], 4)
        delta = LinOp.zero(A.space)
        seen = []

        def recorded(A, delta, keys, memo=None):
            seen.append(keys)
            return Vector.zero()

        monkeypatch.setattr(commalg, "koszul_recursion", recorded)
        rng = random.Random(11)
        for _ in range(4):
            keys = [k for k in A.space.keys() if 0 < sum(k) <= 2]
            rng.shuffle(keys)
            corpus = keys + keys[:3]
            for n in (2, 3):
                seen.clear()
                assert koszul_vanishes(A, delta, n, corpus) is None
                kept = [tup for tup in combinations_with_replacement(keys, n)
                        if canonical_word(A.space, tup) is not None]
                assert seen == kept
                assert [tup for _, cases in multisets_by_weight(A, corpus, n)
                         for tup in cases] == kept
                assert len(kept) < len(list(combinations_with_replacement(keys, n)))

    def test_shared_memo_in_any_order(self):
        # one memo passed to calls on tuples in shuffled order, sharing prefixes
        # of one to four arguments or none, with delta(1) != 0: every value
        # equals that of a call with a memo of its own
        rng = random.Random(43)
        A = GuardedFreeAlgebra([("y", 0, None), ("xi", 1, None), ("z", 2, None)], 6)
        keys = A.space.keys()
        images = {k: random_homogeneous(rng, A.space, A.space.degree(k) + 1,
                                        [j for j in keys if sum(j) <= sum(k) + 1])
                  for k in keys if sum(k) < 6}
        images[A.unit_key] = A.monomial({"xi": 1}, 2)
        delta = LinOp.from_dict(A.space, A.space, 1, images, "delta")
        low = [k for k in keys if 0 < sum(k) <= 1]
        tuples = [tuple(Vector.basis(k) for k in tup)
                  for n in (1, 2, 3) for tup in combinations_with_replacement(low, n)]

        def mixed(n):
            # arguments with parts of two degrees, so one call has several kernel calls
            return tuple(Vector.basis(A.unit_key, rng.randint(1, 3))
                         + random_homogeneous(rng, A.space, rng.choice([1, 2]), low)
                         for _ in range(n))

        heads = [mixed(2) for _ in range(3)]
        tuples += [head + mixed(rng.randint(0, 2)) for head in heads * 3]
        rng.shuffle(tuples)
        memo: dict = {}
        for args in tuples:
            assert koszul_on(A, delta, args, memo) == koszul_on(A, delta, args)

    def test_shared_memo_over_multi_term_products(self):
        # on random algebras rebased so that products of basis keys have
        # several terms, with delta(1) != 0 and inhomogeneous multi-term
        # arguments: one memo shared by calls in shuffled order gives the value
        # of a memo per call and of the closed formula
        rng = random.Random(29)
        multi_term = False
        for _ in range(6):
            A = rebased(rng, random_algebra(rng))
            keys = A.space.keys()
            multi_term |= any(len(tuple(A.mul_keys(i, j))) > 1 for i in keys for j in keys)
            images = {k: random_homogeneous(rng, A.space, A.space.degree(k)) for k in keys}
            images[A.unit_key] += Vector.basis(A.unit_key, rng.randint(1, 3))
            delta = LinOp.from_dict(A.space, A.space, 0, images, "delta")
            assert not delta(A.unit()).is_zero()
            heads = [random_args(rng, A.space, 2) for _ in range(2)]
            tuples = [random_args(rng, A.space, n) for n in (1, 2, 3, 4)]
            tuples += [head + random_args(rng, A.space, rng.randint(0, 2)) for head in heads * 2]
            rng.shuffle(tuples)
            memo: dict = {}
            for args in tuples:
                value = koszul_on(A, delta, args, memo)
                assert value == koszul_on(A, delta, args)
                assert value == koszul_closed(A, delta, args)
        assert multi_term

    def test_unit_corrected_recursion_at_arity_five(self):
        # delta = D + L_a with D(1) = 0 and a = 3 + y, so delta(1) = a != 0; the
        # unit correction removes L_a, whose brackets vanish: K_5(delta) = K_5(D),
        # by the recursion and by the closed formula
        rng = random.Random(5)
        A = GuardedFreeAlgebra([("y", 0, None), ("xi", 1, None), ("z", 2, None)], 6)
        keys = A.space.keys()
        images = {k: random_homogeneous(rng, A.space, A.space.degree(k),
                                        [j for j in keys if sum(j) < sum(k)])
                  for k in keys if k != A.unit_key}
        D = LinOp.from_dict(A.space, A.space, 0, images, "D")
        a = A.unit().scale(3) + A.monomial({"y": 1})
        delta = D + LinOp(A.space, A.space, 0, lambda k: A.mul(a, Vector.basis(k)), "L_a")
        assert delta(A.unit()) == a
        low = [k for k in keys if sum(k) <= 1]
        args = tuple(random_homogeneous(rng, A.space, d, low) for d in (0, 1, 2, 0, 2))
        value = koszul_on(A, delta, args)
        assert not value.is_zero()
        assert value == koszul_closed(A, delta, args)
        assert value == koszul_on(A, D, args)

    def test_unit_corrected_multiplication_operator(self):
        A = exterior_two()
        a = Vector.basis(1, 3)
        mult = LinOp(A.space, A.space, 1, lambda k: A.mul(a, Vector.basis(k)), "a*")
        for k in A.space.keys():
            assert koszul_recursion(A, mult, (k,)).is_zero()
            assert koszul_closed(A, mult, (Vector.basis(k),)).is_zero()
        assert diff_order(A, mult, 3) == 0

    def test_lie_morphism_property(self):
        rng = random.Random(23)
        A = random_algebra(rng, 1)
        d1 = random_unital_operator(rng, A, 1)
        d2 = random_unital_operator(rng, A, -1)
        lift1, lift2 = kos_lift(A, d1, 4), kos_lift(A, d2, 4)
        lift_br = kos_lift(A, d1.bracket(d2), 4)
        br = lift1.bracket(lift2)
        S = SymSpace(A.space, 3)
        for n in range(1, 4):
            for w in S.words_of_weight(n):
                assert lift_br.component(n, w) == br.component(n, w), (n, w)

    def test_dg_intertwining(self):
        # f = exp(delta) commutes with delta; then kappa(f) intertwines the lifts
        rng = random.Random(29)
        A = random_algebra(rng, 2)
        delta = random_nilpotent_operator(rng, A, 0)
        f = exp_endomorphism(A, delta, 4)
        kf = cumulant_lift(A, A, f, 4)
        kd = kos_lift(A, delta, 4)
        S = SymSpace(A.space, 4)
        lhs = kf.as_map(S, S) @ kd.as_map(S)
        rhs = kd.as_map(S) @ kf.as_map(S, S)
        words = [w for w in S.keys() if len(w) <= 3]
        assert lhs.first_difference(rhs, words) is None


class TestOddRepeats:
    def test_every_family_vanishes_where_an_odd_key_repeats(self):
        # the multiset scans (multisets_by_weight) leave out a multiset that
        # repeats an odd key.  On FIX-2's de Rham algebra (dy, dz odd), in every
        # order of every such multiset of its keys of weight <= 2 and arity <=
        # 3, the Koszul brackets of random operators (delta(1) zero or not),
        # the cumulants of a random unital map and the multiderivation defect
        # K(head, bc) - K(head, b)c -+ K(head, c)b read by verify_poisson all
        # vanish, by both routes; each family is nonzero on some other multiset
        A = fix2().A
        rng = random.Random(5)
        low = [k for k in A.space.keys() if sum(k) <= 1]
        corpus = [k for k in A.space.keys() if sum(k) <= 2]
        odd = [k for k in corpus if A.space.degree(k) % 2]
        assert len(odd) == 6

        def images(degree, unit):
            out = {k: random_homogeneous(rng, A.space, A.space.degree(k) + degree, low)
                   for k in A.space.keys() if k != A.unit_key}
            out[A.unit_key] = unit(degree)
            return out

        ops = [LinOp.from_dict(A.space, A.space, degree, images(degree, unit), "delta")
               for degree in (-1, 0, 1)
               for unit in (lambda _: Vector.zero(),
                            lambda d: random_homogeneous(rng, A.space, d, low))]
        f = LinOp.from_dict(A.space, A.space, 0, images(0, lambda _: A.unit()), "f")

        def defect(op, tup):
            head, b, c = tup[:-2], tup[-2], tup[-1]
            sign = -1 if (A.space.degree(b) % 2 and A.space.degree(c) % 2) else 1
            lhs = expand_multilinear(tuple(map(Vector.basis, head)) + (Vector(A.mul_keys(b, c)),),
                                     lambda *keys: koszul_recursion(A, op, keys))
            return (lhs - A.mul(koszul_recursion(A, op, head + (b,)), Vector.basis(c))
                    - A.mul(koszul_recursion(A, op, head + (c,)), Vector.basis(b)).scale(sign))

        def values(tup):
            args = tuple(map(Vector.basis, tup))
            for op in ops:
                yield koszul_closed(A, op, args)
                value = koszul_recursion(A, op, tup)
                # verify_poisson reads the defect as the recursion's next bracket
                assert defect(op, tup) == value
                yield value
            yield cumulant_partition(A, A, f, args)
            yield cumulant_recursion(A, A, f, tup)

        nonzero = set()
        repeats = 0
        for n in (2, 3):
            for tup in combinations_with_replacement(corpus, n):
                if canonical_word(A.space, tup) is not None:
                    nonzero.update(i for i, v in enumerate(values(tup)) if not v.is_zero())
                    continue
                repeats += 1
                for order in set(permutations(tup)):
                    assert all(v.is_zero() for v in values(order)), order
        assert repeats == 6 + 6 * 13
        assert nonzero == set(range(2 * len(ops) + 2))


class TestOrderFiltration:
    def test_second_order_operator(self):
        # second derivative on truncated polynomials has order exactly 2
        A = GuardedFreeAlgebra([("y", 0, None)], 6)
        images = {}
        for key in A.space.keys():
            (a,) = key
            images[key] = Vector.basis((a - 2,), a * (a - 1)) if a >= 2 else Vector.zero()
        d2 = LinOp.from_dict(A.space, A.space, 0, images, "d2")
        keys = [k for k in A.space.keys() if k[0] <= 1]
        assert koszul_vanishes(A, d2, 2, keys) is not None
        assert diff_order(A, d2, 4, keys) == 2

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_scan_memo_against_closed_formula(self, seed):
        # the memoized scan finds the same first witness, or none, as the
        # closed formula on each multiset, for operators with and without
        # delta(1) = 0 and key orders that are not the basis order
        rng = random.Random(seed)
        A = random_algebra(rng)
        degree = rng.choice([-1, 0, 1])
        images = {k: random_homogeneous(rng, A.space, A.space.degree(k) + degree)
                  for k in A.space.keys()}
        if rng.random() < 0.5:
            images[A.unit_key] = Vector.zero()
        delta = LinOp.from_dict(A.space, A.space, degree, images, "delta")
        keys = rng.sample(list(A.space.keys()), len(A.space.keys()))

        def closed_scan(n):
            for tup in combinations_with_replacement(keys, n):
                if canonical_word(A.space, tup) is not None and not koszul_closed(
                        A, delta, tuple(Vector.basis(k) for k in tup)).is_zero():
                    return tup
            return None

        for n in (1, 2, 3, 4):
            assert koszul_vanishes(A, delta, n, keys) == closed_scan(n), n

    def test_vanishing_propagates(self):
        rng = random.Random(31)
        A = random_algebra(rng, 3)
        delta = random_unital_operator(rng, A, 1)
        k = diff_order(A, delta, 4)
        if k is not None:
            for n in range(k + 1, 6):
                assert koszul_vanishes(A, delta, n) is None


class TestExpEndomorphism:
    def test_zero_gives_identity(self):
        A = exterior_two()
        e = exp_endomorphism(A, LinOp.zero(A.space), 1)
        assert e.first_difference(LinOp.identity(A.space), A.space.keys()) is None

    def test_exp_inverse(self):
        rng = random.Random(37)
        A = random_algebra(rng, 1)
        delta = random_nilpotent_operator(rng, A, 0)
        m = 5
        e1 = exp_endomorphism(A, delta, m)
        e2 = exp_endomorphism(A, delta.scale(-1), m)
        assert (e1 @ e2).first_difference(LinOp.identity(A.space), A.space.keys()) is None

    def test_bad_certificate(self):
        A = exterior_two()
        idm = LinOp.identity(A.space)
        with pytest.raises(ValueError):
            exp_endomorphism(A, idm, 3)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), template=st.integers(0, 3))
    @example(seed=41, template=1)
    def test_exp_koszul_equals_cumulant_exp(self, seed, template):
        # the exponential version: exp(Kos(delta)) = kappa(exp(delta)) as
        # coalgebra morphisms, arity <= 3, for a random nilpotent degree-0 delta
        # on a random algebra of each randgen template
        rng = random.Random(seed)
        A = random_algebra(rng, template)
        delta = random_nilpotent_operator(rng, A, 0)
        m = 5
        f = exp_endomorphism(A, delta, m)
        kf = cumulant_lift(A, A, f, 3)
        S = SymSpace(A.space, 3)
        kd_map = kos_lift(A, delta, 3).as_map(S)
        # exp of the coderivation as a map on words (nilpotent: weight-lowering + nilpotent linear part)
        exp_map = LinOp.identity(S)
        term = LinOp.identity(S)
        for j in range(1, 3 * m):
            term = Q(1, j) * (kd_map @ term)
            exp_map = exp_map + term
            if term.is_zero_on(S.keys()):
                break
        kf_map = kf.as_map(S, S)
        assert exp_map.first_difference(kf_map, S.keys()) is None


class TestLiftedMCSums:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3), pole=st.booleans())
    def test_lifted_sums_are_the_ordered_tuple_sums(self, seed, n, pole):
        # mc_sum of the Koszul-bracket and cumulant lifts reads one canonical word
        # per multiset of the support of a, against exp_series over the
        # recursions, which visits every ordered tuple of it.  a lives at orders
        # 0 and 1, or has a key at the pole order -1, and the quotient
        # A[t]/(t^{M+1}) is taken at an order M that no term reaches
        rng = random.Random(seed)
        A, B = random_algebra_pair(rng)
        td, top = rng.choice([0, 2]), rng.randint(0, 2)
        D = TOp({m: random_unital_operator(rng, A, 1 - m * td) for m in range(top + 1)},
                A.space, A.space, 1, td)

        def coefficient(m):
            # f_0 is unital, and every higher coefficient kills the unit
            if m == 0:
                return random_unital_map(rng, A, B)
            return LinOp.from_dict(A.space, B.space, -m * td, {
                k: random_homogeneous(rng, B.space, A.space.degree(k) - m * td)
                for k in A.space.keys() if k != A.unit_key})

        f = TOp({m: coefficient(m) for m in range(top + 1)}, A.space, B.space, 0, td)
        support = rng.sample([(m, k) for m in range(2) for k in A.space.keys()], rng.randint(1, 4))
        if pole:
            support[0] = (-1, support[0][1])
        a = Vector({key: Q(rng.randint(-3, 3), rng.randint(1, 3)) for key in support})
        M = n * (1 + top)
        At, Bt = TruncatedTAlgebra(A, M, td), TruncatedTAlgebra(B, M, td)
        Dflat, fflat = flatten_top(D, M), flatten_top(f, M)
        arities = range(1, n + 1)
        assert mc_sum(kos_lift(At, Dflat, n), a, n) == exp_series(
            lambda xs: koszul_on(At, Dflat, xs), a, arities)
        assert mc_sum(cumulant_lift(At, Bt, fflat, n), a, n) == exp_series(
            lambda xs: cumulant_on(At, Bt, fflat, xs), a, arities)


def cached_images(ops) -> list:
    """A copy of each operator's cached images, coefficient by coefficient."""
    return [{k: dict(v.items()) for k, v in op._cache.items()} for op in ops]


def assert_images_unmutated(ops, work) -> None:
    """Run ``work`` twice: the first run fills the operators' caches, and the
    second, which is handed the cached images (through ``koszul_recursion``'s
    shared values), must leave every one of them as it found it."""
    work()
    before = cached_images(ops)
    assert any(before)
    work()
    assert cached_images(ops) == before


class TestSharedValues:
    # koszul_recursion returns its memo entries and delta's own on_key images
    # without copying them; no caller may mutate what it is handed

    def test_bv_check_on_fix2(self):
        f2 = fix2()
        Delta = f2.delta_series()
        assert_images_unmutated([Delta.coeff(n) for n in Delta.support()], lambda: bv_check(
            f2.A, Delta, -1, 3, 4, order_keys=f2.low_keys(2)))

    def test_kos_lift_mc_sum_on_fix1(self):
        f = fix1()
        delta, _ = fix1_perturbation(f)
        D = f.contraction.d_A + delta
        y, ydy = f.A.monomial({"y": 1}), f.A.monomial({"y": 1, "dy": 1})
        a = y.scale(2) + ydy
        for op in (delta, D):
            assert_images_unmutated([op], lambda: mc_sum(kos_lift(f.A, op, 3), a, 3))
        assert not mc_sum(kos_lift(f.A, delta, 3), a, 3).is_zero()

    def test_koszul_brackets_on_random_vectors(self):
        rng = random.Random(31)
        for _ in range(8):
            A = random_algebra(rng)
            degree = rng.choice([-1, 0, 1])
            # delta(1) random too, so the unit-corrected leaves are exercised
            delta = LinOp.from_dict(A.space, A.space, degree, {
                k: random_homogeneous(rng, A.space, A.space.degree(k) + degree)
                for k in A.space.keys()}, "delta")
            tuples = [random_args(rng, A.space, n) for n in (1, 2, 3, 4)]
            assert_images_unmutated([delta], lambda: [koszul_brackets(A, delta, args)
                                                      for args in tuples])


def koszul_mc_series(A, delta, a, nilpotency):
    """sum_n K(delta)_n(a,...,a)/n! for a degree-0 a, which ``bv_mc_check``
    cross-checks against e^{-a} delta(e^a) (its nilpotency option)."""
    flat_a = Vector(((0, k), c) for k, c in a.items())
    _, res = bv_mc_check(A, TOp.lift(delta, 2), flat_a, -1, 0, 2 * nilpotency - 2,
                         nilpotency=nilpotency)
    return Vector((k, c) for (n, k), c in res.items() if n == 0)


class TestMCEval:
    def test_zero_element(self):
        A = exterior_two()
        rng = random.Random(43)
        delta = random_unital_operator(rng, A, 1)
        assert koszul_mc_series(A, delta, Vector.zero(), 2).is_zero()

    def test_derivation_case(self):
        # derivation: only K_1 survives, result is delta(a) for degree-0 nilpotent a
        # d = s d/du, an odd derivation of degree -1 on K[s] (x) Lambda(u, w)
        A = GuardedFreeAlgebra([("s", 0, None), ("u", 1, None), ("w", -1, None)], 8)
        images = {}
        for key in A.space.keys():
            k, cu, cw = key
            images[key] = (A.monomial({"s": k + 1, "w": cw}) if cu and k + 1 + cw <= 8
                           else Vector.zero())
        d = LinOp.from_dict(A.space, A.space, -1, images, "d")
        keys = [k for k in A.space.keys() if sum(k) <= 3]
        assert koszul_vanishes(A, d, 2, keys) is None
        a = A.monomial({"s": 1, "u": 1, "w": 1}, 3)
        val = koszul_mc_series(A, d, a, 3)
        assert val == d(a) and not val.is_zero()

    def test_odd_element_rejected(self):
        A = exterior_two()
        d = LinOp.zero(A.space, degree=1)
        with pytest.raises(ValueError):
            koszul_mc_series(A, d, Vector.basis(1), 2)

    def test_random_nilpotent(self):
        rng = random.Random(47)
        A = random_algebra(rng, 1)
        delta = random_unital_operator(rng, A, 1)
        a = random_homogeneous(rng, A.space, 0, [k for k in A.space.keys() if k != A.unit_key])
        koszul_mc_series(A, delta, a, 4)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_mc_cumulant_identity(self, seed):
        # the exponential version: sum kappa(f)_n(a,...,a)/n! = log(f(e^a)) for a
        # degree-0 a in the augmentation ideal.  f maps augmentation ideals into
        # each other, and their cubes vanish in every randgen template, so
        # kappa_n(a,...,a) = 0 for n > 4; the sum runs one arity past that
        rng = random.Random(seed)
        A, B = random_algebra_pair(rng)
        g = random_unital_map(rng, A, B)
        f = LinOp(A.space, B.space, 0, lambda k: g.on_key(k) if k == A.unit_key else Vector(
            {kk: c for kk, c in g.on_key(k).items() if kk != B.unit_key}), "f")
        a = random_homogeneous(rng, A.space, 0, [k for k in A.space.keys() if k != A.unit_key])
        lhs = exp_series(lambda xs: cumulant_on(A, B, f, xs), a, range(1, 6))
        # log(1 + x) for the nilpotent x = f(e^a) - 1
        cube = reduce(A.mul, (a, a, a), A.unit())
        assert cube.is_zero()
        ea = exp_series(lambda xs: reduce(A.mul, xs, A.unit()), a, range(3))
        x = f(ea) - B.unit()
        rhs = Vector.zero()
        term = B.unit()
        for n in range(1, 6):
            term = B.mul(term, x)
            if term.is_zero():
                break
            rhs = rhs + term.scale(Q((-1) ** (n - 1), n))
        assert lhs == rhs
