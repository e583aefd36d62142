import random
from fractions import Fraction as Q
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

from gradedhpt.bv import bv_mc_check
from gradedhpt.core import (
    GradedBasis,
    LinOp,
    Overflow,
    Vector,
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
    derivation_defect,
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
from gradedhpt.randgen import (
    random_algebra,
    random_algebra_pair,
    random_homogeneous,
    random_nilpotent_operator,
    random_unital_map,
    random_unital_operator,
)
from gradedhpt.symcoalg import SymSpace, canonical_word
from gradedhpt.tseries import LaurentVec, TOp, laurent_exp


def random_args(rng, space, n: int) -> tuple:
    """n random arguments, each a sum of random_homogeneous parts of one or two
    degrees, so that the routes see combinations with int and Fraction
    coefficients, not only basis vectors."""
    degrees = sorted({space.degree(k) for k in space.keys()})
    return tuple(Vector([kc for d in rng.sample(degrees, rng.randint(1, min(2, len(degrees))))
                         for kc in random_homogeneous(rng, space, d).items()])
                 for _ in range(n))


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
        assert A.mul_keys(k1, k2) == expect
        a, b, c = (Vector.basis(k) for k in (k1, k2, k3))
        assert A.mul(A.mul(a, b), c) == A.mul(a, A.mul(b, c))

    def test_graded_commutativity_random(self):
        rng = random.Random(5)
        for _ in range(10):
            A = random_algebra(rng)
            for i in A.space.keys():
                for j in A.space.keys():
                    s = -1 if (A.space.degree(i) % 2 and A.space.degree(j) % 2) else 1
                    assert A.mul_keys(j, i) == A.mul_keys(i, j).scale(s)


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
            expect = (f(A.product_list([a, b, c]))
                      - B.mul(f(A.mul(a, b)), f(c))
                      - B.mul(f(A.mul(a, c)), f(b)).scale((-1) ** (db * dc))
                      - B.mul(f(A.mul(b, c)), f(a)).scale((-1) ** (da * (db + dc)))
                      + B.product_list([f(a), f(b), f(c)]).scale(2))
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
        r2 = cumulant_recursion(A, A, f, args)
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
        assert derivation_defect(A, d, keys) is None
        assert diff_order(A, d, 3) == 1

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_triple_route_random(self, seed):
        rng = random.Random(seed)
        A = random_algebra(rng)
        delta = random_unital_operator(rng, A, rng.choice([-1, 0, 1]))
        for n in (2, 3, 4, 5):
            koszul_brackets(A, delta, random_args(rng, A.space, n))

    def test_recursion_evaluates_delta_at_two_to_the_n_points(self):
        # with each prefix bracket K_m(a_1, ..., a_m) computed once, the
        # recursion on n basis arguments calls delta 2^n times: delta(1) and
        # 2^n - 1 leaves (the unshared three-way tree calls it 1 + 3^(n-1) times)
        A = GuardedFreeAlgebra([("y", 0, None), ("xi", 1, None)], 5)

        class CountedOp(LinOp):
            calls = 0

            def __call__(self, v):
                CountedOp.calls += 1
                return super().__call__(v)

        d_dy = CountedOp(A.space, A.space, 0,
                         lambda k: Vector.basis((k[0] - 1, k[1]), k[0]) if k[0] else Vector.zero(),
                         "d/dy")
        y, xi = A.monomial({"y": 1}), A.monomial({"xi": 1})
        for n in (2, 3, 4, 5):
            CountedOp.calls = 0
            koszul_recursion(A, d_dy, (xi,) + (y,) * (n - 1))
            assert CountedOp.calls == 2 ** n, n

    def test_one_memo_over_a_walk_of_multisets(self):
        # koszul_vanishes walks the 10 multisets of size 3 over 3 generators
        # with one prefix memo: a tuple that shares its first two arguments
        # with the one before evaluates delta at 4 leaves, one that shares
        # only its first at 6, and one that shares none at 7; with delta(1)
        # once per call, that is 55 + 10 = 65 calls (80 with a memo per tuple)
        A = GuardedFreeAlgebra([("y", 0, None), ("z", 2, None), ("w", 0, None)], 6)

        class CountedOp(LinOp):
            calls = 0

            def __call__(self, v):
                CountedOp.calls += 1
                return super().__call__(v)

        d_dy = CountedOp(A.space, A.space, 0,
                         lambda k: Vector.basis((k[0] - 1,) + k[1:], k[0]) if k[0] else Vector.zero(),
                         "d/dy")
        assert koszul_vanishes(A, d_dy, 3) is None
        assert CountedOp.calls == 65

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
            assert koszul_recursion(A, delta, args, memo=memo) == koszul_recursion(A, delta, args)

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
        value = koszul_recursion(A, delta, args)
        assert not value.is_zero()
        assert value == koszul_closed(A, delta, args)
        assert value == koszul_recursion(A, D, args)

    def test_unit_corrected_multiplication_operator(self):
        A = exterior_two()
        a = Vector.basis(1, 3)
        mult = LinOp(A.space, A.space, 1, lambda k: A.mul(a, Vector.basis(k)), "a*")
        for k in A.space.keys():
            assert koszul_recursion(A, mult, (Vector.basis(k),)).is_zero()
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


def koszul_mc_series(A, delta, a, nilpotency):
    """sum_n K(delta)_n(a,...,a)/n! for a degree-0 a, which ``bv_mc_check``
    cross-checks against e^{-a} delta(e^a) (its nilpotency option)."""
    _, res = bv_mc_check(A, TOp.lift(delta, 2), LaurentVec({0: a}), -1, 0, 2 * nilpotency - 2,
                         nilpotency=nilpotency)
    return res.coeff(0)


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
        assert derivation_defect(A, d, keys) is None
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
        lhs = exp_series(lambda xs: cumulant_recursion(A, B, f, xs), a, range(1, 6))
        # log(1 + x) for the nilpotent x = f(e^a) - 1
        x = f(laurent_exp(A, LaurentVec({0: a}), 3).coeff(0)) - B.unit()
        rhs = Vector.zero()
        term = B.unit()
        for n in range(1, 6):
            term = B.mul(term, x)
            if term.is_zero():
                break
            rhs = rhs + term.scale(Q((-1) ** (n - 1), n))
        assert lhs == rhs
