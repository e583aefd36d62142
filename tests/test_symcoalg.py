import itertools
import random
from collections import Counter
from fractions import Fraction as Q
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from gradedhpt.core import GradedBasis, LinOp, Overflow, Vector, expand_multilinear, koszul_sign
from gradedhpt.hpt import words_over
from gradedhpt.symcoalg import (
    SymSpace,
    TaylorCoderivation,
    TaylorMorphism,
    antipode,
    canonical_sum,
    canonical_word,
    coalgebra_morphism_defect,
    cocumulant_tilde,
    cocumulants_cofree,
    coderivation_defect,
    convolution,
    counit_map,
    insert_factors,
    insert_letter,
    koszul_cobracket_tilde,
    koszul_cobrackets_cofree,
    star_exp,
    star_log,
    taylor_morphism_from_map,
    tensor_coproduct,
)

BASIS = GradedBasis.make([("x", 0), ("xi", 1), ("eta", 1)])
X, XI, ETA = 0, 1, 2


def rand_vector(rng, space, degree, span=None):
    keys = [k for k in (span if span is not None else space.keys()) if space.degree(k) == degree]
    return Vector({k: Q(rng.randint(-3, 3), rng.choice([1, 1, 2])) for k in keys})


def rand_taylor_morphism(rng, base, arity_bound, space):
    tables = {}
    for n in range(1, arity_bound + 1):
        tables[n] = {}
        for w in space.words_of_weight(n):
            tables[n][w] = rand_vector(rng, base, space.degree(w))
    return TaylorMorphism.from_tables(base, base, tables, arity_bound, label="rand")


def rand_taylor_coderivation(rng, base, arity_bound, space, degree=1):
    tables = {}
    for n in range(1, arity_bound + 1):
        tables[n] = {}
        for w in space.words_of_weight(n):
            tables[n][w] = rand_vector(rng, base, space.degree(w) + degree)
    return TaylorCoderivation.from_tables(base, tables, arity_bound, degree, label="randQ")


class TestWords:
    def test_canonical_sorted_even(self):
        assert canonical_word(BASIS, (X, X, X)) == ((X, X, X), 1)

    def test_odd_square_is_zero(self):
        assert canonical_word(BASIS, (XI, XI)) is None

    def test_odd_swap_sign(self):
        assert canonical_word(BASIS, (ETA, XI)) == ((XI, ETA), -1)

    @pytest.mark.parametrize("base", [BASIS, GradedBasis.make([("a", 0), ("xi", 1), ("b", 2), ("eta", 1)])],
                             ids=["x-xi-eta", "a-xi-b-eta"])
    def test_insert_letter_is_canonical_word(self, base):
        # every letter into every canonical word of weight <= 3: the same word and
        # sign as sorting (k,) + w, and None where an odd k is already there
        outcomes = set()
        for w in SymSpace(base, 3).keys():
            for k in base.keys():
                got = insert_letter(base, k, w)
                assert got == canonical_word(base, (k,) + w), (k, w)
                outcomes.add(None if got is None else got[1])
        assert outcomes == {None, 1, -1}

    @pytest.mark.parametrize("base", [BASIS, GradedBasis.make([("a", 0), ("xi", 1), ("b", 2), ("eta", 1)])],
                             ids=["x-xi-eta", "a-xi-b-eta"])
    def test_insert_factors_is_the_canonical_sum(self, base):
        # one to three two-term factors before every canonical tail of weight <= 2
        # (the empty one included): the inserted terms sum to the canonical sum of
        # the whole multilinear expansion, whose key tuples repeating an odd key
        # drop out
        pairs = [Vector({k: 1, l: Q(-3, 2)}) for k, l in itertools.combinations(base.keys(), 2)]
        dropped = 0
        for tail in SymSpace(base, 2).keys():
            for m in (1, 2, 3):
                for factors in itertools.product(pairs, repeat=m):
                    expansion = [(tuple(k for k, _ in choice) + tail, prod(c for _, c in choice))
                                 for choice in itertools.product(*(f.items() for f in factors))]
                    dropped += sum(canonical_word(base, keys) is None for keys, _ in expansion)
                    got = Vector(insert_factors(base, factors, tail))
                    assert got == canonical_sum(base, expansion), (factors, tail)
        assert dropped

    def test_space_enumeration(self):
        S = SymSpace(BASIS, 3)
        words = S.keys()
        assert () in words
        assert all(len(w) <= 3 for w in words)
        assert (XI, XI) not in words
        assert (X, X, X) in words
        # every word canonical
        for w in words:
            assert canonical_word(BASIS, w) == (w, 1)

    def test_word_order(self):
        # scopes read the words in increasing weight; samples and witnesses
        # rely on the lexicographic order within a weight
        base = GradedBasis.make([("a", 0), ("xi", 1), ("b", 2), ("eta", 1)])

        def brute(keys, W, min_weight=0):
            words = [w for n in range(min_weight, W + 1)
                     for w in itertools.product(sorted(keys), repeat=n)
                     if list(w) == sorted(w)
                     and not any(a == b and base.degree(a) % 2 for a, b in zip(w, w[1:]))]
            return sorted(words, key=lambda w: (len(w), w))

        assert list(SymSpace(base, 4).keys()) == brute(base.keys(), 4)
        assert list(words_over(base, (3, 0, 1), 4, min_weight=2)) == brute((0, 1, 3), 4, 2)

    def test_product_overflow(self):
        S = SymSpace(BASIS, 2)
        with pytest.raises(Overflow):
            S.product_words((X, X), (X,))


class TestCoproduct:
    def test_unit_and_primitives(self):
        S = SymSpace(BASIS, 3)
        assert tuple(S.coproduct(())) == ((() , (), 1),)
        terms = S.coproduct((XI,))
        assert set(terms) == {((), (XI,), 1), ((XI,), (), 1)}

    def test_counital(self):
        S = SymSpace(BASIS, 4)
        for w in S.keys():
            left = Vector([(r, c) for l, r, c in S.coproduct(w) if l == ()])
            assert left == Vector.basis(w)

    def test_cocommutative(self):
        S = SymSpace(BASIS, 4)
        for w in S.keys():
            acc = {}
            for l, r, c in S.coproduct(w):
                acc[(l, r)] = acc.get((l, r), 0) + c
                s = -1 if (S.degree(l) % 2 and S.degree(r) % 2) else 1
                acc[(r, l)] = acc.get((r, l), 0) - s * c
            assert all(v == 0 for v in acc.values())

    def test_coassociative_exhaustive(self):
        S = SymSpace(BASIS, 4)
        for w in S.keys():
            acc = {}
            for l, r, c in S.coproduct(w):
                for l2, r2, c2 in S.coproduct(l):
                    key = (l2, r2, r)
                    acc[key] = acc.get(key, 0) + c * c2
                for l2, r2, c2 in S.coproduct(r):
                    key = (l, l2, r2)
                    acc[key] = acc.get(key, 0) - c * c2
            assert all(v == 0 for v in acc.values()), w


# even letters of degrees 0 and 2, odd letters of degrees 1 and -1
BIALGEBRA_BASIS = GradedBasis.make([("x", 0), ("y", 2), ("xi", 1), ("eta", -1)])


class TestBialgebra:
    """S(V) carries the unshuffle coproduct and the symmetric product at once,
    and they are compatible: the coproduct and the counit are algebra maps,
    S (x) S multiplying by (a (x) b)(c (x) d) = (-1)^{|b||c|} ac (x) bd."""

    W = 4

    @staticmethod
    def tensor_mul(S, x, y):
        return Vector(((ac, bd), (-1 if S.degree(b) % 2 and S.degree(c) % 2 else 1) * c1 * c2 * e * f)
                      for (a, b), c1 in x.items() for (c, d), c2 in y.items()
                      for ac, e in S.mul_keys(a, c) for bd, f in S.mul_keys(b, d))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_coproduct_and_counit_are_multiplicative(self, data):
        S = SymSpace(BIALGEBRA_BASIS, self.W)
        u = data.draw(st.sampled_from(S.keys()))
        w = data.draw(st.sampled_from([v for v in S.keys() if len(u) + len(v) <= self.W]))
        a, b = Vector.basis(u), Vector.basis(w)

        def cop(v):
            return tensor_coproduct(S, Vector.basis, Vector.basis, 0, v)

        assert cop(S.mul(a, b)) == self.tensor_mul(S, cop(a), cop(b)), (u, w)
        eps = counit_map(S, S)
        assert eps(S.mul(a, b)) == S.mul(eps(a), eps(b)), (u, w)

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_product_beyond_the_weight_bound_overflows(self, data):
        S = SymSpace(BIALGEBRA_BASIS, self.W)
        u = data.draw(st.sampled_from([v for v in S.keys() if v]))
        w = data.draw(st.sampled_from([v for v in S.keys() if len(u) + len(v) > self.W]))
        with pytest.raises(Overflow):
            S.mul(Vector.basis(u), Vector.basis(w))


class TestMorphismReconstruction:
    def test_identity_taylor_is_identity(self):
        S = SymSpace(BASIS, 4)
        F = TaylorMorphism.from_linear(LinOp.identity(BASIS))
        M = F.as_map(S, S)
        assert M.first_difference(LinOp.identity(S), S.keys()) is None

    def test_unit_goes_to_unit(self):
        S = SymSpace(BASIS, 3)
        rng = random.Random(7)
        F = rand_taylor_morphism(rng, BASIS, 3, S)
        assert F.apply_word((), 3) == Vector.basis(())

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), arity_bound=st.integers(1, 4))
    def test_partition_formula_equals_star_exp(self, seed, arity_bound):
        # the exponential version: F = exp_*(phi) with phi(w) = f_{|w|}(w) the
        # weight-one data, summed over ordered star powers with weight 1/k!
        rng = random.Random(seed)
        S = SymSpace(BASIS, 5)
        F = rand_taylor_morphism(rng, BASIS, arity_bound, S)
        phi = LinOp(S, S, 0,
                    lambda w: Vector(((k,), c) for k, c in F.component(len(w), w).items())
                    if w else Vector.zero(),
                    "phi1")
        assert F.as_map(S, S).first_difference(star_exp(phi, S), S.keys()) is None

    def test_corestriction_of_morphism(self):
        # non-exact data: F agrees with M up to its arity bound and refuses a
        # word beyond it rather than dropping the missing coefficient
        rng = random.Random(11)
        S = SymSpace(BASIS, 3)
        M = rand_taylor_morphism(rng, BASIS, 3, S).as_map(S, S)
        F = taylor_morphism_from_map(M, 2)
        assert F.as_map(S, S).first_difference(M, [w for w in S.keys() if len(w) <= 2]) is None
        with pytest.raises(Overflow):
            F.apply_word((X, XI, ETA), 3)

    def test_is_coalgebra_morphism(self):
        rng = random.Random(13)
        S = SymSpace(BASIS, 4)
        F = rand_taylor_morphism(rng, BASIS, 4, S)
        assert coalgebra_morphism_defect(F.as_map(S, S)) is None

    def test_defect_witness_on_non_morphisms(self):
        # doubling the weight-two words breaks Delta F = (F (x) F) Delta at the
        # first of them; flipping the sign of S(f) on one word with two odd
        # letters breaks it only through the signs of the unshuffle coproduct
        S = SymSpace(BASIS, 3)
        double = LinOp(S, S, 0, lambda w: Vector.basis(w, 2 if len(w) == 2 else 1), "2^[wt=2]")
        assert coalgebra_morphism_defect(double) == (X, X)
        f = LinOp.from_dict(BASIS, BASIS, 0, {X: Vector.basis(X), XI: Vector.basis(ETA),
                                              ETA: Vector.basis(XI)})
        Sf = TaylorMorphism.from_linear(f).as_map(S, S)
        assert coalgebra_morphism_defect(Sf) is None
        flipped = LinOp(S, S, 0, lambda w: -Sf.on_key(w) if w == (XI, ETA) else Sf.on_key(w))
        assert coalgebra_morphism_defect(flipped) == (XI, ETA)

    def test_apply_linear(self):
        S = SymSpace(BASIS, 3)
        f = LinOp.from_dict(BASIS, BASIS, 0, {X: Vector({X: 2}), XI: Vector({ETA: 1})})
        Sf = TaylorMorphism.from_linear(f)
        out = Sf.as_map(S, S)(Vector.basis((X, X, XI)))
        assert out == Vector.basis((X, X, ETA), 4)


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


class TestMorphismPartitionSum:
    BASE = GradedBasis.make([("x", 0), ("y", 2), ("xi", 1), ("eta", -1)])

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), arity_bound=st.integers(1, 4),
           zeros=st.sampled_from([0.25, 0.5, 0.75]))
    def test_apply_word_is_the_bell_sum(self, seed, arity_bound, zeros):
        # F on a word is the sum over all Bell(n) set partitions of the signed
        # symmetric products of its coefficients on the blocks; a zero
        # coefficient prunes, so the blocks F evaluates are exactly the last
        # blocks of the partition prefixes whose earlier blocks are nonzero
        rng = random.Random(seed)
        base = self.BASE
        S = SymSpace(base, 5)
        tables = {n: {w: Vector() if rng.random() < zeros else rand_vector(rng, base, S.degree(w))
                      for w in S.words_of_weight(n)} for n in range(1, arity_bound + 1)}
        F = TaylorMorphism.from_tables(base, base, tables, arity_bound)
        evaluated = Counter()
        component = F.component

        def counted(n, word):
            evaluated[word] += 1
            return component(n, word)

        F.component = counted

        def coeff(word):
            return tables.get(len(word), {}).get(word, Vector())

        for w in S.keys():
            degs = tuple(map(base.degree, w))
            terms, prefixes = [], set()
            for part in brute_partitions(len(w)):
                blocks = [tuple(w[p] for p in block) for block in part]
                factors = [coeff(b) for b in blocks]
                sign = koszul_sign(sum(part, ()), degs)
                for choice in itertools.product(*(f.items() for f in factors)):
                    cw = canonical_word(base, tuple(k for k, _ in choice))
                    if cw is not None:
                        c = sign * cw[1]
                        for _, x in choice:
                            c *= x
                        terms.append((cw[0], c))
                nonzero = 0
                while nonzero < len(part) and factors[nonzero]:
                    nonzero += 1
                prefixes.update(part[:j] for j in range(1, min(nonzero + 1, len(part)) + 1))
            evaluated.clear()
            assert F.apply_word(w, 5) == Vector(terms), w
            assert evaluated == Counter(tuple(w[p] for p in prefix[-1]) for prefix in prefixes), w


class TestDiagonal:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           degrees=st.lists(st.sampled_from([-1, 0, 1, 2]), min_size=1, max_size=4),
           n=st.integers(1, 4))
    def test_diagonal_is_the_multilinear_extension(self, seed, degrees, n):
        # one read per canonical word with its multinomial weight, against the
        # sum over all ordered key tuples with the Koszul sign of sorting; the
        # polynomial at arity n alone is t_n(x, ..., x)/n!
        rng = random.Random(seed)
        base = GradedBasis.make([(f"e{i}", d) for i, d in enumerate(degrees)])
        F = rand_taylor_morphism(rng, base, 4, SymSpace(base, 4))
        x = Vector({k: Q(rng.randint(-3, 3), rng.randint(1, 3)) for k in base.keys()
                    if rng.random() < 0.8})
        expected = expand_multilinear((x,) * n, lambda *ks: F.eval_keys(ks))
        assert F.evaluate_polynomial(F.diagonal_polynomial(x.keys(), n, n), x) == \
            expected.scale(Q(1, factorial(n)))


class TestCoderivation:
    def test_leibniz_shape(self):
        S = SymSpace(BASIS, 3)
        d = LinOp.from_dict(BASIS, BASIS, 1, {X: Vector.basis(XI)})
        Qd = TaylorCoderivation.from_linear(d)
        out = Qd.apply_word((X, X), 3)
        assert out == Vector.basis((X, XI), 2)

    def test_constant_term(self):
        q0 = Vector.basis(XI)
        Qd = TaylorCoderivation(BASIS, lambda n, w: Vector.zero(), 1, 1, q0=q0)
        assert Qd.apply_word((), 3) == Vector.basis((XI,))
        # q0 raises the weight by one: on a word at the bound that leaves it
        with pytest.raises(Overflow):
            Qd.apply_word((X, X, X), 3)
        no_q0 = TaylorCoderivation(BASIS, lambda n, w: Vector.zero(), 1, 1)
        assert no_q0.apply_word((X, X, X), 3).is_zero()

    def test_weight4_against_permutation_oracle(self):
        rng = random.Random(17)
        S = SymSpace(BASIS, 4)
        Qd = rand_taylor_coderivation(rng, BASIS, 2, S)
        for word in S.words_of_weight(4):
            degs = tuple(BASIS.degree(k) for k in word)
            n = len(word)
            expect = Vector.zero()
            for i in range(n + 1):
                coeff = Q(1, factorial(i) * factorial(n - i))
                for perm in itertools.permutations(range(n)):
                    s = koszul_sign(perm, degs)
                    block = tuple(word[p] for p in perm[:i])
                    rest = tuple(word[p] for p in perm[i:])
                    qv = Qd.eval_keys(block) if i else Qd.q0
                    for k, c in qv.items():
                        cw = canonical_word(BASIS, (k,) + rest)
                        if cw is not None:
                            w2, s2 = cw
                            expect = expect + Vector.basis(w2, coeff * s * s2 * c)
            assert Qd.apply_word(word, 4) == expect, word

    def test_is_coderivation(self):
        rng = random.Random(19)
        S = SymSpace(BASIS, 4)
        Qd = rand_taylor_coderivation(rng, BASIS, 3, S)
        assert coderivation_defect(Qd.as_map(S)) is None

    def test_defect_witness_on_non_coderivations(self):
        # the projection onto weight-two words misses the middle terms of their
        # coproduct; the odd d~ declared even loses the Koszul sign of id (x) Q
        # on (x, xi), where d~(x, xi) = xi xi = 0 needs that sign to cancel
        S = SymSpace(BASIS, 3)
        weight_two = LinOp(S, S, 0, lambda w: Vector.basis(w) if len(w) == 2 else Vector.zero())
        assert coderivation_defect(weight_two) == (X, X)
        d = LinOp.from_dict(BASIS, BASIS, 1, {X: Vector.basis(XI)})
        Qd = TaylorCoderivation.from_linear(d).as_map(S)
        assert coderivation_defect(Qd) is None
        even = LinOp(S, S, 0, Qd.on_key, "d~ as even")
        assert coderivation_defect(even) == (X, XI)


class TestCoderBracket:
    def test_square_zero_linear(self):
        d = LinOp.from_dict(BASIS, BASIS, 1, {X: Vector.basis(XI)})
        Qd = TaylorCoderivation.from_linear(d)
        br = Qd.bracket(Qd)
        S = SymSpace(BASIS, 3)
        assert br.as_map(S).is_zero_on(S.keys())

    def test_arity_one_is_commutator(self):
        rng = random.Random(23)
        S = SymSpace(BASIS, 3)
        q = rand_taylor_coderivation(rng, BASIS, 2, S, degree=1)
        r = rand_taylor_coderivation(rng, BASIS, 2, S, degree=-1)
        br = q.bracket(r)
        for k in BASIS.keys():
            lhs = br.component(1, (k,))
            sign = -1 if (q.degree * r.degree) % 2 else 1
            rhs = (expand_multilinear((r.component(1, (k,)),), lambda j: q.eval_keys((j,)))
                   - sign * expand_multilinear((q.component(1, (k,)),),
                                               lambda j: r.eval_keys((j,))))
            assert lhs == rhs

    def test_bracket_matches_map_commutator(self):
        rng = random.Random(29)
        S = SymSpace(BASIS, 3)
        q = rand_taylor_coderivation(rng, BASIS, 2, S, degree=1)
        r = rand_taylor_coderivation(rng, BASIS, 2, S, degree=1)
        br = q.bracket(r)
        lhs = br.as_map(S)
        rhs = q.as_map(S).bracket(r.as_map(S))
        words = [w for w in S.keys() if len(w) <= 2]
        assert lhs.first_difference(rhs, words) is None

    def test_graded_jacobi(self):
        rng = random.Random(31)
        S = SymSpace(BASIS, 3)
        a = rand_taylor_coderivation(rng, BASIS, 2, S, degree=1)
        b = rand_taylor_coderivation(rng, BASIS, 2, S, degree=0)
        c = rand_taylor_coderivation(rng, BASIS, 2, S, degree=-1)
        # [a,[b,c]] = [[a,b],c] + (-1)^{|a||b|}[b,[a,c]]
        lhs = a.bracket(b.bracket(c))
        rhs1 = a.bracket(b).bracket(c)
        rhs2 = b.bracket(a.bracket(c))
        sign = (-1) ** (a.degree * b.degree)
        words = [w for w in S.keys() if len(w) <= 2]
        for w in words:
            n = len(w)
            assert lhs.component(n, w) == rhs1.component(n, w) + sign * rhs2.component(n, w), w


class TestConvolution:
    def setup_method(self):
        self.S = SymSpace(BASIS, 4)

    def test_counit_is_star_unit(self):
        rng = random.Random(37)
        F = rand_taylor_morphism(rng, BASIS, 3, self.S).as_map(self.S, self.S)
        eps = counit_map(self.S, self.S)
        conv = convolution(eps, F, self.S)
        assert conv.first_difference(F, self.S.keys()) is None

    def test_antipode_inverts_identity(self):
        s = antipode(self.S)
        idm = LinOp.identity(self.S)
        eps = counit_map(self.S, self.S)
        assert convolution(idm, s, self.S).first_difference(eps, self.S.keys()) is None
        assert convolution(s, idm, self.S).first_difference(eps, self.S.keys()) is None

    def test_odd_right_factor_passes_the_left_with_its_sign(self):
        # on x o xi (|x| = 0, |xi| = 1) with F = id and G odd, G(x) = eta and
        # G(xi) = xi o eta: the split (x | xi) gives +x o xi o eta, and the
        # split (xi | x) gives -(xi o eta), G passing the odd xi; the other
        # two splits meet G(1) = G(x o xi) = 0
        S = SymSpace(BASIS, 3)
        G = LinOp.from_dict(S, S, 1, {(X,): Vector.basis((ETA,)), (XI,): Vector.basis((XI, ETA))},
                            "G")
        expected = Vector({(X, XI, ETA): 1, (XI, ETA): -1})
        assert convolution(LinOp.identity(S), G, S).on_key((X, XI)) == expected

    def test_log_exp_roundtrip(self):
        rng = random.Random(41)
        # weight-nonincreasing phi keeps every star power inside the bound
        phi = LinOp(self.S, self.S, 0,
                    lambda w: rand_vector(rng, self.S, self.S.degree(w),
                                          span=[u for u in self.S.keys() if len(u) <= len(w)])
                    if w else Vector.zero(),
                    "phi")
        # freeze phi so both sides see identical values
        for w in self.S.keys():
            phi.on_key(w)
        F = star_exp(phi, self.S)
        back = star_log(F, self.S)
        assert back.first_difference(phi, self.S.keys()) is None

    def test_exp_log_roundtrip_on_morphism(self):
        rng = random.Random(43)
        F = rand_taylor_morphism(rng, BASIS, 4, self.S).as_map(self.S, self.S)
        phi = star_log(F, self.S)
        again = star_exp(phi, self.S)
        assert again.first_difference(F, self.S.keys()) is None

    def test_coalgebra_morphism_iff_log_lands_in_weight_one(self):
        # one direction of the cumulant characterization of coalgebra morphisms
        rng = random.Random(47)
        F = rand_taylor_morphism(rng, BASIS, 4, self.S)
        M = F.as_map(self.S, self.S)
        logF = star_log(M, self.S)
        for w in self.S.keys():
            if not w:
                continue
            img = logF.on_key(w)
            assert all(len(u) == 1 for u in img.keys())
            assert Vector({u[0]: c for u, c in img.items()}) == F.component(len(w), w)

    def test_exp_of_weight_one_data_is_morphism(self):
        rng = random.Random(53)
        tables = {}
        for n in range(1, 5):
            tables[n] = {w: rand_vector(rng, BASIS, self.S.degree(w))
                         for w in self.S.words_of_weight(n)}
        phi = LinOp(self.S, self.S, 0,
                    lambda w: Vector({(k,): c for k, c in tables[len(w)][w].items()}) if w else Vector.zero(),
                    "phi1")
        F = star_exp(phi, self.S)
        assert coalgebra_morphism_defect(F) is None
        FT = taylor_morphism_from_map(F, 4)
        for n in range(1, 5):
            for w in self.S.words_of_weight(n):
                assert FT.component(n, w) == tables[n][w]

    def test_coderivation_reconstruction_via_antipode(self):
        # Q = (Q * s) * id for coderivations
        rng = random.Random(59)
        Qd = rand_taylor_coderivation(rng, BASIS, 3, self.S)
        M = Qd.as_map(self.S)
        k = convolution(M, antipode(self.S), self.S)
        # k lands in weight <= 1 on reduced words, and k * id rebuilds Q
        for w in self.S.keys():
            if w:
                assert all(len(u) <= 1 for u in k.on_key(w).keys())
        Q2 = convolution(k, LinOp.identity(self.S), self.S)
        assert Q2.first_difference(M, [w for w in self.S.keys() if w]) is None


class TestCocumulants:
    def setup_method(self):
        self.S = SymSpace(BASIS, 4)
        self.C = self.S

    def test_morphism_has_vanishing_cocumulants(self):
        rng = random.Random(61)
        F = rand_taylor_morphism(rng, BASIS, 4, self.S).as_map(self.S, self.S)
        for n in (2, 3):
            kco = cocumulants_cofree(self.C, self.C, F, n)
            for w in self.C.reduced_keys():
                assert kco(w).is_zero(), (n, w)

    def test_tilde2_formula(self):
        rng = random.Random(67)
        F = LinOp(self.S, self.S, 0,
                  lambda w: rand_vector(rng, self.S, self.S.degree(w)) if w else Vector.basis(()),
                  "f")
        for w in self.S.keys():
            F.on_key(w)
        kt2 = cocumulant_tilde(self.C, self.C, F, 2)
        for w in self.S.keys():
            if not w:
                continue
            expect = {}
            for u, c in F.on_key(w).items():
                for l, r, s in self.S.reduced_coproduct(u):
                    expect[(l, r)] = expect.get((l, r), 0) + c * s
            for l, r, s in self.S.reduced_coproduct(w):
                for u1, c1 in F.on_key(l).items():
                    for u2, c2 in F.on_key(r).items():
                        key = (u1, u2)
                        expect[key] = expect.get(key, 0) - s * c1 * c2
            expect = {k: v for k, v in expect.items() if v}
            assert kt2(w) == Vector(expect), w

    def test_tilde3_closed_formula(self):
        rng = random.Random(71)
        F = LinOp(self.S, self.S, 0,
                  lambda w: rand_vector(rng, self.S, self.S.degree(w)) if w else Vector.basis(()),
                  "f")
        for w in self.S.keys():
            F.on_key(w)
        kt3 = cocumulant_tilde(self.C, self.C, F, 3)

        def red(u):
            return self.S.reduced_coproduct(u)

        for w in self.S.keys():
            if not w:
                continue
            expect = {}
            # Delta^2 f  (via (Delta (x) id) Delta)
            for u, c in F.on_key(w).items():
                for l, r, s in red(u):
                    for l2, r2, s2 in red(l):
                        key = (l2, r2, r)
                        expect[key] = expect.get(key, 0) + c * s * s2
            # - (f shuffle Delta f) Delta
            for l, r, s in red(w):
                for u1, c1 in F.on_key(l).items():
                    for u2, c2 in F.on_key(r).items():
                        for l2, r2, s2 in red(u2):
                            # shuffle u1 into (l2, r2)
                            triples = [((u1, l2, r2), 1),
                                       ((l2, u1, r2), koszul_sign((1, 0, 2), (self.S.degree(u1), self.S.degree(l2), self.S.degree(r2)))),
                                       ((l2, r2, u1), koszul_sign((1, 2, 0), (self.S.degree(u1), self.S.degree(l2), self.S.degree(r2))))]
                            for key, sgn in triples:
                                expect[key] = expect.get(key, 0) - s * c1 * c2 * s2 * sgn
            # + 2 f^{(x)3} Delta^2
            for l, r, s in red(w):
                for l2, r2, s2 in red(l):
                    for u1, c1 in F.on_key(l2).items():
                        for u2, c2 in F.on_key(r2).items():
                            for u3, c3 in F.on_key(r).items():
                                key = (u1, u2, u3)
                                expect[key] = expect.get(key, 0) + 2 * s * s2 * c1 * c2 * c3
            expect = {k: v for k, v in expect.items() if v}
            assert kt3(w) == Vector(expect), w

    def test_tilde5_pinned(self):
        # each shuffle places the slots by the inverse of its unshuffle, not by
        # the unshuffle itself; the two differ only when three or more slots are
        # shuffled (a shuffle of at most two is its own inverse), first at n = 5.
        # The value is graded-symmetric: the Koszul-signed permutations of a few
        # sorted keys, each with a pinned coefficient
        S = SymSpace(BASIS, 5)
        C = S
        rng = random.Random(1)

        def image(w):
            # weight- and degree-preserving, at most two terms
            same = [u for u in S.words_of_weight(len(w)) if S.degree(u) == S.degree(w)]
            return Vector((u, rng.choice((-2, -1, 1, 2))) for u in rng.sample(same, min(2, len(same))))

        F = LinOp(S, S, 0, lambda w: image(w) if w else Vector.basis(()), "F")
        for w in S.keys():
            F.on_key(w)
        kt5 = cocumulant_tilde(C, C, F, 5)
        x, xi, eta = (X,), (XI,), (ETA,)
        pinned = {
            (X, X, X, X, X): {(x, x, x, x, x): -257640},
            (X, X, X, X, XI): {(x, x, x, x, xi): 45840, (x, x, x, x, eta): 23856},
            (X, X, X, X, ETA): {(x, x, x, x, xi): -25200, (x, x, x, x, eta): -32904},
            (X, X, X, XI, ETA): {(x, x, x, xi, eta): 1878},
        }
        assert S.words_of_weight(5) == tuple(pinned)

        def symmetrized(key, coeff):
            degs = [S.degree(u) for u in key]
            return Vector({tuple(key[p] for p in perm): coeff * koszul_sign(perm, degs)
                           for perm in itertools.permutations(range(len(key)))})

        for w, terms in pinned.items():
            expect = Vector()
            for key, coeff in terms.items():
                expect.add_scaled(symmetrized(key, coeff))
            assert kt5(w) == expect, w
        assert sum(len(kt5(w).keys()) for w in pinned) == 41


class TestKoszulCobrackets:
    def setup_method(self):
        self.S = SymSpace(BASIS, 4)
        self.C = self.S

    def test_coderivation_has_vanishing_cobrackets(self):
        rng = random.Random(73)
        Qd = rand_taylor_coderivation(rng, BASIS, 3, self.S)
        M = Qd.as_map(self.S)
        for n in (2, 3):
            kco = koszul_cobrackets_cofree(self.C, M, n)
            for w in self.C.reduced_keys():
                assert kco(w).is_zero(), (n, w)

    def test_tilde2_formula(self):
        rng = random.Random(79)
        delta = LinOp(self.S, self.S, 1,
                      lambda w: rand_vector(rng, self.S, self.S.degree(w) + 1) if w else Vector.zero(),
                      "delta")
        for w in self.S.keys():
            delta.on_key(w)
        kt2 = koszul_cobracket_tilde(self.C, delta, 2)
        for w in self.S.keys():
            if not w:
                continue
            expect = {}
            for u, c in delta.on_key(w).items():
                for l, r, s in self.S.reduced_coproduct(u):
                    expect[(l, r)] = expect.get((l, r), 0) + c * s
            for l, r, s in self.S.reduced_coproduct(w):
                for u, c in delta.on_key(l).items():
                    expect[(u, r)] = expect.get((u, r), 0) - s * c
                sgn = -s if self.S.degree(l) % 2 else s
                for u, c in delta.on_key(r).items():
                    expect[(l, u)] = expect.get((l, u), 0) - sgn * c
            expect = {k: v for k, v in expect.items() if v}
            assert kt2(w) == Vector(expect), w

    def test_non_coderivation_detected(self):
        # the symmetric product against a fixed element is not a coderivation
        S = self.S
        mul_by = LinOp(S, S, 0, lambda w: S.mul(Vector.basis(w), Vector.basis((X,))) if len(w) < 4 else Vector.zero(), "mx")
        kco = koszul_cobrackets_cofree(self.C, mul_by, 2)
        assert any(not kco(w).is_zero() for w in S.keys() if w)
