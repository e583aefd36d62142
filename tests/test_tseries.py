"""Flattening of operator t-series onto the truncated spaces of (order, key) pairs,
and the t-adic perturbation lemma ``spl_t``."""

import pytest

from gradedhpt.commalg import ExplicitFDAlgebra
from gradedhpt.core import GradedBasis, LinOp, Overflow, Vector
from gradedhpt.fixtures import fix2
from gradedhpt.hpt import Contraction, Perturbation, perturb
from gradedhpt.symcoalg import SymSpace
from gradedhpt.tseries import (TOp, TSpace, TruncatedTAlgebra, flat_unital_map, flatten_top, spl_t,
                               unflatten)

# 1, x with x^2 = 0; t has degree 2, so the order-n coefficient of a degree-0
# series lowers degree by 2n
BASIS = GradedBasis.make([("1", 0), ("x", 2)])
ONE_KEY, X = 0, 1
B = ExplicitFDAlgebra(BASIS, {(X, X): Vector.zero()}, ONE_KEY)


def _overflowing(key):
    raise Overflow("order-2 coefficient evaluated")


def series() -> TOp:
    """id + t (x -> 1) + t^2 (a coefficient that raises when evaluated)."""
    lower = LinOp.from_dict(BASIS, BASIS, -2, {X: Vector.basis(ONE_KEY)})
    raising = LinOp(BASIS, BASIS, -4, _overflowing)
    return TOp({0: LinOp.identity(BASIS), 1: lower, 2: raising}, BASIS, BASIS, 0, 2)


def test_cut_order_is_never_evaluated():
    flat = flatten_top(series(), 2)
    assert flat.on_key((1, X)) == Vector({(1, X): 1, (2, ONE_KEY): 1})
    assert flat.on_key((2, X)) == Vector.basis((2, X))
    with pytest.raises(Overflow):
        flat.on_key((0, X))


def test_unflatten_reads_no_order_above_the_coefficient():
    # coefficient n of a series flattened at N is read off t^(N-n) key, so the
    # coefficients 0 and 1 come back without evaluating the one at order 2
    flat = flatten_top(series(), 2)
    back = unflatten(flat, [0, 1], 2)
    assert back.coeff(0).on_key(X) == Vector.basis(X)
    assert back.coeff(1).on_key(X) == Vector.basis(ONE_KEY)
    assert back.coeff(1).degree == -2 and back.known_to == 2
    with pytest.raises(Overflow):
        unflatten(flat, [2], 2).coeff(2).on_key(X)


def test_unital_map_is_the_order_zero_restriction():
    Bt = TruncatedTAlgebra(B, 1, 2)
    f = series()
    restricted = flat_unital_map(f, Bt)
    flat = flatten_top(f, Bt.N)
    for k in BASIS.keys():
        assert restricted.on_key(k) == flat.on_key((0, k))
    assert restricted.on_key(X) == Vector({(0, X): 1, (1, ONE_KEY): 1})


def test_reliability_guard():
    f = TOp({0: LinOp.identity(BASIS)}, BASIS, BASIS, 0, 2, known_to=0)
    with pytest.raises(ValueError):
        flatten_top(f, 1)
    # bv_morphism_to_poisson flattens tau into B[t]/t^(max(N, arity_bound)+1),
    # past its reliable order (it reads orders up to arity_bound - 1 only, and
    # refuses a tau known below that), so the order-zero restriction must not
    # refuse
    restricted = flat_unital_map(f, TruncatedTAlgebra(B, 1, 2))
    assert restricted.on_key(X) == Vector.basis((0, X))


def test_tspace_hash_agrees_with_equality():
    a1 = TSpace(SymSpace(BASIS, 3), 2, 2)
    a2 = TSpace(SymSpace(BASIS, 3), 2, 2)
    assert a1 == a2
    assert hash(a1) == hash(a2)
    assert {a1: 1}.get(a2) == 1
    assert TSpace(SymSpace(BASIS, 3), 3, 2) != a1


def test_spl_t_without_positive_order_lifts_the_contraction():
    f = fix2(3)
    C = f.contraction
    DB, sigma, tau, h = spl_t(C, TOp.lift(C.d_A, 2), 2)
    for series, op in ((DB, C.d_B), (sigma, C.sigma), (tau, C.tau), (h, C.h)):
        assert series.coeffs == {0: op} and series.is_exact()
        assert series.t_degree == 2


def test_spl_t_keeps_the_differential_at_order_zero():
    # FIX-2 along its contraction: the transferred perturbation has t-valuation
    # >= 1, so Delta_B = d_B + O(t); a truncated Delta keeps its known_to
    f = fix2(3)
    C = f.contraction
    DB, _, _, _ = spl_t(C, f.delta_series(), 2)
    assert DB.coeff(0).first_difference(C.d_B, f.B.space.keys()) is None
    assert DB.degree == 1 and DB.t_degree == 2
    Delta = f.delta_series()
    Delta.known_to = 1
    DB, _, _, _ = spl_t(C, Delta, 2)
    assert DB.coeff(0).first_difference(C.d_B, f.B.space.keys()) is None
    assert DB.known_to is not None


@pytest.mark.parametrize("N, branch", [(2, "exact"), (3, "exact"), (0, "cut"), (1, "cut")])
def test_spl_t_is_perturb_on_the_flattened_spaces(N, branch):
    # one lemma: on A[t]/t^(N+1) the perturbation raises the t-order, so
    # (h delta)^(N+1) = 0 and plain perturb applies; spl_t's series terminate
    # on the whole domain of h within N steps when N >= 2 ("exact"), and are
    # cut after order N otherwise ("cut")
    f = fix2(3)
    C = f.contraction
    Delta = f.delta_series()
    outputs = spl_t(C, Delta, N)
    assert all(s.is_exact() == (branch == "exact") for s in outputs)

    def flat(op):
        return flatten_top(TOp.lift(op, Delta.t_degree), N)

    flat_con = Contraction(flat(C.sigma), flat(C.tau), flat(C.h), flat(C.d_A), flat(C.d_B))
    _, pert = perturb(flat_con, Perturbation(flatten_top(Delta, N) - flat(C.d_A), N + 1))
    for series, op in zip(outputs, (pert.d_B, pert.sigma, pert.tau, pert.h)):
        got = flatten_top(series, N)
        for n in range(N + 1):
            keys = [(n, k) for k in series.domain.keys()]
            assert got.first_difference(op, keys) is None, n


@pytest.mark.parametrize("exact", [True, False])
def test_spl_t_outputs_no_more_reliable_than_delta(exact):
    # Delta known only to order 1: no output may claim a higher order, since
    # its order-2 coefficient would need Delta_2, whether the series terminate
    # (N = 3) or are cut after order N (N = 1)
    f = fix2(3)
    Delta = f.delta_series()
    Delta.known_to = 1
    outputs = spl_t(f.contraction, Delta, 3 if exact else 1)
    assert all(series.known_to == 1 for series in outputs)
