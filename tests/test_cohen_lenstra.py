from fractions import Fraction

import numpy as np
import pytest

from quadclass.abelian import AbelianGroup
from quadclass.cohen_lenstra import (
    DivisibilityComparison,
    empirical_cl_comparison,
    empirical_cl_comparisons,
    enumerate_groups,
    partial_average,
    predicted_divisibility,
    prime_reciprocal_sum,
    weight,
    weighted_sum_coprime,
)
from quadclass.forms import fundamental_mask, is_fundamental
from quadclass.ntheory import factorize, primes_up_to

from _oracles import class_number_by_box_scan, partition_count, sweep_counts_by_strides


def test_enumeration_counts_match_partition_product():
    for n in range(1, 2001):
        groups = enumerate_groups(n)
        want = 1
        for e in factorize(n).values():
            want *= partition_count(e)
        assert len(groups) == want, n
        assert len({g.invariant_factors for g in groups}) == len(groups)
        for g in groups:
            assert g.order == n


def test_enumeration_small_tables():
    assert [g.invariant_factors for g in enumerate_groups(1)] == [()]
    assert {g.invariant_factors for g in enumerate_groups(4)} == {(4,), (2, 2)}
    assert {g.invariant_factors for g in enumerate_groups(36)} == {
        (36,),
        (3, 12),
        (2, 18),
        (6, 6),
    }


def test_weights_exact():
    assert weight(AbelianGroup(())) == 1
    assert weight(AbelianGroup((5,))) == Fraction(1, 4)
    assert weight(AbelianGroup((7,))) == Fraction(1, 6)
    assert weight(AbelianGroup((3, 3))) == Fraction(1, 48)
    assert weight(AbelianGroup((2, 2))) == Fraction(1, 6)


def test_weighted_sum_trivial_when_all_orders_blocked():
    S = [int(p) for p in primes_up_to(20)]
    assert weighted_sum_coprime(S, 20) == 1


def test_weighted_sum_small_case():
    # orders 1 and 3 survive S = {2}, x = 3: 1 + 1/2
    assert weighted_sum_coprime([2], 3) == Fraction(3, 2)


def test_weighted_sum_monotone_and_divergence_bound():
    prev = Fraction(0)
    for x in (100, 1000, 10000):
        total = weighted_sum_coprime([2, 3], x)
        lower = prime_reciprocal_sum([2, 3], x)
        assert total > lower
        assert total >= prev
        prev = total


@pytest.mark.parametrize("S", [[0], [1], [2, 4], [-3]])
def test_skipped_primes_must_be_prime(S):
    # 0 would divide by zero and 1 would skip every order
    for fn in (weighted_sum_coprime, prime_reciprocal_sum):
        with pytest.raises(ValueError, match="skipped primes must be prime"):
            fn(S, 10)


def test_prime_reciprocal_sum_direct():
    # primes <= 12 outside {2,3}: 5, 7, 11
    want = Fraction(1, 4) + Fraction(1, 6) + Fraction(1, 10)
    assert prime_reciprocal_sum([2, 3], 12) == want


def test_partial_average_trivial_indicator_trend():
    S = [int(p) for p in primes_up_to(100)]
    values = [partial_average(lambda G: G.order == 1, S, x) for x in (50, 200, 500, 2000)]
    assert values[0] == 1  # no nontrivial coprime order that small
    for a, b in zip(values, values[1:]):
        assert b <= a
    assert all(0 <= v <= 1 for v in values)


def test_partial_average_all_ones():
    assert partial_average(lambda G: True, [2], 500) == 1


def test_partial_average_three_divisibility_frozen():
    # slow c/log(x) convergence: at x = 10^4 the partial average sits
    # well below the infinite-product limit 0.4399; value frozen from
    # exact rational arithmetic
    val = partial_average(lambda G: G.order % 3 == 0, [2], 10**4)
    assert abs(float(val) - 0.3981158788953955) < 1e-12
    assert abs(float(val) - predicted_divisibility(3)) > 0.02


def test_predicted_divisibility_product():
    p3 = predicted_divisibility(3)
    assert abs(p3 - 0.4399) < 5e-4
    direct = 1.0
    k = 1
    while 3.0**-k > 1e-18:
        direct *= 1 - 3.0**-k
        k += 1
    assert abs(p3 - (1 - direct)) < 1e-15
    p5 = predicted_divisibility(5)
    assert abs(p5 - 0.2392) < 5e-4


def test_empirical_comparison_small_against_box_scan():
    X = 3000
    cmp3 = empirical_cl_comparison(3, X)
    assert isinstance(cmp3, DivisibilityComparison)
    divisible = 0
    total = 0
    for d in range(3, X):
        if is_fundamental(-d):
            total += 1
            if class_number_by_box_scan(-d) % 3 == 0:
                divisible += 1
    assert cmp3.count_fundamental == total
    assert cmp3.count_divisible == divisible
    assert cmp3.empirical == Fraction(divisible, total)
    assert cmp3.abs_diff == abs(float(cmp3.empirical) - cmp3.predicted)


def test_empirical_comparisons_from_one_pass_match_the_table():
    # several primes in any order, and one past every class number (and
    # past int64 indexing), against a full-array count on the oracle table
    X = 30_000
    h = np.where(fundamental_mask(X), sweep_counts_by_strides(X), 0)
    ps = [7, 3, 5, 2**61 - 1, 2**64 + 13]
    got = empirical_cl_comparisons(ps, X)
    assert [cmp.p for cmp in got] == ps
    for cmp in got:
        want = np.count_nonzero((h > 0) & (h % cmp.p == 0)) if cmp.p < 2**31 else 0
        assert (cmp.count_divisible, cmp.count_fundamental) == (want, np.count_nonzero(h))
        assert cmp == empirical_cl_comparison(cmp.p, X)
    with pytest.raises(ValueError):
        empirical_cl_comparisons([3, 2], X)


def test_empirical_comparison_reports_at_tiny_bound():
    cmp3 = empirical_cl_comparison(3, 100)
    assert 0 <= float(cmp3.empirical) <= 1
    assert cmp3.predicted == predicted_divisibility(3)


def test_empirical_comparison_rejects_bad_p():
    for bad in (2, 4, 6, 9, 1):
        with pytest.raises(ValueError):
            empirical_cl_comparison(bad, 1000)
