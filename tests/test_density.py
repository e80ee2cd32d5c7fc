import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quadclass import abelian, density, forms, ntheory
from quadclass.abelian import is_p_suitable
from quadclass.cohen_lenstra import enumerate_groups
from quadclass.density import (
    CENSUS_REFERENCE_BOUND,
    IntegerSet,
    _suitability_screen,
    _suitable_by_prime_forms,
    all_integers,
    class_order_census,
    dilate,
    estimate,
    exponent3_scan,
    has_suitable_divisor,
    is_suitable_fundamental_disc,
    landau_count,
    landau_ratio_check,
    multiples_of,
    residue_class,
    squarefree_integers,
    suitable_divisor_density,
    suitable_divisor_mask,
)
from quadclass.forms import class_group, is_fundamental
from quadclass.ntheory import ResourceLimitError, factorize, is_squarefree, prime_mask
from quadclass.sweep import sweep_counts

from _oracles import class_number_by_box_scan, suitable_by_enumeration


def _check_mask_against_predicate(A, N=400):
    mask = A.mask_up_to(N)
    assert len(mask) == N + 1
    assert not mask[0]
    for n in range(1, N + 1):
        assert bool(mask[n]) == A.contains(n), (A.name, n)


def test_builders_mask_predicate_agreement():
    sq = squarefree_integers()
    r34 = residue_class(4, [3])
    for A in (
        all_integers(),
        sq,
        r34,
        multiples_of(6),
        residue_class(12, [1, 5, 7, 11]),
        dilate(sq, 9),
        dilate(r34, 2),
        sq & r34,
        sq | multiples_of(4),
        r34 - sq,
        IntegerSet("digits", lambda n: n % 10 == 3, lambda X: np.arange(X + 1) % 10 == 3),
    ):
        _check_mask_against_predicate(A)


@given(st.integers(min_value=1, max_value=30))
def test_dilate_matches_definition(n):
    A = squarefree_integers() & residue_class(4, [3])
    nA = dilate(A, n)
    for m in range(1, 200):
        want = m % n == 0 and A.contains(m // n)
        assert nA.contains(m) == want


def test_dilate_one_is_identity():
    A = squarefree_integers()
    B = dilate(A, 1)
    assert np.array_equal(A.mask_up_to(500), B.mask_up_to(500))


def test_dilated_odds():
    # 2 * odds = {2, 6, 10, ...}
    odds = residue_class(2, [1])
    got = [n for n in range(1, 30) if dilate(odds, 2).contains(n)]
    assert got == [2, 6, 10, 14, 18, 22, 26]


def test_estimate_trivial_and_exact():
    est = estimate(all_integers(), all_integers(), 100)
    assert est.ratio == 1
    est4 = estimate(multiples_of(4), all_integers(), 10**5)
    assert est4.count_member == 25000
    assert est4.count_ambient == 10**5
    assert est4.ratio == Fraction(1, 4)


def test_estimate_counts_intersection():
    # M is measured as M intersect N against N
    sq = squarefree_integers()
    odds = residue_class(2, [1])
    est = estimate(sq, odds, 5000)
    direct = sum(1 for n in range(1, 5001) if n % 2 and is_squarefree(n))
    assert est.count_member == direct
    assert est.count_ambient == 2500


def test_estimate_squarefree_in_three_mod_four():
    target = 8 / math.pi**2
    sq3 = squarefree_integers() & residue_class(4, [3])
    est = estimate(sq3, residue_class(4, [3]), 10**5)
    assert abs(est.decimal - target) < 0.02


def test_estimate_budget_and_empty_ambient():
    # the sieve cap is fixed at 1e8; the check runs before any mask is built
    with pytest.raises(ResourceLimitError, match="sieve budget 100000000$"):
        estimate(all_integers(), all_integers(), 10**8 + 1)
    empty = IntegerSet("none", lambda n: False, lambda X: np.zeros(X + 1, dtype=bool))
    with pytest.raises(ValueError):
        estimate(all_integers(), empty, 100)


def test_dilation_count_identity():
    # counting nA up to nX equals counting A up to X
    A = squarefree_integers() & residue_class(4, [3])
    B = residue_class(4, [3])
    for n in (2, 9, 12):
        X = 10**5 // n
        left = estimate(dilate(A, n), dilate(B, n), n * X)
        right = estimate(A, B, X)
        assert left.count_member == right.count_member
        assert left.count_ambient == right.count_ambient


def _landau_members_brute(x, modulus=4, residues=(1,)):
    out = [1]
    for n in range(2, x + 1):
        if all(p % modulus in residues for p in factorize(n)):
            out.append(n)
    return out


def test_landau_count_brute_force_small():
    table = landau_count(100, 4, [1])
    want = _landau_members_brute(100)
    assert dict(table.samples)[100] == len(want) == 15
    assert want[:6] == [1, 5, 13, 17, 25, 29]
    for x, v in table.samples:
        assert v == len([m for m in want if m <= x]), x


@pytest.mark.parametrize(
    "modulus, residues",
    [(1, (0,)), (1, ()), (4, ()), (4, (1, 3)), (5, (1, 4)), (12, (1, 5, 7, 11))],
)
def test_landau_mask_against_brute_force(modulus, residues):
    """Every prefix count up to 300, so every entry of the sieve mask,
    against trial factorization."""
    want = _landau_members_brute(300, modulus, residues)
    for x in range(1, 301):
        assert landau_count(x, modulus, residues).samples == ((x, sum(m <= x for m in want)),)


def test_landau_all_units_counts_coprime_integers():
    # residues {1,3} mod 4: every odd prime qualifies, members = odds
    table = landau_count(4000, 4, [1, 3])
    for x, v in table.samples:
        assert v == (x + 1) // 2


def test_landau_no_residues_counts_only_one():
    table = landau_count(1000, 3, [])
    for x, v in table.samples:
        assert v == 1


def test_landau_rejects_non_units():
    with pytest.raises(ValueError):
        landau_count(100, 4, [2])


def test_landau_ratio_check_shape():
    samples = landau_ratio_check(10**5, 4, [1])
    xs = [x for x, _ in samples]
    assert xs == sorted(xs) and xs[-1] == 10**5
    assert all(r > 0 for _, r in samples)
    # the constant-exponent case: all units, ratio equals density of odds
    flat = landau_ratio_check(10**5, 4, [1, 3])
    for x, r in flat:
        assert abs(r - 0.5) < 0.01 or x < 100


def test_exponent3_scan_small():
    assert exponent3_scan(20) == []
    found = exponent3_scan(1000)
    discs = [rec.disc for rec in found]
    assert -23 in discs and -31 in discs
    for rec in found:
        assert rec.structure.exponent == 3
        assert is_fundamental(rec.disc)
    # completeness against a direct walk
    direct = [
        -d
        for d in range(3, 1001)
        if is_fundamental(-d) and class_group(-d).structure.exponent == 3
    ]
    assert sorted(discs) == sorted(direct)


def test_class_order_census_strict_bound():
    counts = class_order_census(24, [1])
    # fundamental |D| < 24 with h = 1: 3, 4, 7, 8, 11, 19 (h(-23) = 3)
    assert counts[1] == 6
    counts50 = class_order_census(50, [1, 2, 3])
    by_box = {1: 0, 2: 0, 3: 0}
    for d in range(3, 50):
        if is_fundamental(-d):
            h = class_number_by_box_scan(-d)
            if h in by_box:
                by_box[h] += 1
    assert counts50 == by_box
    # the table holds 0 at every non-fundamental |D|, so order 0 would
    # count those; no order below 1 is a class number
    for orders in ([0], [0, -1], [1, -3]):
        with pytest.raises(ValueError, match="orders must be >= 1"):
            class_order_census(100, orders)


def test_census_reference_bound_configured():
    assert CENSUS_REFERENCE_BOUND == 50_000_000


def test_suitable_divisor_density_tiny_bound_is_zero():
    est = suitable_divisor_density(2, 10)
    assert est.count_member == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_suitability_screen_against_every_group_of_each_order(p):
    """The order screen is exact: True when every abelian group of order
    h is p-suitable, False when none is, None when the order leaves it
    open."""
    for h in range(1, 257):
        verdicts = {is_p_suitable(G, p).suitable for G in enumerate_groups(h)}
        want = verdicts.pop() if len(verdicts) == 1 else None
        assert _suitability_screen(h, p) == want, (h, p)


def test_screen_factors_each_order_once(monkeypatch):
    factored = []

    def counting_factorize(n):
        factored.append(n)
        return ntheory.factorize(n)

    monkeypatch.setattr(density, "factorize", counting_factorize)
    density._radical.cache_clear()
    try:
        for h in (12, 30, 12, 12, 30):
            for p in (2, 5):
                _suitability_screen(h, p)
    finally:
        density._radical.cache_clear()
    assert sorted(factored) == [12, 30]


def test_suitable_classifier_against_enumeration():
    for d in range(3, 2001):
        if d % 4 != 3 or not is_squarefree(d):
            for p in (2, 3, 5):
                assert not is_suitable_fundamental_disc(d, p)
            continue
        rec = class_group(-d)
        for p in (2, 3, 5):
            want = suitable_by_enumeration(rec.structure.invariant_factors, p)
            assert is_suitable_fundamental_disc(d, p) == want, (d, p)


def test_dual_route_equivalence_sample():
    X = 20000
    p = 2
    mask = suitable_divisor_mask(p, X)
    h_table = sweep_counts(X)
    for N in range(1, X + 1):
        assert bool(mask[N]) == has_suitable_divisor(N, p, h_table=h_table), N


def _refuse(*args, **kwargs):
    raise AssertionError("the other route was taken")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sieve_and_walk_take_separate_routes(p, monkeypatch):
    """The sieve settles its open d without the prime forms, the walk
    without certified structure whether h(-d) comes from a full table,
    a table shorter than N or no table, and the two agree on every N."""
    X = 2000
    h_table = sweep_counts(X)
    assert any(
        h_table[d] and _suitability_screen(int(h_table[d]), p) is None
        for d in range(3, X + 1, 4)
    )
    with monkeypatch.context() as m:
        m.setattr(density, "exponent_divides", _refuse)
        m.setattr(forms, "exponent_divides", _refuse)
        mask = suitable_divisor_mask(p, X)
    monkeypatch.setattr(density, "class_group", _refuse)
    monkeypatch.setattr(forms, "class_group", _refuse)
    monkeypatch.setattr(abelian, "structure_from_forms", _refuse)
    for table in (h_table, h_table[: X // 4], None):
        for N in range(1, X + 1):
            assert bool(mask[N]) == has_suitable_divisor(N, p, h_table=table), N


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_form_verdicts_against_structure(p):
    """Every fundamental d = 3 mod 4 below 2e4 that the order screen
    leaves open: the walk's prime-form verdict equals the one from
    certified structure, and both verdicts occur."""
    h_table = sweep_counts(20000)
    seen = set()
    for d in range(3, 20000, 4):
        if not is_squarefree(d):
            continue
        h = int(h_table[d])
        if _suitability_screen(h, p) is not None:
            continue
        want = is_p_suitable(class_group(-d).structure, p).suitable
        assert _suitable_by_prime_forms(d, h, p) == want, (d, p)
        seen.add(want)
    assert seen == {True, False}


def test_h2_density_monotone_small():
    small = suitable_divisor_density(2, 10**4)
    large = suitable_divisor_density(2, 10**5)
    assert large.decimal >= small.decimal - 0.01
    assert 0 < small.decimal < 1


def test_genus_theory_precondition():
    # primes q = 3 mod 4 have odd h(-q)
    counts = sweep_counts(10**5)
    primes = prime_mask(10**5)
    for q in range(3, 10**5, 4):
        if primes[q]:
            assert counts[q] % 2 == 1, q


def test_odd_square_dilation_union_fills_ambient():
    # the union over n of (2n-1)^2-dilates of the squarefree 3 mod 4
    # integers covers 3 mod 4 up to a vanishing remainder
    X = 10**6
    sq3 = squarefree_integers() & residue_class(4, [3])
    union = dilate(sq3, 1)
    for n in range(2, 51):
        union = union | dilate(sq3, (2 * n - 1) ** 2)
    est = estimate(union, residue_class(4, [3]), X)
    assert est.decimal > 0.98


def test_odd_square_dilations_disjoint():
    sq3 = squarefree_integers() & residue_class(4, [3])
    m9 = dilate(sq3, 9).mask_up_to(2000)
    m25 = dilate(sq3, 25).mask_up_to(2000)
    assert not np.any(m9 & m25)
