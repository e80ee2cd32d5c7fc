import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quadclass.ntheory import (
    coprime_mask,
    divisors,
    factorize,
    is_prime,
    is_squarefree,
    kronecker,
    multiplicative_order,
    prime_mask,
    prime_to_p_part,
    primes_up_to,
    smallest_prime_factor,
    sqrt_mod_prime,
    squarefree_mask,
    xgcd,
)


def _prime_by_trial(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _squarefree_by_trial(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def test_prime_mask_matches_trial_division():
    mask = prime_mask(2000)
    for n in range(2001):
        assert bool(mask[n]) == _prime_by_trial(n), n


def test_prime_count_one_million():
    mask = prime_mask(10**6)
    assert int(mask.sum()) == 78498
    assert len(primes_up_to(10**6)) == 78498


def test_primes_up_to_agrees_with_mask():
    mask = prime_mask(5000)
    ps = primes_up_to(5000)
    assert np.array_equal(np.flatnonzero(mask), ps)


def test_squarefree_mask_matches_trial():
    mask = squarefree_mask(3000)
    for n in range(1, 3001):
        assert bool(mask[n]) == _squarefree_by_trial(n), n


def test_squarefree_count_by_inclusion_exclusion():
    # independent route: Q(X) = sum_{d <= sqrt(X)} mu(d) * floor(X / d^2)
    X = 10**6
    mask = squarefree_mask(X)
    total = 0
    for d in range(1, math.isqrt(X) + 1):
        if not _squarefree_by_trial(d):
            continue
        mu = -1 if len(factorize(d)) % 2 else 1
        total += mu * (X // (d * d))
    assert int(mask[1:].sum()) == total


def test_smallest_prime_factor_exhaustive():
    spf = smallest_prime_factor(5000)
    assert spf[1] == 1
    mask = prime_mask(5000)
    for n in range(2, 5001):
        f = int(spf[n])
        assert n % f == 0
        assert mask[f]
        assert all(n % q for q in range(2, f))


@given(st.integers(min_value=1, max_value=10**7))
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert is_prime(p)
        assert e >= 1
        assert n % p**e == 0 and n % p ** (e + 1) != 0
        prod *= p**e
    assert prod == n


def test_factorize_unit():
    assert factorize(1) == {}


@given(st.integers(min_value=1, max_value=10**6))
def test_divisors_complete(n):
    ds = divisors(n)
    assert ds == sorted(ds)
    assert ds[0] == 1 and ds[-1] == n
    assert all(n % d == 0 for d in ds)
    expected = 1
    for e in factorize(n).values():
        expected *= e + 1
    assert len(ds) == expected


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
def test_xgcd_bezout(a, b):
    g, x, y = xgcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


def test_kronecker_odd_primes_euler_criterion():
    for p in primes_up_to(200)[1:]:
        p = int(p)
        for a in range(-2 * p, 2 * p):
            want = pow(a % p, (p - 1) // 2, p) if a % p else 0
            if want == p - 1:
                want = -1
            assert kronecker(a, p) == want, (a, p)


def test_kronecker_two():
    # (a|2) = 0 for even a, +1 for a = +-1 mod 8, -1 for a = +-3 mod 8
    for a in range(-40, 40):
        if a % 2 == 0:
            assert kronecker(a, 2) == 0
        elif a % 8 in (1, 7):
            assert kronecker(a, 2) == 1
        else:
            assert kronecker(a, 2) == -1


@given(
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
)
def test_kronecker_multiplicative_in_bottom(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_sqrt_mod_prime_exhaustive_small():
    for p in primes_up_to(100):
        p = int(p)
        for a in range(p):
            if kronecker(a, p) == -1:
                with pytest.raises(ValueError):
                    sqrt_mod_prime(a, p)
            else:
                r = sqrt_mod_prime(a, p)
                assert 0 <= r < p
                assert r * r % p == a % p


def test_multiplicative_order_minimal():
    for n in range(2, 60):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            k = multiplicative_order(a, n)
            assert pow(a, k, n) == 1
            assert all(pow(a, j, n) != 1 for j in range(1, k))


@given(st.integers(min_value=1, max_value=10**9), st.sampled_from([2, 3, 5, 7]))
def test_prime_to_p_part(n, p):
    m = prime_to_p_part(n, p)
    assert m % p != 0
    assert n % m == 0
    q = n // m
    while q % p == 0:
        q //= p
    assert q == 1
    for bad in (1, 0, -2):  # would loop forever or divide by zero
        with pytest.raises(ValueError):
            prime_to_p_part(n, bad)


def test_is_prime_agrees_with_mask():
    mask = prime_mask(20000)
    for n in range(20001):
        assert is_prime(n) == bool(mask[n])


# psi_12 is a strong pseudoprime to every prime base up to 37, psi_13
# the least one to every prime base up to 41 (Sorenson and Webster)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


@pytest.mark.parametrize(
    "n, want",
    [
        (PSI_12, False),
        (3825123056546413051, False),  # strong pseudoprime to bases 2..31
        (561, False),
        (41041, False),
        (825265, False),  # Carmichael numbers
        (2**61 - 1, True),
        (PSI_13 - 168, True),  # the largest prime below psi_13
        (41, True),
        (43, True),
    ],
)
def test_is_prime_deterministic_range(n, want):
    assert is_prime(n) is want


def test_is_prime_refuses_past_exact_range():
    for n in (PSI_13, PSI_13 + 2, 2**127 - 1):
        with pytest.raises(ValueError, match="primality"):
            is_prime(n)


def test_coprime_mask_against_trial_division():
    for primes in ([], [2], [2, 3, 5], [7, 11, 997], [3, 1009], [2003]):
        for limit in (0, 1, 2, 30, 2000):
            mask = coprime_mask(limit, primes)
            assert len(mask) == limit + 1
            for n in range(limit + 1):
                assert bool(mask[n]) == (n >= 1 and all(n % q for q in primes)), (primes, n)


def test_is_squarefree_agrees_with_mask():
    mask = squarefree_mask(2000)
    for n in range(1, 2001):
        assert is_squarefree(n) == bool(mask[n])
