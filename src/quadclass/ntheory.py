"""Elementary number theory shared by the other modules.

Everything here is deterministic and exact; sieves return numpy arrays,
scalar helpers work on plain Python ints.  Every integer-set mask is the
strike sieve coprime_mask, and power is the one binary powering loop.
"""

from __future__ import annotations

from math import gcd, isqrt

import numpy as np


def prime_mask(limit: int) -> np.ndarray:
    """Boolean array p of length limit+1 with p[n] true iff n is prime."""
    if limit < 1:
        return np.zeros(max(limit + 1, 0), dtype=bool)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for d in range(2, isqrt(limit) + 1):
        if mask[d]:
            mask[d * d :: d] = False
    return mask


def primes_up_to(limit: int) -> np.ndarray:
    return np.nonzero(prime_mask(limit))[0]


def squarefree_mask(limit: int) -> np.ndarray:
    """Boolean array s of length limit+1 with s[n] true iff n is squarefree.

    s[0] is set false; 1 counts as squarefree.
    """
    return coprime_mask(limit, [p * p for p in primes_up_to(isqrt(max(limit, 0))).tolist()])


def smallest_prime_factor(limit: int) -> np.ndarray:
    """int64 array spf with spf[n] the least prime factor of n (spf[1] = 1)."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    if limit >= 1:
        spf[1] = 1
    for d in range(2, limit + 1):
        if spf[d] == 0:
            spf[d::d][spf[d::d] == 0] = d
    return spf


def coprime_mask(limit: int, moduli) -> np.ndarray:
    """Boolean array c of length limit+1 with c[n] true iff n >= 1 and
    no listed modulus divides n; the array is the only allocation.

    >>> np.nonzero(coprime_mask(20, [2, 5]))[0].tolist()
    [1, 3, 7, 9, 11, 13, 17, 19]
    >>> np.nonzero(coprime_mask(20, [4, 9]))[0].tolist()
    [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19]
    """
    mask = np.ones(limit + 1, dtype=bool)
    mask[:1] = False
    for q in moduli:
        mask[q::q] = False
    return mask


# The first thirteen primes as Miller-Rabin bases decide primality
# exactly below psi_13 (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality by Miller-Rabin on the prime bases 2..41,
    which is exact for n below psi_13 = 3317044064679887385961981.
    Raises ValueError at or above it rather than guess.

    >>> [k for k in range(20) if is_prime(k)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    >>> is_prime(2**61 - 1)
    True
    """
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"primality is decided only below {_MR_EXACT_BELOW}, got {n}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def totient(n: int) -> int:
    """Euler's phi(n), from the prime factors of n >= 1.

    >>> totient(12)
    4
    """
    phi = n
    for p in factorize(n):
        phi = phi // p * (p - 1)
    return phi


def power(x, n: int, mul):
    """x^n for n >= 1 under the associative product mul, by right-to-left
    binary powering: n.bit_length() + popcount(n) - 2 products.

    >>> power(3, 13, lambda a, b: a * b % 1000)
    323
    """
    result = None
    while True:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if not n:
            return result
        x = mul(x, x)


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    return all(e == 1 for e in factorize(n).values())


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the fully extended Jacobi symbol."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker(a, -n)
    # strip 2s from n; (a|2) is 0 for even a, else chi_8(a)
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    if n == 1:
        return result
    a %= n
    # Jacobi loop, n odd > 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod_prime(a: int, p: int) -> int:
    """The smaller square root of a modulo an odd prime p (Tonelli-Shanks).

    Deterministic: the quadratic non-residue is found by ascending search.
    Raises ValueError when a is not a residue.
    """
    a %= p
    if p == 2:
        return a
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return min(r, p - r)


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/n)^*: start from phi(n) and divide out each prime
    q of phi(n) while a^(order/q) = 1 mod n.

    >>> multiplicative_order(2, 7)
    3
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    if n == 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    order = totient(n)
    for q, e in factorize(order).items():
        for _ in range(e):
            if pow(a, order // q, n) != 1:
                break
            order //= q
    return order


def prime_to_p_part(n: int, p: int) -> int:
    """Largest divisor of n coprime to p (p >= 2).

    >>> prime_to_p_part(360, 2)
    45
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    while n % p == 0:
        n //= p
    return n
