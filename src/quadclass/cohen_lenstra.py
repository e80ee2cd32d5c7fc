"""Automorphism-weighted group averages and their empirical comparison.

Each finite abelian group enters with weight 1/#Aut(G).  Partial sums
over groups of bounded order, restricted to orders coprime to a prime
set S, give the averages whose divergence drives the density-zero
argument: the weighted sum alone already exceeds sum 1/(p-1) over the
admissible primes, because each C_p contributes exactly that term.

Everything here is exact rational arithmetic; the only float is the
infinite-product oracle 1 - prod(1 - p^-k), which the empirical
class-number data is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable

import numpy as np

from .abelian import AbelianGroup, aut_order
from .ntheory import check_budget, coprime_mask, factorize, is_prime, primes_up_to
from .sweep import blocks, class_numbers

DEFAULT_ENUM_BUDGET = 1_000_000

# agreement threshold for empirical-vs-predicted divisibility runs; a
# measurement default, not a claim about convergence speed
DEFAULT_COMPARISON_TOLERANCE = 0.01


@lru_cache(maxsize=None)
def _partitions(v: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of v as descending tuples, lexicographically largest
    first ((3,), (2,1), (1,1,1))."""
    if v == 0:
        return ((),)
    out = []

    def rec(remaining: int, maxpart: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, maxpart), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(v, v, ())
    return tuple(out)


def enumerate_groups(n: int) -> list[AbelianGroup]:
    """One representative per isomorphism class of abelian groups of
    order n: a partition of the exponent valuation at each prime,
    recombined into an invariant-factor chain."""
    if n < 1:
        raise ValueError("order must be positive")
    per_prime = [
        [(p, part) for part in _partitions(v)] for p, v in sorted(factorize(n).items())
    ]
    groups = []
    for chosen in product(*per_prime):  # n = 1: one empty choice, the trivial group
        depth = max((len(part) for _, part in chosen), default=0)
        factors = []
        for j in range(depth):
            d = 1
            for p, part in chosen:
                if j < len(part):
                    d *= p ** part[j]
            factors.append(d)
        groups.append(AbelianGroup(tuple(sorted(factors))))
    groups.sort(key=lambda g: g.invariant_factors)
    return groups


def weight(G: AbelianGroup) -> Fraction:
    """The Cohen-Lenstra weight 1/#Aut(G)."""
    return Fraction(1, aut_order(G))


def _prime_set(S: Iterable[int]) -> frozenset[int]:
    """S as a set of primes; anything else would skip every order (1) or
    divide by zero (0), so it is refused."""
    Sf = frozenset(S)
    bad = sorted(q for q in Sf if not is_prime(q))
    if bad:
        raise ValueError(f"skipped primes must be prime: {bad[0]}")
    return Sf


def _coprime_orders(S: frozenset[int], x: int) -> list[int]:
    return np.nonzero(coprime_mask(x, S))[0].tolist()


def _weighted_groups(S: Iterable[int], x: int):
    """(G, weight(G)) for every abelian G with #G <= x coprime to every
    prime in S, ascending in order; x is held to the enumeration budget
    before S is checked."""
    check_budget("x", x, DEFAULT_ENUM_BUDGET, "enumeration")
    for n in _coprime_orders(_prime_set(S), x):
        for G in enumerate_groups(n):
            yield G, weight(G)


def weighted_sum_coprime(S: Iterable[int], x: int) -> Fraction:
    """Sum of 1/#Aut(G) over all abelian G with #G <= x coprime to
    every prime in S.  Exact."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return sum((w for _, w in _weighted_groups(S, x)), Fraction(0))


def prime_reciprocal_sum(S: Iterable[int], x: int) -> Fraction:
    """The divergent comparison series: sum of 1/(p-1) over primes
    p <= x outside S.  Each term is the weight of C_p."""
    Sf = _prime_set(S)
    total = Fraction(0)
    for p in map(int, primes_up_to(x)):
        if p not in Sf:
            total += Fraction(1, p - 1)
    return total


def partial_average(
    f: Callable[[AbelianGroup], bool], S: Iterable[int], x: int
) -> Fraction:
    """The f-weighted share of the total weight over orders <= x
    coprime to S: an exact finite stand-in for the limiting average."""
    num = den = Fraction(0)
    for G, w in _weighted_groups(S, x):
        den += w
        if f(G):
            num += w
    if den == 0:
        raise ValueError("empty enumeration range")
    return num / den


def predicted_divisibility(p: int) -> float:
    """1 - prod_{k>=1} (1 - p^-k): the heuristic density of class
    numbers divisible by p, computed to machine precision."""
    prod = 1.0
    term = 1.0 / p
    while term > 1e-18:
        prod *= 1.0 - term
        term /= p
    return 1.0 - prod


@dataclass(frozen=True)
class DivisibilityComparison:
    p: int
    bound: int
    count_divisible: int
    count_fundamental: int
    predicted: float

    @property
    def empirical(self) -> Fraction:
        return Fraction(self.count_divisible, self.count_fundamental)

    @property
    def abs_diff(self) -> float:
        return abs(float(self.empirical) - self.predicted)


def empirical_cl_comparison(p: int, X: int, workers: int = 1) -> DivisibilityComparison:
    """Empirical fraction of fundamental |D| <= X with p | h(D) against
    the infinite-product prediction.  Reports both; asserting a
    tolerance is the caller's business (meaningless at small X).

    The heuristic concerns the odd part of the class group, so p must
    be an odd prime.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("comparison is defined for odd primes only")
    counts = class_numbers(X, workers=workers)
    fund = int(np.count_nonzero(counts))
    if fund == 0:
        raise ValueError(f"no fundamental discriminants up to {X}")
    divisible = 0
    # a p past every class number divides none (and is past int32)
    if p <= counts.max():
        # p divides every entry 0 too: those are the non-fundamental |D|
        for _, block in blocks(counts):
            divisible += int(np.count_nonzero(block % p == 0))
        divisible -= counts.size - fund
    return DivisibilityComparison(p, X, divisible, fund, predicted_divisibility(p))
