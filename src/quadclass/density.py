"""Empirical natural-density machinery and the desk-scale scans.

Densities here are finite-X counting ratios, reported as exact
rationals: no finite computation proves a limit, so "density" claims
become trend assertions with explicit tolerances in the test suite.
Integer sets pair a scalar membership predicate with a vectorized
mask builder; the two are spot-checked against each other.

The scans at the bottom (exponent-3, power-of-two census, suitable
divisors) sit on top of the shared class-number table
(sweep.class_numbers).  They keep fixed caps: the sieves refuse X past
DEFAULT_SIEVE_BUDGET and the table refuses X past its class-data cap.
Only the census passes a budget through to the table, for runs at the
reference bound.

Landau counts are one sieve: ntheory.coprime_mask strikes the
multiples of every prime outside the residue classes, which leaves the
n whose prime factors all lie inside them (n = 1 as the empty product).

Questions about the exponent of a class group take one of two routes,
one per construction of the H_p set, and no verdict is memoized.  Both
first screen on h with the suitability law of abelian._within_bound,
which settles most discriminants instantly.  The suitable-divisor
sieve settles the rest by certified structure through a
ClassGroupCache; the divisor walk of has_suitable_divisor settles them
by forms.exponent_divides, which powers prime forms and needs no
structure (the exponent-3 scan asks it too).  So the sieve and its
oracle share no verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .abelian import AbelianGroup, _within_bound, is_p_suitable
from .forms import ClassGroupCache, class_group, class_number, exponent_divides
from .ntheory import coprime_mask, divisors, factorize, is_squarefree, prime_to_p_part, primes_up_to
from .sweep import check_budget, class_numbers

DEFAULT_SIEVE_BUDGET = 100_000_000

# Strict bound under which the reference census counts for orders 128
# and 512 (3722 and 18046) are reproduced.  Order 256 is complete long
# before this bound (largest member 14154067, none further to 8e7) and
# totals 8352 there, so the reference value 8361 for 256 is not
# reachable at any bound; see the decisions ledger.
CENSUS_REFERENCE_BOUND = 50_000_000


# ------------------------------------------------------------- integer sets


@dataclass(frozen=True)
class IntegerSet:
    """A set of positive integers: a scalar predicate plus a vectorized
    mask builder (index n = membership of n, entry 0 always false).
    Combinators keep both routes in sync; the test suite spot-checks
    them against each other."""

    name: str
    contains: Callable[[int], bool]
    _mask: Callable[[int], np.ndarray]

    def mask_up_to(self, limit: int) -> np.ndarray:
        mask = self._mask(limit)
        if len(mask) != limit + 1:
            raise AssertionError(f"mask builder for {self.name} sized wrongly")
        return mask

    def __or__(self, other: "IntegerSet") -> "IntegerSet":
        return IntegerSet(
            f"({self.name} | {other.name})",
            lambda n, a=self, b=other: a.contains(n) or b.contains(n),
            lambda X, a=self, b=other: a.mask_up_to(X) | b.mask_up_to(X),
        )

    def __and__(self, other: "IntegerSet") -> "IntegerSet":
        return IntegerSet(
            f"({self.name} & {other.name})",
            lambda n, a=self, b=other: a.contains(n) and b.contains(n),
            lambda X, a=self, b=other: a.mask_up_to(X) & b.mask_up_to(X),
        )

    def __sub__(self, other: "IntegerSet") -> "IntegerSet":
        return IntegerSet(
            f"({self.name} - {other.name})",
            lambda n, a=self, b=other: a.contains(n) and not b.contains(n),
            lambda X, a=self, b=other: a.mask_up_to(X) & ~b.mask_up_to(X),
        )


def all_integers() -> IntegerSet:
    def build(limit: int) -> np.ndarray:
        mask = np.ones(limit + 1, dtype=bool)
        mask[0] = False
        return mask

    return IntegerSet("N", lambda n: n >= 1, build)


def residue_class(modulus: int, residues: Iterable[int]) -> IntegerSet:
    rs = sorted({r % modulus for r in residues})

    def build(limit: int) -> np.ndarray:
        mask = np.zeros(limit + 1, dtype=bool)
        for r in rs:
            start = r if r >= 1 else modulus
            mask[start::modulus] = True
        return mask

    label = ",".join(map(str, rs))
    return IntegerSet(
        f"({label} mod {modulus})", lambda n: n >= 1 and n % modulus in rs, build
    )


def squarefree_integers() -> IntegerSet:
    from .ntheory import squarefree_mask

    return IntegerSet("squarefree", lambda n: n >= 1 and is_squarefree(n), squarefree_mask)


def multiples_of(n: int) -> IntegerSet:
    return dilate(all_integers(), n)


def dilate(A: IntegerSet, n: int) -> IntegerSet:
    """The set nA = {n*a : a in A}: membership(m) iff n | m and m/n in A."""
    if n < 1:
        raise ValueError("dilation factor must be >= 1")
    if n == 1:
        return A

    def build(limit: int) -> np.ndarray:
        mask = np.zeros(limit + 1, dtype=bool)
        inner = A.mask_up_to(limit // n)
        mask[n :: n][: len(inner) - 1] = inner[1:]
        return mask

    return IntegerSet(
        f"{n}*{A.name}",
        lambda m: m >= n and m % n == 0 and A.contains(m // n),
        build,
    )


# --------------------------------------------------------- density estimates


@dataclass(frozen=True)
class DensityEstimate:
    """Counting ratio #(M cap N cap [1,X]) / #(N cap [1,X]), exact."""

    bound: int
    count_member: int
    count_ambient: int

    def __post_init__(self):
        if not 0 <= self.count_member <= self.count_ambient:
            raise ValueError("member count outside [0, ambient count]")

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.count_member, self.count_ambient)

    @property
    def decimal(self) -> float:
        return self.count_member / self.count_ambient


def estimate(M: IntegerSet, N: IntegerSet, X: int) -> DensityEstimate:
    """Density of M within N up to X by exact enumeration (M is measured
    as M cap N, so M need not be a subset)."""
    check_budget("X", X, DEFAULT_SIEVE_BUDGET, "sieve")
    if X < 1:
        raise ValueError("bound must be >= 1")
    ambient = N.mask_up_to(X)
    count_ambient = int(ambient.sum())
    if count_ambient == 0:
        raise ValueError(f"ambient set {N.name} is empty up to {X}")
    count_member = int((M.mask_up_to(X) & ambient).sum())
    return DensityEstimate(X, count_member, count_ambient)


# ------------------------------------------------------------ Landau counts


def _sample_grid(X: int) -> list[int]:
    xs = [X]
    v = 1000
    while v < X:
        xs.append(v)
        v *= 2
    return sorted(set(xs))


@dataclass(frozen=True)
class LandauTable:
    modulus: int
    residues: frozenset[int]
    samples: tuple[tuple[int, int], ...]  # (x, M(x)) ascending in x


def landau_count(X: int, modulus: int, residues: Iterable[int]) -> LandauTable:
    """M(x) = #{n <= x with all prime factors in the residue classes},
    at geometric sample points up to X."""
    check_budget("X", X, DEFAULT_SIEVE_BUDGET, "sieve")
    if X < 1:
        raise ValueError("bound must be >= 1")
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    rs = frozenset(r % modulus for r in residues)
    for r in rs:
        if math.gcd(r, modulus) != 1:
            raise ValueError(f"residue {r} is not a unit mod {modulus}")
    struck = [q for q in primes_up_to(X).tolist() if q % modulus not in rs]
    cum = np.cumsum(coprime_mask(X, struck))
    samples = tuple((x, int(cum[x])) for x in _sample_grid(X))
    return LandauTable(modulus, rs, samples)


def landau_ratio_check(
    X: int, modulus: int, residues: Iterable[int]
) -> list[tuple[int, float]]:
    """The normalized sequence r(x) = M(x) * (log x)^(1 - r/phi(A)) / x
    at the sample grid.  The asymptotic shape predicts slow variation;
    no constant is asserted here."""
    if X < 1000:
        raise ValueError("need X >= 1000 for a meaningful grid")
    table = landau_count(X, modulus, residues)
    phi = modulus
    for q in factorize(modulus):
        phi -= phi // q
    expo = 1.0 - len(table.residues) / phi
    return [
        (x, m * math.log(x) ** expo / x) for x, m in table.samples
    ]


# ------------------------------------------------------------ exponent-3 scan


def exponent3_scan(X: int, workers: int = 1) -> list:
    """All fundamental D with |D| <= X and class group of exponent 3,
    ascending |D|, as full class-group records.

    Candidates are read off the class-number table: exponent 3 forces
    h = 3^k (k >= 1).  h = 3 needs no further test; for larger h the
    prime forms decide (forms.exponent_divides).  workers partitions the
    class-number sweep only.
    """
    counts = class_numbers(X, workers=workers)
    powers = []
    h = 3
    while h <= counts.max(initial=0):
        powers.append(h)
        h *= 3
    return [
        class_group(-n)
        for n in np.nonzero(np.isin(counts, powers))[0].tolist()
        if counts[n] == 3 or exponent_divides(-n, 3)
    ]


# ---------------------------------------------------------------- the census


def class_order_census(
    X: int,
    target_orders: Iterable[int],
    workers: int = 1,
    budget: int | None = None,
) -> dict[int, int]:
    """For each target order h*, the number of fundamental discriminants
    with |D| < X (strict) and h(D) = h*.  budget, when given, replaces
    the class-data cap of sweep.class_numbers.  Every order must be >= 1:
    the table holds 0 at the non-fundamental |D|."""
    orders = sorted(set(target_orders))
    if orders and orders[0] < 1:
        raise ValueError("orders must be >= 1")
    counts = class_numbers(X, workers=workers, budget=budget)[:X]
    return {int(h): int(np.count_nonzero(counts == h)) for h in orders}


# ------------------------------------------------- suitable-divisor density


def _suitability_screen(h: int, p: int) -> bool | None:
    """Decide p-suitability of a class group from its order alone where
    possible: True/False when the order settles it, None when the
    exponent is actually needed.

    The exponent e satisfies rad(h) | e | h, and suitability is monotone
    in e under divisibility, so rad(h) already outside the bound
    certifies suitability and h inside it certifies unsuitability.
    """
    if not _within_bound(math.prod(factorize(h)), p):
        return True
    if _within_bound(h, p):
        return False
    return None


def is_suitable_fundamental_disc(d: int, p: int) -> bool:
    """Whether d qualifies for the H_p sieve: d = 3 mod 4, squarefree,
    and CL(-d) p-suitable, by certified structure."""
    if d % 4 != 3 or not is_squarefree(d):
        return False
    return is_p_suitable(class_group(-d).structure, p).suitable


def suitable_divisor_mask(
    p: int, X: int, workers: int = 1, cache: ClassGroupCache | None = None
) -> np.ndarray:
    """mask[N] iff some divisor d of N qualifies for the H_p sieve.

    Built the sieve way: walk candidate d ascending and mark all
    multiples of each qualifying d.  A d that is already marked has a
    smaller qualifying divisor, so its multiples are covered and it is
    skipped unclassified.  The d the order screen leaves open take
    certified structure through cache (a fresh one when None).
    """
    h_table = class_numbers(X, workers=workers)
    if cache is None:
        cache = ClassGroupCache()
    marked = np.zeros(X + 1, dtype=bool)
    for d in range(3, X + 1, 4):
        # for d = 3 mod 4: h > 0 iff -d is fundamental iff d is squarefree
        if marked[d] or not h_table[d]:
            continue
        verdict = _suitability_screen(int(h_table[d]), p)
        if verdict is None:
            verdict = is_p_suitable(AbelianGroup(cache.get(-d)[1]), p).suitable
        if verdict:
            marked[d::d] = True
    return marked


def _suitable_by_prime_forms(d: int, h: int, p: int) -> bool:
    """p-suitability of Cl(-d), h = h(-d), by the order screen, else by
    the prime forms: with h' the prime-to-p part of h, the group is
    unsuitable iff its exponent divides p^v_p(h) * gcd(h', p^2 - 1)."""
    verdict = _suitability_screen(h, p)
    if verdict is not None:
        return verdict
    h_prime = prime_to_p_part(h, p)
    return not exponent_divides(-d, h // h_prime * math.gcd(h_prime, p * p - 1))


def has_suitable_divisor(N: int, p: int, h_table: np.ndarray | None = None) -> bool:
    """The direct H_p predicate: walk the divisors of N itself.  The
    independent counterpart of suitable_divisor_mask (divisor walk vs
    multiple marking), kept separate so the two constructions can be
    compared: every d is settled by the prime forms, never by certified
    structure.  h_table, when given, is a sweep prefix indexed by |D|
    that supplies h(-d) for the order screen; past it h(-d) comes from
    enumerating the reduced forms."""
    for d in divisors(N):
        if d % 4 != 3 or not is_squarefree(d):
            continue
        h = int(h_table[d]) if h_table is not None and d < len(h_table) else class_number(-d)
        if _suitable_by_prime_forms(d, h, p):
            return True
    return False


def suitable_divisor_density(
    p: int, X: int, workers: int = 1, cache: ClassGroupCache | None = None
) -> DensityEstimate:
    """Density among all N <= X of integers with a qualifying divisor."""
    if X < 1:
        raise ValueError("bound must be >= 1")
    marked = suitable_divisor_mask(p, X, workers=workers, cache=cache)
    return DensityEstimate(X, int(marked.sum()), X)
