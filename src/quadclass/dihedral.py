"""Weight-1 dihedral eigenform coefficients from class-group characters.

A character chi of order h on the class group of discriminant D induces
a weight-1 newform whose prime coefficients are

    a_ell = chi(P) + chi(P)^-1   (ell split, P the class above ell)
    a_ell = 0                    (ell inert)
    a_ell = chi(P) = +-1         (ell ramified)

so every a_ell lives in Z[zeta_h].  Two independent routes to the same
numbers are kept deliberately separate: theta_coeff_oracle counts
lattice points form by form (the q-expansion definition), while
euler_expansion multiplies out Euler factors seeded by eigen_coeff.
Their agreement is an end-to-end check of the whole chain from form
composition through character values.

Reduction mod p sends zeta_h to an order-h element of F_{p^m}; a
witness prime is an ell whose reduced coefficient falls outside F_p.
Coefficients are exact throughout: cyclotomic integers are coefficient
vectors reduced modulo the h-th cyclotomic polynomial (canonical, so
equality is tuple equality), never floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .abelian import AbelianGroup, is_p_suitable
from .finitefield import FieldElement, element_of_order, make_field
from .forms import (
    INERT,
    ClassGroupRecord,
    QuadForm,
    Ramified,
    class_group,
    compose,
    prime_form,
    principal_form,
)
from .ntheory import (
    divisors,
    factorize,
    kronecker,
    multiplicative_order,
    prime_to_p_part,
    primes_up_to,
)

# ---------------------------------------------------------------- cyclotomic


@lru_cache(maxsize=None)
def cyclotomic_polynomial(h: int) -> tuple[int, ...]:
    """Coefficients of Phi_h, little-endian.  Phi_1 = x - 1; higher ones
    by exact integer division of x^h - 1 by all lower Phi_d, d | h."""
    num = [-1] + [0] * (h - 1) + [1]  # x^h - 1
    for d in divisors(h)[:-1]:
        den = cyclotomic_polynomial(d)
        # synthetic exact division, num becomes the quotient
        out = [0] * (len(num) - len(den) + 1)
        rem = list(num)
        for j in range(len(out) - 1, -1, -1):
            q = rem[j + len(den) - 1]
            out[j] = q
            if q:
                for i, c in enumerate(den):
                    rem[j + i] -= q * c
        if any(rem[: len(den) - 1]):
            raise AssertionError("cyclotomic division left a remainder")
        num = out
    return tuple(num)


def _phi_reduce(vec: np.ndarray, h: int) -> tuple[int, ...]:
    phi = cyclotomic_polynomial(h)
    deg = len(phi) - 1
    out = [int(c) for c in vec]
    for j in range(len(out) - 1, deg - 1, -1):
        q = out[j]
        if q:
            for i in range(deg + 1):
                out[j - deg + i] -= q * phi[i]
    out = out[:deg]
    return tuple(out + [0] * (deg - len(out)))


@dataclass(frozen=True)
class Cyclotomic:
    """An element of Z[zeta_h] in the power basis mod Phi_h.

    The representative is unique, so == compares values.
    """

    h: int
    coeffs: tuple[int, ...]

    @staticmethod
    def zero(h: int) -> "Cyclotomic":
        return Cyclotomic(h, (0,) * (len(cyclotomic_polynomial(h)) - 1))

    @staticmethod
    def integer(h: int, n: int) -> "Cyclotomic":
        vec = np.zeros(1, dtype=np.int64)
        vec[0] = n
        return Cyclotomic(h, _phi_reduce(vec, h))

    @staticmethod
    def zeta_power(h: int, e: int) -> "Cyclotomic":
        vec = np.zeros(e % h + 1, dtype=np.int64)
        vec[e % h] = 1
        return Cyclotomic(h, _phi_reduce(vec, h))

    def _check(self, other: "Cyclotomic"):
        if self.h != other.h:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(
            self.h, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(
            self.h, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        prod = np.convolve(
            np.array(self.coeffs, dtype=np.int64),
            np.array(other.coeffs, dtype=np.int64),
        )
        return Cyclotomic(self.h, _phi_reduce(prod, self.h))

    def scaled(self, n: int) -> "Cyclotomic":
        return Cyclotomic(self.h, tuple(n * a for a in self.coeffs))

    def halved(self) -> "Cyclotomic":
        if any(a % 2 for a in self.coeffs):
            raise AssertionError("halving an odd cyclotomic integer")
        return Cyclotomic(self.h, tuple(a // 2 for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)


# ----------------------------------------------------------------- character


@dataclass(frozen=True, eq=False)
class ClassCharacter:
    """An order-h character on CL(D), stored as its logarithm table:
    log maps each reduced form to the exponent in Z/h with
    chi(f) = zeta_h^log(f)."""

    disc: int
    h: int
    log_table: dict[QuadForm, int] = field(repr=False)

    def log(self, f: QuadForm) -> int:
        return self.log_table[f]


def make_character(cg: ClassGroupRecord, h: int) -> ClassCharacter:
    """The canonical order-h character: project a class onto its
    coordinate along the last invariant factor d_k (the exponent) and
    reduce mod h.  Requires h | d_k."""
    structure = cg.structure
    if h < 1 or structure.exponent % h:
        raise ValueError(f"order {h} does not divide the group exponent")
    ident = principal_form(cg.disc)
    table = {ident: 0}
    gens = cg.generators
    for i, (g, d) in enumerate(gens):
        last = i == len(gens) - 1
        snapshot = list(table.items())
        power = g
        e = 1
        while e < d:
            bump = e % h if last else 0
            for f, lg in snapshot:
                table[compose(f, power)] = (lg + bump) % h
            power = compose(power, g)
            e += 1
    if len(table) != structure.order:
        raise AssertionError("character table does not cover the class group")
    return ClassCharacter(cg.disc, h, table)


# -------------------------------------------------------------- coefficients


@dataclass(frozen=True)
class SplitCoefficient:
    """a_ell = zeta_h^e + zeta_h^-e for split ell."""

    exponent: int
    order: int


@dataclass(frozen=True)
class InertCoefficient:
    """a_ell = 0 for inert ell."""

    def __repr__(self):
        return "InertCoefficient"


@dataclass(frozen=True)
class RamifiedCoefficient:
    """a_ell = chi(P) = +-1 for ramified ell."""

    sign: int


INERT_COEFF = InertCoefficient()

EigenCoefficient = SplitCoefficient | InertCoefficient | RamifiedCoefficient


class NotFoundUpToBound:
    """Witness search exhausted its prime bound.  Says nothing about
    existence beyond the bound."""

    def __repr__(self):
        return "NotFoundUpToBound"


NOT_FOUND_UP_TO_BOUND = NotFoundUpToBound()


def eigen_coeff(chi: ClassCharacter, ell: int) -> EigenCoefficient:
    """The eigenform coefficient a_ell, classified by how ell behaves
    in the field of discriminant chi.disc."""
    pf = prime_form(chi.disc, ell)
    if pf is INERT:
        return INERT_COEFF
    if isinstance(pf, Ramified):
        e = chi.log(pf.form)
        if (2 * e) % chi.h:
            raise AssertionError("ramified class value is not +-1")
        return RamifiedCoefficient(1 if e == 0 else -1)
    return SplitCoefficient(chi.log(pf), chi.h)


def coefficient_value(c: EigenCoefficient, h: int) -> Cyclotomic:
    """The coefficient as an exact element of Z[zeta_h]."""
    if isinstance(c, SplitCoefficient):
        return Cyclotomic.zeta_power(h, c.exponent) + Cyclotomic.zeta_power(
            h, -c.exponent
        )
    if isinstance(c, RamifiedCoefficient):
        return Cyclotomic.integer(h, c.sign)
    return Cyclotomic.zero(h)


def theta_coeff_oracle(chi: ClassCharacter, n: int) -> Cyclotomic:
    """a_n by definition: half the chi-weighted count of lattice points
    representing n across all reduced forms.  Independent of the Euler
    expansion; used to validate it."""
    if chi.disc >= -4:
        raise ValueError("theta oracle needs disc < -4 (unit group +-1)")
    if n < 1:
        raise ValueError("coefficient index must be positive")
    total = Cyclotomic.zero(chi.h)
    absd = -chi.disc
    for f, lg in chi.log_table.items():
        a, b, cc = f.a, f.b, f.c
        count = 0
        ymax = isqrt(4 * a * n // absd)
        for y in range(-ymax, ymax + 1):
            delta = chi.disc * y * y + 4 * a * n
            if delta < 0:
                continue
            r = isqrt(delta)
            if r * r != delta:
                continue
            for sign in ((r, -r) if r else (r,)):
                num = -b * y + sign
                if num % (2 * a) == 0:
                    count += 1
        if count:
            total = total + Cyclotomic.zeta_power(chi.h, lg).scaled(count)
    return total.halved()


def euler_expansion(chi: ClassCharacter, nmax: int) -> list[Cyclotomic]:
    """Coefficients a_1..a_nmax generated multiplicatively from
    eigen_coeff at primes, with the weight-1 recursion
    a_{ell^(k+1)} = a_ell * a_{ell^k} - (D|ell) * a_{ell^(k-1)}
    at prime powers.  Index 0 of the returned list is unused."""
    h = chi.h
    coeffs: list[Cyclotomic | None] = [None] * (nmax + 1)
    coeffs[0] = Cyclotomic.zero(h)
    if nmax >= 1:
        coeffs[1] = Cyclotomic.integer(h, 1)
    for ell in map(int, primes_up_to(nmax)):
        a_ell = coefficient_value(eigen_coeff(chi, ell), h)
        chi0 = kronecker(chi.disc, ell)
        prev2 = coeffs[1]
        prev1 = a_ell
        q = ell
        while q <= nmax:
            coeffs[q] = prev1
            prev2, prev1 = prev1, a_ell * prev1 - prev2.scaled(chi0)
            q *= ell
    for n in range(2, nmax + 1):
        if coeffs[n] is None:
            ell, e = min(factorize(n).items())
            q = ell**e
            coeffs[n] = coeffs[q] * coeffs[n // q]
    return coeffs  # type: ignore[return-value]


# ------------------------------------------------------------- reduction mod p


def reduce_coefficient(c: EigenCoefficient, p: int) -> FieldElement:
    """The coefficient reduced modulo a prime above p: zeta_h becomes an
    order-h element of F_{p^m}, m the order of p mod h."""
    if isinstance(c, InertCoefficient):
        return make_field(p, 1).zero()
    if isinstance(c, RamifiedCoefficient):
        return make_field(p, 1).scalar(c.sign)
    h = c.order
    if gcd(h, p) != 1:
        raise ValueError(f"character order {h} not coprime to p = {p}")
    m = multiplicative_order(p, h) if h > 1 else 1
    x = element_of_order(make_field(p, m), h)
    e = c.exponent % h
    return x**e + x ** ((h - e) % h)


def coeff_in_prime_field(c: EigenCoefficient, p: int) -> bool:
    """Whether the mod-p reduction of the coefficient lies in F_p."""
    if not isinstance(c, SplitCoefficient):
        return True
    return reduce_coefficient(c, p).in_subfield(1)


def witness_order(structure: AbelianGroup, p: int) -> int:
    """Order of the character find_witness uses: the suitability witness
    order, or for p-unsuitable groups the full prime-to-p part of the
    exponent (the search then certainly exhausts the bound)."""
    report = is_p_suitable(structure, p)
    if report.suitable:
        return report.witness_h
    return prime_to_p_part(structure.exponent, p)


def find_witness(
    D: int | ClassGroupRecord, p: int, bound: int
) -> tuple[int, EigenCoefficient] | NotFoundUpToBound:
    """Smallest prime ell <= bound whose coefficient escapes F_p after
    reduction mod p, for the canonical character of order
    witness_order(Cl(D), p).  D is a discriminant or its class-group
    record; a caller that already holds the record passes it so the
    class group is not computed again.
    """
    cg = D if isinstance(D, ClassGroupRecord) else class_group(D)
    chi = make_character(cg, witness_order(cg.structure, p))
    for ell in map(int, primes_up_to(bound)):
        c = eigen_coeff(chi, ell)
        if not coeff_in_prime_field(c, p):
            return ell, c
    return NOT_FOUND_UP_TO_BOUND
