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

Reduction mod p, for p not dividing h, sends zeta_h to a root of unity
of order h in F_{p^m}, m the order of p mod h, on which Frobenius acts
by z -> z^p (Washington, Introduction to Cyclotomic Fields, ch. 2).  So
the degree over F_p of a reduced coefficient zeta_h^e + zeta_h^-e is
read off (e, h, p); no irreducible modulus or root of unity in F_{p^m}
is ever built.  A witness prime is an ell whose reduced
coefficient falls outside F_p.  Coefficients are exact throughout,
never floats: each is held in the group ring Z[C_h], as the integer
vector that counts the ideals of norm n by their character exponent
log chi in Z/h (a ramified -1 is zeta_h^(h/2)).  The two routes
compute this same vector, so they are compared there, which is stronger
than comparing their images in Z[zeta_h]; no cyclotomic polynomial is
needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np

from .abelian import AbelianGroup, _extend, is_p_suitable
from .forms import (
    INERT,
    ClassGroupRecord,
    QuadForm,
    Ramified,
    _compose,
    class_group,
    prime_form,
    principal_form,
)
from .ntheory import (
    SIEVE_BUDGET,
    check_budget,
    factorize,
    kronecker,
    multiplicative_order,
    prime_to_p_part,
    primes_up_to,
)

# ---------------------------------------------------------------- group ring


@dataclass(frozen=True)
class Cyclotomic:
    """An element of the group ring Z[C_h]: coeffs[a] is the coefficient
    of zeta^a, with zeta^h = 1.

    Z[zeta_h] is the quotient of Z[C_h] by Phi_h(zeta), so == here
    implies equality in Z[zeta_h]; the converse fails (the sum of all
    zeta^a is zero only there).
    """

    h: int
    coeffs: tuple[int, ...]

    @staticmethod
    def zero(h: int) -> "Cyclotomic":
        return Cyclotomic(h, (0,) * h)

    @staticmethod
    def integer(h: int, n: int) -> "Cyclotomic":
        return Cyclotomic(h, (n,) + (0,) * (h - 1))

    @staticmethod
    def zeta_power(h: int, e: int) -> "Cyclotomic":
        return Cyclotomic(h, tuple(int(a == e % h) for a in range(h)))

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
        prod[: self.h - 1] += prod[self.h :]
        return Cyclotomic(self.h, tuple(prod[: self.h].tolist()))

    def scaled(self, n: int) -> "Cyclotomic":
        return Cyclotomic(self.h, tuple(n * a for a in self.coeffs))

    def halved(self) -> "Cyclotomic":
        if any(a % 2 for a in self.coeffs):
            raise AssertionError("halving an odd cyclotomic integer")
        return Cyclotomic(self.h, tuple(a // 2 for a in self.coeffs))


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
    if h < 1 or cg.structure.exponent % h:
        raise ValueError(f"order {h} does not divide the group exponent")
    table = {f: c % h for f, c in _last_coordinates(cg).items()}
    return ClassCharacter(cg.disc, h, table)


def _last_coordinates(cg: ClassGroupRecord) -> dict[QuadForm, int]:
    """Each class's coordinate along d_k, from the coset walk of the
    certified structure over the record's generators, whose last one has
    order d_k: a class at walk position i has last coordinate
    i // (order / d_k).  The walk is made once per record, and again only
    if its generators have changed since."""
    generators = tuple(cg.generators)
    if cg._walk is None or cg._walk[0] != generators:
        D, structure = cg.disc, cg.structure
        span = {principal_form(D): 0}
        for g, d in generators:
            _extend(span, g, lambda x, y: _compose(x, y, D), d)
        if len(span) != structure.order:
            raise AssertionError("character table does not cover the class group")
        stride = structure.order // structure.exponent
        cg._walk = (generators, {f: pos // stride for f, pos in span.items()})
    return cg._walk[1]


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
        # -1 is zeta_h^(h/2); eigen_coeff gives -1 only for even h
        return Cyclotomic.zeta_power(h, 0 if c.sign == 1 else h // 2)
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
        a, b, _ = f
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


@dataclass(frozen=True)
class CyclotomicResidue:
    """z + 1/z modulo a prime above p, for z = zeta_h^e; an integer
    coefficient (inert 0, ramified +-1) is held as h = 1, e = 0.

    p does not divide h, so z reduces to a root of unity of order
    o = h / gcd(e, h), and Frobenius^s sends it to z^(p^s).  In a field
    z^q + z^-q - z - z^-1 = z^-q (z^q - z)(z^q - z^-1), so Frobenius^s
    fixes the residue exactly when p^s = +-1 mod o: the degree is read
    off (e, h, p), and no field or modulus is ever built."""

    h: int
    p: int
    exponent: int

    def field_degree(self) -> int:
        """Degree over F_p of the field the residue generates: the least
        s with p^s = +-1 mod o.  That is m = ord_o(p), halved when
        p^(m/2) = -1, the one element of order 2 the cyclic group <p>
        can hold."""
        o = self.h // gcd(self.exponent, self.h)
        m = multiplicative_order(self.p, o)
        return m // 2 if m % 2 == 0 and pow(self.p, m // 2, o) == o - 1 else m


def reduce_coefficient(c: EigenCoefficient, p: int) -> CyclotomicResidue:
    """The coefficient reduced modulo a prime above p: zeta_h^e + zeta_h^-e,
    or an integer (h = 1)."""
    if not isinstance(c, SplitCoefficient):
        return CyclotomicResidue(1, p, 0)
    if gcd(c.order, p) != 1:
        raise ValueError(f"character order {c.order} not coprime to p = {p}")
    return CyclotomicResidue(c.order, p, c.exponent)


def coeff_in_prime_field(c: EigenCoefficient, p: int) -> bool:
    """Whether the mod-p reduction of the coefficient lies in F_p."""
    return reduce_coefficient(c, p).field_degree() == 1


def witness_order(structure: AbelianGroup, p: int) -> int:
    """Order of the character find_witness uses: the suitability witness
    order, or for p-unsuitable groups the full prime-to-p part of the
    exponent.  A witness is a split prime ell whose character value
    chi(P) has some order o with p != +-1 mod o, and suitability does not
    decide whether one exists: Cl(-95) = C8 is 3-unsuitable (8 divides
    3^2 - 1), yet a_2 generates F_9."""
    report = is_p_suitable(structure, p)
    if report.suitable:
        return report.witness_h
    return prime_to_p_part(structure.exponent, p)


def witness_character(D: int | ClassGroupRecord, p: int) -> ClassCharacter:
    """The canonical character of order witness_order(Cl(D), p), whose
    order chi.h is the h of a witness row.  D is a fundamental
    discriminant or its class-group record."""
    cg = D if isinstance(D, ClassGroupRecord) else class_group(D)
    if not cg.fundamental:
        # a prime of the conductor has no invertible prime form
        raise ValueError(f"{cg.disc} is not a fundamental discriminant")
    return make_character(cg, witness_order(cg.structure, p))


class Witness(NamedTuple):
    """A witness prime, its coefficient, and the degree over F_p of the
    coefficient's reduction mod p (more than 1)."""

    ell: int
    coeff: EigenCoefficient
    degree: int


def find_witness(
    D: int | ClassGroupRecord | ClassCharacter, p: int, bound: int
) -> Witness | NotFoundUpToBound:
    """Smallest prime ell <= bound whose coefficient escapes F_p after
    reduction mod p, for witness_character(D, p).  D is a fundamental
    discriminant, its class-group record or that character; a caller
    that already holds one passes it so that it is not computed again.
    bound may not exceed the prime sieve's budget.
    """
    check_budget("bound", bound, SIEVE_BUDGET, "sieve")
    chi = D if isinstance(D, ClassCharacter) else witness_character(D, p)
    for ell in map(int, primes_up_to(bound)):
        c = eigen_coeff(chi, ell)
        degree = reduce_coefficient(c, p).field_degree()
        if degree > 1:
            return Witness(ell, c, degree)
    return NOT_FOUND_UP_TO_BOUND
