"""Binary quadratic forms of negative discriminant and their class groups.

A form (a, b, c) stands for a*x^2 + b*x*y + c*y^2.  Only positive definite
forms appear here (a > 0, b^2 - 4ac < 0), and a class group is always
realized as the set of primitive reduced forms of one discriminant under
composition.

A ``QuadForm`` is an ``(a, b, c)`` int tuple whose constructor checks
that the form is positive definite.  The arithmetic (``_reduce``,
``_compose``, and ``ntheory.power`` over ``_compose``) takes such tuples
as they are, with the discriminant passed in, and validates nothing
inside its loops; a public function wraps the kernel's result with
``QuadForm._make``, which does not validate again.  ``keep_fundamental``
is the strike of ``ntheory.strike`` and a residue pattern, in place on
any array: ``fundamental_mask`` applies it to a bool array, and the
class-number table to its counts.
``abelian`` builds on these forms, so ``class_group`` and
``ClassGroupCache._load`` import it where they run.

``class_group`` grows a fundamental D's group from its prime forms, with
no enumeration; its cost is about h products plus one prime form per
prime up to sqrt(|D|/3), and its cap, MAX_WALKED_CLASSES, is on h.  The
reduced forms of one D come from one O(|D|) kernel, ``_reduced_triples``:
for each b, the divisors a <= sqrt(n) of n = (b^2 + |D|)/4.
``enumerate_reduced`` keeps the primitive ones, capped at
MAX_ENUMERATED_DISC; it is the route of the other D and the oracle of
the tests.  ``sweep.count_reduced_forms`` counts them all, with no cap.
"""

from __future__ import annotations

import csv
import operator
import os
from collections import namedtuple
from dataclasses import dataclass, field
from math import gcd, isqrt

import numpy as np

from .ntheory import (
    check_budget, is_squarefree, iter_primes, kronecker, power, primes_up_to, sqrt_mod_prime,
    strike, xgcd,
)


def is_fundamental(D: int) -> bool:
    """True iff D is the discriminant of the ring of integers of an
    imaginary quadratic field.

    >>> is_fundamental(-3), is_fundamental(-4027), is_fundamental(-12)
    (True, True, False)
    """
    if D >= 0:
        return False
    if D % 4 == 1:
        return is_squarefree(-D)
    if D % 4 == 0:
        m = -D // 4
        return m % 4 in (1, 2) and is_squarefree(m)
    return False


# n mod 16 with -n = 1 mod 4, or -n = 4m with m = 2, 3 mod 4
_FUNDAMENTAL_MOD_16 = np.isin(np.arange(16), (3, 4, 7, 8, 11, 15))


def keep_fundamental(values: np.ndarray) -> np.ndarray:
    """Zero values[n] in place for every n with -n not fundamental, and
    return values; any dtype, so it filters the class-number table as
    it builds fundamental_mask.  It strikes the multiples of the odd
    prime squares (ntheory.strike) and keeps n = 3, 4, 7, 8, 11 or
    15 mod 16 by a 16-entry pattern; nothing of the array's length is
    allocated.

    >>> keep_fundamental(np.arange(25)).tolist()[15:]
    [15, 0, 0, 0, 19, 20, 0, 0, 23, 24]
    """
    odd_primes = primes_up_to(isqrt(max(values.size - 1, 0))).tolist()[1:]
    strike(values, [q * q for q in odd_primes])
    whole = values.size - values.size % 16
    rows = values[:whole].reshape(-1, 16)
    rows *= _FUNDAMENTAL_MOD_16
    tail = values[whole:]
    tail *= _FUNDAMENTAL_MOD_16[: tail.size]
    return values


def fundamental_mask(limit: int) -> np.ndarray:
    """Boolean array f of length limit+1: f[n] true iff -n is fundamental,
    i.e. n = 3, 4, 7, 8, 11 or 15 mod 16 and no odd prime square divides
    n.

    >>> np.nonzero(fundamental_mask(24))[0].tolist()
    [3, 4, 7, 8, 11, 15, 19, 20, 23, 24]
    """
    return keep_fundamental(np.ones(limit + 1, dtype=bool))


def _disc_value(D) -> int:
    """D as an int, validated; a float is refused (TypeError), not
    truncated, while numpy integers are accepted."""
    try:
        v = operator.index(D)
    except TypeError:
        raise TypeError(f"a discriminant must be an integer, not {D!r}") from None
    if v >= 0 or v % 4 not in (0, 1):
        raise ValueError(f"{v} is not a negative discriminant")
    return v


class QuadForm(namedtuple("QuadForm", "a b c")):
    """A positive definite form (a, b, c); it hashes, compares and sorts
    as that tuple."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        if a <= 0 or b * b - 4 * a * c >= 0:
            raise ValueError(f"form {(a, b, c)} is not positive definite")
        return super().__new__(cls, a, b, c)

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def inverse(self) -> "QuadForm":
        a, b, c = self
        return QuadForm._make(_reduce(a, -b, c, self.discriminant))

    def __repr__(self):
        return f"({self.a},{self.b},{self.c})"


def principal_form(D) -> QuadForm:
    D = _disc_value(D)
    if D % 2:
        return QuadForm(1, 1, (1 - D) // 4)
    return QuadForm(1, 0, -D // 4)


def _reduce(a: int, b: int, c: int, D: int) -> tuple[int, int, int]:
    """The reduced form equivalent to (a, b, c) of discriminant D, as a tuple."""
    while True:
        # normalize: bring b into (-a, a]
        if not -a < b <= a:
            b = (b + a) % (2 * a) - a
            if b == -a:
                b = a
            c = (b * b - D) // (4 * a)
        if a > c:
            a, b, c = c, -b, a
            continue
        break
    if b < 0 and (a == c or -b == a):
        b = -b
    return a, b, c


def _compose(f: tuple[int, int, int], g: tuple[int, int, int], D: int) -> tuple[int, int, int]:
    """Reduced product of two forms of discriminant D, as a tuple.

    Classical composition: solve for the united form with two extended
    gcds, then reduce.
    """
    if f[0] > g[0]:
        f, g = g, f
    a1, b1, _ = f
    a2, b2, c2 = g
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, y1, _ = xgcd(a2, a1)
    if s % d == 0:
        y2, x2, d1 = -1, 0, d
    else:
        d1, x2, v = xgcd(s, d)
        y2 = -v
    v1 = a1 // d1
    v2 = a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    a3 = v1 * v2
    b3 = b2 + 2 * v2 * r
    c3 = (b3 * b3 - D) // (4 * a3)
    return _reduce(a3, b3, c3, D)


def reduce_form(f: QuadForm) -> QuadForm:
    """The unique reduced form equivalent to f.

    >>> reduce_form(QuadForm(1, 1, 1))
    (1,1,1)
    >>> reduce_form(QuadForm(6, 1, 2))
    (2,-1,6)
    """
    return QuadForm._make(_reduce(*f, f.discriminant))


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Gauss composition; returns the reduced representative of the product.

    >>> compose(QuadForm(2, 1, 3), QuadForm(2, 1, 3))
    (2,-1,3)
    """
    D = f.discriminant
    if g.discriminant != D:
        raise ValueError(f"discriminant mismatch: {D} vs {g.discriminant}")
    return QuadForm._make(_compose(f, g, D))


def form_pow(f: QuadForm, n: int) -> QuadForm:
    """n-th composition power of f (n may be negative).

    >>> form_pow(QuadForm(2, 1, 3), 3), form_pow(QuadForm(2, 1, 3), -1)
    ((1,1,6), (2,-1,3))
    """
    if n < 0:
        return form_pow(f.inverse(), -n)
    D = f.discriminant
    if n == 0:
        return principal_form(D)
    return QuadForm._make(power(_reduce(*f, D), n, lambda x, y: _compose(x, y, D)))


# Largest |D| enumerate_reduced takes, so the largest non-fundamental
# D class_group takes.  It took 0.06 s at |D| ~ 1e8, 0.46 s at 1e9 and
# 4.8-5.1 s at 1e10 (2-vCPU x86-64 host); b^2 + |D| <= 4|D|/3 stays far
# inside int64.
MAX_ENUMERATED_DISC = 10**10

# Largest class group class_group walks for a fundamental D, which has
# no |D| cap: the walk refuses the coset that would pass it, so it never
# holds more classes than this.  h = 607,074 (D = -1165935463039) took
# 4.9 s and 199 MB max RSS, and a refusal at |D| ~ 1e14, after 712,736
# classes, 2.3 s and 237 MB (2-vCPU x86-64 host).
MAX_WALKED_CLASSES = 10**6


def _reduced_triples(abs_disc: int):
    """(b, a, c) for each b = abs_disc mod 2 in [0, sqrt(abs_disc/3)]
    that has reduced forms: a and c are int64 arrays, a ascending, of
    every a in [max(b, 1), isqrt(n)] dividing n = (b^2 + abs_disc)/4
    and c = n/a.  Together they are all the reduced forms with
    0 <= b <= a <= c of discriminant -abs_disc, primitive or not, one
    array of at most sqrt(abs_disc)/2 entries at a time."""
    for b in range(abs_disc & 1, isqrt(abs_disc // 3) + 1, 2):
        n = (b * b + abs_disc) >> 2
        a = np.arange(max(b, 1), isqrt(n) + 1, dtype=np.int64)
        a = a[n % a == 0]
        if a.size:
            yield b, a, n // a


def enumerate_reduced(D) -> list[QuadForm]:
    """All primitive reduced forms of discriminant D, ordered by (a, b),
    for |D| up to MAX_ENUMERATED_DISC.

    The forms (a, b, c) of ``_reduced_triples`` with gcd(a, b, c) = 1,
    and (a, -b, c) beside each one that is not its own reduced inverse
    (0 < b < a < c).

    >>> enumerate_reduced(-23)
    [(1,1,6), (2,-1,3), (2,1,3)]
    """
    D = _disc_value(D)
    check_budget("|D|", -D, MAX_ENUMERATED_DISC, "reduced-form")
    forms = []
    for b, a, c in _reduced_triples(-D):
        for x, z in zip(a.tolist(), c.tolist()):
            if gcd(x, b, z) == 1:
                forms.append(QuadForm._make((x, b, z)))
                if 0 < b < x < z:
                    forms.append(QuadForm._make((x, -b, z)))
    forms.sort()
    return forms


def class_number(D) -> int:
    return len(enumerate_reduced(D))


class Inert:
    """Sentinel: the prime is inert, its eigenform coefficient is 0."""

    def __repr__(self):
        return "Inert"


INERT = Inert()


@dataclass(frozen=True)
class Ramified:
    """The prime divides the discriminant; its class has order at most 2."""

    form: QuadForm


def prime_form(D, ell: int):
    """The class of the prime above ell: a reduced QuadForm when ell splits,
    INERT when it is inert, Ramified(form) when ell divides D.

    Ties between the two square roots of D mod 4*ell are broken toward the
    smaller b; either choice gives conjugate classes.
    """
    D = _disc_value(D)

    def reduced(b: int) -> QuadForm:  # the form (ell, b, c) of discriminant D, reduced
        return QuadForm._make(_reduce(ell, b, (b * b - D) // (4 * ell), D))

    if ell == 2:
        if D % 2 == 0:  # D = 0 or 4 mod 8: b = 0 or 2
            return Ramified(reduced(D % 8 // 2))
        return reduced(1) if D % 8 == 1 else INERT
    if kronecker(D, ell) == -1:
        return INERT
    # b = +-s mod ell with the parity of D solves b^2 = D mod 4*ell; when
    # ell | D, s = 0 and b is 0 or ell
    s = sqrt_mod_prime(D % ell, ell)
    form = reduced(s if (s - D) % 2 == 0 else ell - s)
    return Ramified(form) if D % ell == 0 else form


def _generating_prime_forms(D: int, walked=()):
    """The split and ramified prime forms of the fundamental D with norm
    at most sqrt(|D|/3), ascending in norm, as (a, b, c) tuples: they
    generate Cl(D) (see ``exponent_divides``).  The primes come from the
    segmented ``iter_primes``.  A prime in walked, a container the caller
    may grow between steps, is passed over before its form is made.
    """
    for ell in iter_primes(isqrt(-D // 3)):
        if ell in walked:
            continue
        pf = prime_form(D, ell)
        if pf is not INERT:
            yield pf.form if isinstance(pf, Ramified) else pf


def exponent_divides(D, n: int) -> bool:
    """Whether n kills every class of the fundamental discriminant D,
    i.e. whether the exponent of Cl(D) divides n.

    Every class has a reduced representative (a, b, c) with
    a <= sqrt(|D|/3), and its ideal of norm a is a product of prime
    ideals of norm at most a; inert primes give principal ideals.  So the
    split and ramified prime forms of norm at most sqrt(|D|/3) generate
    Cl(D), unconditionally, and n kills the group exactly when it kills
    each of them.  No enumeration and no structure is needed.

    >>> exponent_divides(-4027, 3), exponent_divides(-23, 2)
    (True, False)
    """
    D = _disc_value(D)
    if not is_fundamental(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    if n < 1:
        raise ValueError("n must be >= 1")
    one = principal_form(D)
    return all(
        power(f, n, lambda x, y: _compose(x, y, D)) == one for f in _generating_prime_forms(D)
    )


@dataclass
class ClassGroupRecord:
    disc: int
    fundamental: bool
    structure: "AbelianGroup"  # noqa: F821 - imported lazily to avoid a cycle; h is its order
    generators: list  # (QuadForm, order) pairs, aligned with invariant factors
    # the generators walked by dihedral.make_character and the last
    # coordinate it read off each class, so that the record's other
    # characters need no second walk; a record lives for one query
    _walk: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def factors_string(self) -> str:
        return ";".join(str(d) for d in self.structure.invariant_factors)


def class_group(D) -> ClassGroupRecord:
    """Class number, invariant factors and generators for one discriminant.

    ``is_fundamental`` picks the route before any form is composed.  A
    fundamental D is walked over its prime forms
    (``abelian.structure_from_prime_forms``), up to
    MAX_WALKED_CLASSES classes.  Any other D, where a prime of the
    conductor has no invertible prime form, takes the reduced forms of
    ``enumerate_reduced``, up to MAX_ENUMERATED_DISC.  Both routes give
    the same structure and generators.

    >>> class_group(-4027).structure.invariant_factors
    (3, 3)
    """
    from .abelian import structure_from_forms, structure_from_prime_forms

    D = _disc_value(D)
    fundamental = is_fundamental(D)
    if fundamental:
        structure, generators = structure_from_prime_forms(D, MAX_WALKED_CLASSES)
    else:
        structure, generators = structure_from_forms(enumerate_reduced(D))
    return ClassGroupRecord(
        disc=D, fundamental=fundamental, structure=structure, generators=generators
    )


class ClassGroupCache:
    """Read-through cache of class groups: get(disc) returns the
    AbelianGroup of disc, built and checked once, on load or on a miss.

    The backing file is CSV with header ``disc,h,invariant_factors``; the
    factor chain is semicolon-joined ascending, e.g. ``-4027,9,3;3``.
    With path None the cache lives in memory only.
    """

    HEADER = ["disc", "h", "invariant_factors"]

    def __init__(self, path: str | None = None):
        self.path = path
        self._groups: dict[int, "AbelianGroup"] = {}  # noqa: F821
        self.dirty = False
        if self.path and os.path.exists(self.path):
            self._load()

    def _load(self):
        from .abelian import AbelianGroup  # checks the divisor chain

        with open(self.path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != self.HEADER:
                raise ValueError(f"unexpected cache header in {self.path}: {reader.fieldnames}")
            for row in reader:
                try:
                    disc, h = _disc_value(int(row["disc"])), int(row["h"])
                    cell = row["invariant_factors"] or ""  # None: the row is cut short
                    group = AbelianGroup(tuple(int(t) for t in cell.split(";") if t))
                except (TypeError, ValueError):
                    group = None
                if group is None or group.order != h or disc in self._groups:
                    raise ValueError(
                        f"corrupt cache row in {self.path} at line {reader.line_num}: "
                        f"disc {row['disc']}"
                    )
                self._groups[disc] = group

    def get(self, disc: int) -> "AbelianGroup":  # noqa: F821
        disc = _disc_value(disc)
        if disc not in self._groups:
            self._groups[disc] = class_group(disc).structure
            self.dirty = True
        return self._groups[disc]

    def save(self):
        """Write the rows to a temporary file beside the cache, then move it
        into place, so a crash never leaves a truncated cache behind."""
        if not self.path or not self.dirty:
            return
        tmp = f"{self.path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(self.HEADER)
                for disc, group in sorted(self._groups.items(), reverse=True):  # ascending |D|
                    writer.writerow([disc, group.order, ";".join(map(str, group.invariant_factors))])
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.dirty = False
