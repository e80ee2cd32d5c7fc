"""Binary quadratic forms of negative discriminant and their class groups.

A form (a, b, c) stands for a*x^2 + b*x*y + c*y^2.  Only positive definite
forms appear here (a > 0, b^2 - 4ac < 0), and a class group is always
realized as the set of primitive reduced forms of one discriminant under
composition.

The arithmetic itself (``_reduce``, ``_compose``, ``_pow``) works on plain
``(a, b, c)`` int tuples with the discriminant passed in, so that inner
loops build and validate no objects.  The public functions take and return
validated ``QuadForm`` objects and convert once at that edge.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from math import gcd, isqrt

import numpy as np

from .ntheory import is_squarefree, kronecker, sqrt_mod_prime, squarefree_mask, xgcd


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


def fundamental_mask(limit: int) -> np.ndarray:
    """Boolean array f of length limit+1: f[n] true iff -n is fundamental."""
    n = np.arange(limit + 1, dtype=np.int64)
    sqf = squarefree_mask(limit)
    mask = (n % 4 == 3) & sqf
    # -n = 4m with m = -(n/4); m mod 4 in {2, 3} means n/4 mod 4 in {1, 2}
    quarter = n[::4] // 4
    mask[::4] = ((quarter % 4 == 1) | (quarter % 4 == 2)) & sqf[quarter]
    return mask


@dataclass(frozen=True)
class Discriminant:
    """A negative discriminant, with its fundamentality precomputed."""

    value: int
    fundamental: bool = field(init=False)

    def __post_init__(self):
        if self.value >= 0 or self.value % 4 not in (0, 1):
            raise ValueError(f"{self.value} is not a negative discriminant")
        object.__setattr__(self, "fundamental", is_fundamental(self.value))


def _disc_value(D) -> int:
    v = D.value if isinstance(D, Discriminant) else int(D)
    if v >= 0 or v % 4 not in (0, 1):
        raise ValueError(f"{v} is not a negative discriminant")
    return v


@dataclass(frozen=True, order=True)
class QuadForm:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.discriminant >= 0:
            raise ValueError(f"form {(self.a, self.b, self.c)} is not positive definite")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if b < 0 and (abs(b) == a or a == c):
            return False
        return True

    @property
    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    def inverse(self) -> "QuadForm":
        return reduce_form(QuadForm(self.a, -self.b, self.c))

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


def _pow(f, n: int, mul):
    """f^n for n >= 1 under the product mul, by right-to-left binary
    powering: n.bit_length() + popcount(n) - 2 products."""
    result = None
    while True:
        if n & 1:
            result = f if result is None else mul(result, f)
        n >>= 1
        if not n:
            return result
        f = mul(f, f)


def reduce_form(f: QuadForm) -> QuadForm:
    """The unique reduced form equivalent to f.

    >>> reduce_form(QuadForm(1, 1, 1))
    (1,1,1)
    >>> reduce_form(QuadForm(6, 1, 2))
    (2,-1,6)
    """
    return QuadForm(*_reduce(f.a, f.b, f.c, f.discriminant))


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Gauss composition; returns the reduced representative of the product.

    >>> compose(QuadForm(2, 1, 3), QuadForm(2, 1, 3))
    (2,-1,3)
    """
    D = f.discriminant
    if g.discriminant != D:
        raise ValueError(f"discriminant mismatch: {D} vs {g.discriminant}")
    return QuadForm(*_compose((f.a, f.b, f.c), (g.a, g.b, g.c), D))


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
    base = _reduce(f.a, f.b, f.c, D)
    return QuadForm(*_pow(base, n, lambda x, y: _compose(x, y, D)))


def enumerate_reduced(D) -> list[QuadForm]:
    """All primitive reduced forms of discriminant D, ordered by (a, b).

    >>> enumerate_reduced(-23)
    [(1,1,6), (2,-1,3), (2,1,3)]
    """
    D = _disc_value(D)
    absD = -D
    forms = []
    parity = absD & 1
    for a in range(1, isqrt(absD // 3) + 1):
        bs = np.arange(parity, a + 1, 2, dtype=np.int64)
        num = bs * bs + absD
        sel = num % (4 * a) == 0
        bs, num = bs[sel], num[sel]
        cs = num // (4 * a)
        sel = cs >= a
        bs, cs = bs[sel], cs[sel]
        if not len(bs):
            continue
        prim = np.gcd(np.gcd(bs, a), cs) == 1
        for b, c in zip(bs[prim].tolist(), cs[prim].tolist()):
            if 0 < b < a and c > a:
                forms.append(QuadForm(a, -b, c))
            forms.append(QuadForm(a, b, c))
    return sorted(forms, key=lambda f: (f.a, f.b))


def class_number(D) -> int:
    return len(enumerate_reduced(D))


class Inert:
    """Sentinel: the prime is inert, its eigenform coefficient is 0."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

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
    if ell == 2:
        if D % 8 == 1:
            return reduce_form(QuadForm(2, 1, (1 - D) // 8))
        if D % 2:
            return INERT
        for b in (0, 2):
            if (b * b - D) % 8 == 0:
                return Ramified(reduce_form(QuadForm(2, b, (b * b - D) // 8)))
        raise AssertionError(f"no ramified form above 2 for D={D}")
    sym = kronecker(D, ell)
    if sym == -1:
        return INERT
    if sym == 0:
        for b in range(0, 2 * ell + 1):
            if (b - D) % 2 == 0 and (b * b - D) % (4 * ell) == 0:
                return Ramified(reduce_form(QuadForm(ell, b, (b * b - D) // (4 * ell))))
        raise AssertionError(f"no ramified form above {ell} for D={D}")
    s = sqrt_mod_prime(D % ell, ell)
    b = s if (s - D) % 2 == 0 else ell - s
    return reduce_form(QuadForm(ell, b, (b * b - D) // (4 * ell)))


@dataclass
class ClassGroupRecord:
    disc: int
    fundamental: bool
    class_number: int
    structure: "AbelianGroup"  # noqa: F821 - imported lazily to avoid a cycle
    generators: list  # (QuadForm, order) pairs, aligned with invariant factors

    def factors_string(self) -> str:
        return ";".join(str(d) for d in self.structure.invariant_factors)


def class_group(D) -> ClassGroupRecord:
    """Class number, invariant factors and generators for one discriminant.

    Non-fundamental discriminants are accepted; the record carries the flag.

    >>> class_group(-4027).structure.invariant_factors
    (3, 3)
    """
    from .abelian import structure_from_forms

    D = _disc_value(D)
    forms = enumerate_reduced(D)
    structure, generators = structure_from_forms(forms, with_generators=True)
    return ClassGroupRecord(
        disc=D,
        fundamental=is_fundamental(D),
        class_number=len(forms),
        structure=structure,
        generators=generators,
    )


CACHE_ENV = "QUADCLASS_CACHE"


class ClassGroupCache:
    """Read-through cache of (disc, h, invariant factors) rows.

    The backing file is CSV with header ``disc,h,invariant_factors``; the
    factor chain is semicolon-joined ascending, e.g. ``-4027,9,3;3``.
    """

    HEADER = ["disc", "h", "invariant_factors"]

    def __init__(self, path: str | None = None):
        self.path = path if path is not None else os.environ.get(CACHE_ENV)
        self._rows: dict[int, tuple[int, tuple[int, ...]]] = {}
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
                    disc, h = int(row["disc"]), int(row["h"])
                    cell = row["invariant_factors"] or ""  # None: the row is cut short
                    group = AbelianGroup(tuple(int(t) for t in cell.split(";") if t))
                except (TypeError, ValueError):
                    group = None
                if group is None or group.order != h:
                    raise ValueError(
                        f"corrupt cache row in {self.path} at line {reader.line_num}: "
                        f"disc {row['disc']}"
                    )
                self._rows[disc] = (h, group.invariant_factors)

    def get(self, disc: int) -> tuple[int, tuple[int, ...]]:
        disc = _disc_value(disc)
        if disc not in self._rows:
            record = class_group(disc)
            self._rows[disc] = (record.class_number, record.structure.invariant_factors)
            self.dirty = True
        return self._rows[disc]

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
                for disc in sorted(self._rows, key=abs):
                    h, factors = self._rows[disc]
                    writer.writerow([disc, h, ";".join(str(d) for d in factors)])
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.dirty = False
