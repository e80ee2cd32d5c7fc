"""Arithmetic in F_{p^m} and the dihedral trace sets living inside it:
the oracle for the mod-p reductions of quadclass.dihedral.

No command-line path imports this module.  dihedral reads the degree
of a reduced coefficient off its exponent, which needs no irreducible
modulus, no Frobenius matrix and no root search; the tests check it
against the field search here, and the benchmark's tracer still wraps
make_field, element_of_order, dihedral_trace_set and trace_field_degree
by name.

The interesting objects here are small: an element x of multiplicative
order h in the field F_{p^m} where m is the order of p mod h, the
matrix group generated by diag(x, 1/x) and the swap matrix, and the
set of traces that group produces, namely 0 and x^i + x^{-i}.  The
question the rest of the package keeps asking is which subfield those
traces generate, so membership tests are Frobenius fixed-point checks:
t lies in F_{p^s} iff t^(p^s) = t.

Field elements are coefficient vectors modulo a monic modulus
x^m + tail; a product is one int64 convolution folded back by the tail.
The modulus is found by a deterministic search: tails are enumerated
as a base-p counter (0, 1, ..., p-1, x, x+1, ...) and the first
irreducible wins, so a (p, m) pair names the same field on every run
and platform.  Candidate tails are first screened against a stock of
low-degree irreducibles (about a thousand polynomials enumerated, none
when m = 1), and survivors get the full Frobenius (Rabin) test; the
screen is an optimization only and rejects nothing the full test would
accept.

The Frobenius map e -> e^p is linear over F_p, and each field caches
its integer matrix, built from the companion matrix of the modulus.
It carries the work that would otherwise be repeated p-th powers: the
Rabin test steps x^(p^k) by one matrix-vector product per k,
frobenius_power(s) is binary powering of the matrix, and
element_of_order raises to (p^m - 1)/h by base-p Horner, one
Frobenius step per digit.  Matrix products run in float64 (BLAS), which
is exact while every dot product m*(p-1)^2 stays below 2^53; make_field
refuses fields past that bound, and fields of degree m > 512, whose
search takes minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .ntheory import divisors, factorize, multiplicative_order, power

# The screening stock holds the irreducibles of every degree d with
# p^d <= _SCREEN_CANDIDATES, so building it enumerates about that many
# polynomials (degrees 9, 6, 4, 3, 2 for p = 2, 3, 5, 7, 11; none past
# p = 1000).  Past that the screen costs more than the Rabin tests it
# saves.
_SCREEN_CANDIDATES = 1000

# Matrix products are exact float64 sums while m * (p - 1)^2 < 2^53.
_EXACT_LIMIT = 2**53

# Largest extension degree make_field builds.  The deterministic search
# costs seconds near m = 512 (p = 3, m = 511: 14-19 s on a 2-vCPU x86-64
# host) and did not finish in minutes at m = 1522.
_MAX_DEGREE = 512


def _screen_cap(p: int) -> int:
    d = 0
    while p ** (d + 1) <= _SCREEN_CANDIDATES:
        d += 1
    return d


def _matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p as int64, for arrays with entries in [0, p).

    The product runs in float64 so it goes to BLAS.  It is exact: every
    partial sum is an integer at most (inner dimension) * (p - 1)^2,
    which make_field keeps below 2^53.
    """
    prod = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
    out = prod.astype(np.int64)  # np.fmod is ten times slower than this
    out %= p
    return out


def _matpow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e mod p for a square matrix a, by binary powering."""
    if e == 0:
        return np.eye(len(a), dtype=np.int64)
    return power(a, e, lambda x, y: _matmul(x, y, p))


def _digits(k: int, p: int) -> list[int]:
    """Base-p digits of k, little-endian, [] for k = 0."""
    out = []
    while k:
        k, r = divmod(k, p)
        out.append(r)
    return out


def _poly_mod(f: list[int], q: list[int], p: int) -> list[int]:
    """Remainder of f by monic q, dense little-endian lists, mod p."""
    f = [c % p for c in f]
    dq = len(q) - 1
    for j in range(len(f) - 1, dq - 1, -1):
        c = f[j]
        if c:
            for i in range(dq + 1):
                f[j - dq + i] = (f[j - dq + i] - c * q[i]) % p
    while len(f) > dq:
        f.pop()
    return f


@lru_cache(maxsize=None)
def _screen_stock(p: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducibles over F_p up to the screening degree cap,
    built sieve-style: a candidate survives if no earlier stock entry
    of at most half its degree divides it."""
    stock: list[tuple[int, ...]] = []
    for d in range(1, _screen_cap(p) + 1):
        for k in range(p**d):
            tail = _digits(k, p)
            f = tail + [0] * (d - len(tail)) + [1]
            if any(
                not any(_poly_mod(f, list(q), p))
                for q in stock
                if 2 * (len(q) - 1) <= d
            ):
                continue
            stock.append(tuple(f))
    return tuple(stock)


def _trim(vec: np.ndarray) -> np.ndarray:
    nz = np.nonzero(vec)[0]
    return vec[: nz[-1] + 1] if nz.size else vec[:0]


def _poly_gcd_is_one(u: np.ndarray, f: np.ndarray, p: int) -> bool:
    """Whether gcd(u, f) = 1 over F_p.  Little-endian int64 arrays."""
    u, v = _trim(f % p), _trim(u % p)
    while v.size:
        # u mod v by synthetic division; v's lead coefficient inverted once
        inv = pow(int(v[-1]), p - 2, p)
        dv = v.size - 1
        for j in range(u.size - 1, dv - 1, -1):
            c = int(u[j]) * inv % p
            if c:
                u[j - dv : j + 1] = (u[j - dv : j + 1] - c * v) % p
        u, v = v, _trim(u[:dv] if dv else u[:0])
    return u.size == 1


class FieldContext:
    """The field F_{p^m} presented as F_p[x] / (x^m + tail).

    Immutable after construction; build through make_field, which
    caches contexts so a (p, m) pair is constructed once.
    """

    def __init__(self, p: int, m: int, tail: np.ndarray):
        self.p = p
        self.m = m
        self._tail = tail  # length m, little-endian
        self._negtail = _trim((-tail) % p)
        if not self._negtail.size:
            self._negtail = np.zeros(1, dtype=np.int64)
        self.order = p**m
        # A fold multiplies entries by at most (p - 1) * m and adds one
        # more, so entries up to this bound cannot overflow int64 in it.
        self._fold_limit = (2**63 - 1) // ((p - 1) * m + 1)
        self._frob: np.ndarray | None = None
        self._roots: dict[int, "FieldElement"] = {}  # element_of_order by h

    @property
    def modulus(self) -> tuple[int, ...]:
        """Coefficients of x^m + tail, little-endian, length m + 1."""
        return tuple(int(c) for c in self._tail) + (1,)

    def __repr__(self):
        return f"FieldContext(p={self.p}, m={self.m}, modulus={self.modulus})"

    # -- raw vector arithmetic (little-endian int64, length m) --

    def _reduce(self, vec: np.ndarray) -> np.ndarray:
        # Inputs are < p, so one convolve bounds entries by m*(p-1)^2 <
        # 2^53; folds mod p only when the next fold could overflow
        # (long-tail moduli refold many times), and once at the end.
        m = self.m
        while vec.size > m:
            if vec.max(initial=0) > self._fold_limit:
                vec = vec % self.p
            ext = np.convolve(vec[m:], self._negtail)
            if ext.size <= m:
                head = vec[:m].copy()
                head[: ext.size] += ext
                vec = head
            else:
                ext = ext.copy()
                ext[:m] += vec[:m]
                vec = ext
        if vec.size < m:
            out = np.zeros(m, dtype=np.int64)
            out[: vec.size] = vec
            vec = out
        return vec % self.p

    def _mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._reduce(np.convolve(a, b))

    def _frobenius_matrix(self) -> np.ndarray:
        """Matrix of e -> e^p in the power basis (columns are x^{ip}),
        read-only.  The companion matrix C of the modulus multiplies by
        x, so C^p multiplies by x^p; the columns (C^p)^i e_0 come by
        Krylov doubling, [K, A^k K] with A^k squared each round."""
        if self._frob is None:
            m, p = self.m, self.p
            companion = np.zeros((m, m), dtype=np.int64)
            companion[1:, :-1] = np.eye(m - 1, dtype=np.int64)
            companion[:, -1] = (-self._tail) % p
            step = _matpow(companion, p, p)
            cols = np.zeros((m, 1), dtype=np.int64)
            cols[0, 0] = 1
            while cols.shape[1] < m:
                cols = np.hstack([cols, _matmul(step, cols, p)])
                if cols.shape[1] < m:
                    step = _matmul(step, step, p)
            self._frob = np.ascontiguousarray(cols[:, :m])
            self._frob.flags.writeable = False
        return self._frob

    def frobenius_power(self, s: int) -> np.ndarray:
        """Matrix of e -> e^(p^s)."""
        return _matpow(self._frobenius_matrix(), s, self.p)

    # -- element constructors --

    def element(self, coeffs) -> "FieldElement":
        vec = np.zeros(self.m, dtype=np.int64)
        cs = list(coeffs)
        vec[: len(cs)] = cs
        return FieldElement(self, tuple(int(c) for c in vec % self.p))

    def zero(self) -> "FieldElement":
        return self.element(())

    def one(self) -> "FieldElement":
        return self.element((1,))

    def scalar(self, c: int) -> "FieldElement":
        return self.element((c % self.p,))


@dataclass(frozen=True)
class FieldElement:
    """An element of a FieldContext: coefficients in the power basis."""

    ctx: FieldContext
    coeffs: tuple[int, ...]

    def _vec(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=np.int64)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(
            self.ctx,
            tuple(
                (a + b) % self.ctx.p for a, b in zip(self.coeffs, other.coeffs)
            ),
        )

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(
            self.ctx,
            tuple(
                (a - b) % self.ctx.p for a, b in zip(self.coeffs, other.coeffs)
            ),
        )

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.ctx, tuple(-a % self.ctx.p for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        vec = self.ctx._mul(self._vec(), other._vec())
        return FieldElement(self.ctx, tuple(int(c) for c in vec))

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            base = self.inverse()
            e = -e
        else:
            base = self
        if not e:
            return self.ctx.one()
        vec = power(base._vec(), e, self.ctx._mul)
        return FieldElement(self.ctx, tuple(int(c) for c in vec))

    def inverse(self) -> "FieldElement":
        if not any(self.coeffs):
            raise ZeroDivisionError("inverting 0")
        return self ** (self.ctx.order - 2)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def in_subfield(self, s: int) -> bool:
        """Whether self lies in F_{p^s}, i.e. self^(p^s) = self."""
        return _frobenius_fixes(self.ctx, self._vec(), s)

    def field_degree(self) -> int:
        """Degree over F_p of the subfield self generates."""
        return _fixed_degree(self.ctx, self._vec())

    def __repr__(self):
        p = self.ctx.p
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(
                    ("" if c == 1 and i else str(c))
                    + ("" if i == 0 else "x" if i == 1 else f"x^{i}")
                )
        return "+".join(terms) if terms else "0"


def _frobenius_fixes(ctx: FieldContext, rows: np.ndarray, s: int) -> bool:
    """Whether e -> e^(p^s) fixes every coefficient row of rows (one
    vector, or one per row of a matrix), i.e. all lie in F_{p^s}."""
    return bool(np.array_equal(_matmul(rows, ctx.frobenius_power(s).T, ctx.p), rows))


def _fixed_degree(ctx: FieldContext, rows: np.ndarray) -> int:
    """Least s | m with every row in F_{p^s}: the degree over F_p of the
    field the rows generate."""
    for s in divisors(ctx.m):
        if _frobenius_fixes(ctx, rows, s):
            return s
    raise AssertionError("elements outside their own field")


def _is_irreducible(ctx: FieldContext) -> bool:
    """Full Frobenius (Rabin) test for the modulus f of ctx: irreducible
    iff x^(p^m) = x mod f and gcd(x^(p^(m/r)) - x, f) = 1 for primes
    r | m.  x^(p^k) is stepped by one Frobenius matrix-vector product
    per k; the map e -> e^p is linear over F_p whether or not f is
    irreducible.  The cheap final test runs first: most candidates
    fail it, and then need no gcd."""
    p, m = ctx.p, ctx.m
    if m == 1:
        return True
    frob = ctx._frobenius_matrix().astype(np.float64)
    checkpoints = {m // r for r in factorize(m)}
    x = np.zeros(m, dtype=np.int64)
    x[1] = 1
    w = x
    at_checkpoints = []
    for k in range(1, m + 1):
        w = _matmul(frob, w, p)
        if k in checkpoints:
            at_checkpoints.append(w)
    if not np.array_equal(w, x):
        return False
    f = np.array(ctx.modulus, dtype=np.int64)
    return all(_poly_gcd_is_one((v - x) % p, f, p) for v in at_checkpoints)


_field_cache: dict[tuple[int, int], FieldContext] = {}


def make_field(p: int, m: int) -> FieldContext:
    """The field with p^m elements, modulus x^m + tail where tail is
    the first base-p counter value making the polynomial irreducible.
    Raises ValueError when m < 1, when m > 512, past which the search
    takes minutes, or when m*(p-1)^2 >= 2^53, past which the Frobenius
    matrix products would not be exact."""
    if m < 1:
        raise ValueError("extension degree must be at least 1")
    if m > _MAX_DEGREE:
        raise ValueError(
            f"field F_{p}^{m} is out of range: the degree must be at most {_MAX_DEGREE}"
        )
    if m * (p - 1) ** 2 >= _EXACT_LIMIT:
        raise ValueError(
            f"field F_{p}^{m} is out of range: m*(p-1)^2 must be below 2^53"
        )
    key = (p, m)
    if key in _field_cache:
        return _field_cache[key]
    cap = _screen_cap(p)
    stock = [list(q) for q in _screen_stock(p) if len(q) - 1 < m] if m > 1 else []
    xm_mod_q = [_poly_mod([0] * m + [1], q, p) for q in stock]
    k = 0
    while True:
        tail = _digits(k, p)
        if len(tail) > m:
            raise AssertionError("ran out of degree-m polynomials")
        screened_out = False
        for q, xm in zip(stock, xm_mod_q):
            rem = list(xm)
            t = _poly_mod(tail, q, p) if len(tail) >= len(q) else tail
            for i, c in enumerate(t):
                rem[i] = (rem[i] + c) % p
            if not any(rem):
                screened_out = True
                break
        if not screened_out:
            ctx = FieldContext(
                p, m, np.array(tail + [0] * (m - len(tail)), dtype=np.int64)
            )
            # any composite of degree m has a factor of degree <= m/2,
            # so within twice the screening cap the screen is the whole
            # test and survivors need no Frobenius run
            if m <= 2 * cap or _is_irreducible(ctx):
                break
        k += 1
    _field_cache[key] = ctx
    return ctx


def element_of_order(ctx: FieldContext, h: int) -> FieldElement:
    """An element of exact multiplicative order h: g^((p^m - 1)/h) for
    the first field element g, in base-p counter order, for which the
    exact-order check passes."""
    if h < 1 or (ctx.order - 1) % h:
        raise ValueError(f"no element of order {h}: {h} does not divide p^m - 1")
    cached = ctx._roots.get(h)
    if cached is not None:
        return cached
    p = ctx.p
    # z = g^((p^m - 1)/h) by base-p Horner: z -> z^p * g^d per digit d,
    # the p-th power being one Frobenius matrix-vector product
    digits = _digits((ctx.order - 1) // h, p)[::-1]
    frob = ctx._frobenius_matrix().astype(np.float64)
    hfactors = list(factorize(h))
    for k in range(1, ctx.order):
        g = ctx.element(_digits(k, p))._vec()
        powers = {d: power(g, d, ctx._mul) for d in set(digits) if d}
        vec = powers[digits[0]]
        for d in digits[1:]:
            vec = _matmul(frob, vec, p)
            if d:
                vec = ctx._mul(vec, powers[d])
        z = FieldElement(ctx, tuple(int(c) for c in vec))
        if z.is_zero():
            continue
        # z^h = g^(p^m - 1) = 1 holds automatically; exactness needs
        # z^(h/r) != 1 at every prime r | h
        one = (1,) + (0,) * (ctx.m - 1)
        if any((z ** (h // r)).coeffs == one for r in hfactors):
            continue
        ctx._roots[h] = z
        return z
    raise AssertionError("multiplicative group exhausted")  # unreachable


@dataclass(frozen=True)
class TraceSet:
    """Traces of the 2h-element dihedral matrix group: the diagonal
    part diag(x^i, x^-i) contributes x^i + x^-i (i up to h/2, the rest
    repeat), the antidiagonal coset contributes 0."""

    h: int
    ctx: FieldContext
    diagonal: tuple[FieldElement, ...]
    traces: frozenset[FieldElement]

    def __len__(self) -> int:
        return len(self.traces)


def dihedral_trace_set(h: int, p: int) -> TraceSet:
    """All traces of the dihedral group of order 2h realized in 2x2
    matrices over F_{p^m}, m the multiplicative order of p mod h."""
    if gcd(h, p) != 1:
        raise ValueError(f"h = {h} must be coprime to p = {p}")
    m = multiplicative_order(p, h) if h > 1 else 1
    ctx = make_field(p, m)
    x = element_of_order(ctx, h)
    two = ctx.scalar(2)
    diag = [two]
    if h > 1:
        t1 = x + x ** (h - 1)  # x^(h-1) = 1/x, far cheaper than a field inverse
        diag.append(t1)
        for _ in range(2, h // 2 + 1):
            diag.append(t1 * diag[-1] - diag[-2])
    return TraceSet(
        h, ctx, tuple(diag), frozenset(diag) | {ctx.zero()}
    )


def _trace_rows(ts: TraceSet) -> np.ndarray:
    return np.array([t.coeffs for t in ts.diagonal], dtype=np.int64)


def traces_all_in_subfield(ts: TraceSet, s: int) -> bool:
    """Whether every trace lies in F_{p^s} (Frobenius fixed points)."""
    return _frobenius_fixes(ts.ctx, _trace_rows(ts), s)


def trace_field_degree(ts: TraceSet) -> int:
    """Degree over F_p of the field generated by all the traces."""
    return _fixed_degree(ts.ctx, _trace_rows(ts))
