import hashlib
import random
from itertools import product
from math import gcd

import numpy as np
import pytest

from quadclass.finitefield import (
    FieldContext,
    FieldElement,
    dihedral_trace_set,
    element_of_order,
    make_field,
    trace_field_degree,
    traces_all_in_subfield,
)
from quadclass.ntheory import divisors, multiplicative_order

FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2), (7, 2), (5, 3)]


def _poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def test_modulus_is_irreducible():
    # roots rule out degree <= 3; a quadratic-factor scan covers degree 4
    for p, m in FIELDS:
        mod = make_field(p, m).modulus
        assert len(mod) == m + 1 and mod[-1] == 1
        if m == 1:
            continue
        assert all(_poly_eval(mod, x, p) for x in range(p)), (p, m)
        if m == 4:
            for b in range(p):
                for c in range(p):
                    q = [c, b, 1]
                    for e in range(p):
                        for f in range(p):
                            if _poly_mul(q, [f, e, 1], p) == list(mod):
                                pytest.fail(f"{mod} = {q} * {(f, e, 1)} mod {p}")


def test_context_cached_and_deterministic():
    assert make_field(3, 2) is make_field(3, 2)
    assert make_field(3, 2).modulus == make_field(3, 2).modulus


def test_field_axioms_sampled():
    for p, m in ((2, 3), (3, 2), (5, 2)):
        ctx = make_field(p, m)
        elems = [FieldElement(ctx, c) for c in product(range(p), repeat=m)]
        assert len(set(e.coeffs for e in elems)) == p**m
        zero = ctx.zero()
        for a in elems[:: max(1, len(elems) // 8)]:
            for b in elems[:: max(1, len(elems) // 8)]:
                assert (a * b).coeffs == (b * a).coeffs
                for c in elems[:: max(1, len(elems) // 6)]:
                    assert ((a + b) * c).coeffs == (a * c + b * c).coeffs
                    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
            assert (a + (-a)).coeffs == zero.coeffs
            if not a.is_zero():
                assert (a * a.inverse()).coeffs == ctx.scalar(1).coeffs


def test_multiplicative_group_order():
    for p, m in FIELDS:
        ctx = make_field(p, m)
        x = ctx.scalar(1)
        for c in product(range(p), repeat=m):
            e = FieldElement(ctx, c)
            if not e.is_zero():
                assert (e ** (p**m - 1)).coeffs == x.coeffs


def test_element_of_order_exact():
    for p, m in FIELDS:
        ctx = make_field(p, m)
        group = p**m - 1
        one = ctx.scalar(1).coeffs
        for h in (1, 2, 3, 5, 7, 8, 9, 15):
            if group % h:
                continue
            x = element_of_order(ctx, h)
            assert (x**h).coeffs == one
            for d in divisors(h)[:-1]:
                assert (x**d).coeffs != one, (p, m, h, d)


def test_in_subfield_matches_frobenius():
    ctx = make_field(2, 4)
    for c in product(range(2), repeat=4):
        e = FieldElement(ctx, c)
        # F_4 inside F_16: elements with e^4 = e
        assert e.in_subfield(2) == ((e**4).coeffs == e.coeffs)
        assert e.in_subfield(1) == ((e**2).coeffs == e.coeffs)


def test_trace_set_shape():
    ts = dihedral_trace_set(5, 2)
    assert ts.h == 5
    # traces are 0, 2, and x^i + x^-i: the diagonal list has 1 + h//2 entries
    assert len(ts.diagonal) == 1 + 5 // 2
    assert trace_field_degree(ts) == 2  # F_4 is generated

    ts47 = dihedral_trace_set(5, 7)
    # 7 = 2 mod 5 has order 4; traces x + 1/x satisfy a quadratic, F_49
    assert ts47.ctx.m == multiplicative_order(7, 5)
    assert trace_field_degree(ts47) == 2


def test_traces_match_direct_powers():
    for h, p in ((5, 2), (7, 2), (9, 2), (5, 3), (8, 3), (11, 3)):
        ts = dihedral_trace_set(h, p)
        ctx = ts.ctx
        x = element_of_order(ctx, h)
        want = {(x**i + x ** (h - i)).coeffs for i in range(h)}
        want.add(ctx.zero().coeffs)
        got = {t.coeffs for t in ts.traces}
        assert got == want, (h, p)


def test_trace_law_small_range():
    # all traces lie in F_p exactly when p = +-1 mod h
    for p in (2, 3, 5, 7):
        for h in range(1, 61):
            if gcd(h, p) != 1:
                continue
            ts = dihedral_trace_set(h, p)
            inside = traces_all_in_subfield(ts, 1)
            assert inside == (p % h in (1 % h, (-1) % h)), (h, p)
            # the traces generate F_p(x + 1/x), which Frobenius^s fixes
            # exactly when x^(p^s) = x^(+-1)
            pm1 = (1 % h, (-1) % h)
            least = next(s for s in range(1, h + 2) if pow(p, s, h) in pm1)
            assert trace_field_degree(ts) == least, (h, p)
            assert inside == (least == 1)


LITERAL_LAW_FAILURES = [(8, 3), (8, 5), (12, 5), (24, 5), (12, 7), (16, 7), (24, 7), (48, 7)]


def test_divisibility_form_of_law_and_its_exceptions():
    # "all traces in F_p" implies h | p^2 - 1 (p = +-1 mod h gives
    # h | p -+ 1); the converse fails, and in the h <= 60 window it
    # fails at exactly these pairs
    observed = []
    for p in (2, 3, 5, 7):
        for h in range(1, 61):
            if gcd(h, p) != 1:
                continue
            inside = traces_all_in_subfield(dihedral_trace_set(h, p), 1)
            divides = (p * p - 1) % h == 0
            if inside:
                assert divides, (h, p)
            elif divides:
                observed.append((h, p))
    assert observed == LITERAL_LAW_FAILURES


def test_coprimality_enforced():
    with pytest.raises(ValueError):
        dihedral_trace_set(6, 2)
    with pytest.raises(ValueError):
        dihedral_trace_set(9, 3)


def _random_contexts(count, seed):
    """Seeded random monic moduli, reducible or not: the Frobenius map
    e -> e^p is linear on F_p[x]/(f) for every f."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice((2, 3, 5, 7, 11))
        m = rng.choice((1, 2, 3, rng.randint(4, 100)))
        tail = np.array([rng.randrange(p) for _ in range(m)], dtype=np.int64)
        yield FieldContext(p, m, tail)


def test_frobenius_matrix_against_repeated_products():
    for ctx in _random_contexts(36, seed=5):
        p, m = ctx.p, ctx.m
        x = ctx._reduce(np.array([0, 1], dtype=np.int64))
        xp = x
        for _ in range(p - 1):
            xp = ctx._mul(xp, x)
        col = ctx._reduce(np.array([1], dtype=np.int64))
        cols = [col]
        for _ in range(m - 1):
            col = ctx._mul(col, xp)
            cols.append(col)
        want = np.stack(cols, axis=1)
        assert np.array_equal(ctx._frobenius_matrix(), want), ctx


def test_frobenius_power_against_repeated_application():
    fields = [make_field(2, 12), make_field(5, 6)]
    for ctx in list(_random_contexts(12, seed=7)) + fields:
        p, m = ctx.p, ctx.m
        base = ctx._frobenius_matrix()
        step = np.eye(m, dtype=np.int64)
        for s in range(m + 3):
            assert np.array_equal(ctx.frobenius_power(s), step), (ctx, s)
            step = (base @ step) % p


# sha256 over repr((p, h, m, modulus, element_of_order coefficients))
# for every coprime (h, p) with h <= 200 and p <= 7, in loop order.  It
# was recorded with a Rabin test and root search by repeated squaring,
# an independent route to the same moduli and roots.
ROOTS_DIGEST = "e08894d492dc4810b73e1b05dbd785382d5eaf4e5591c1be43e1c3c57746aab2"


def test_moduli_and_roots_pinned():
    digest = hashlib.sha256()
    for p in (2, 3, 5, 7):
        for h in range(1, 201):
            if gcd(h, p) != 1:
                continue
            m = multiplicative_order(p, h) if h > 1 else 1
            ctx = make_field(p, m)
            z = element_of_order(ctx, h)
            digest.update(repr((p, h, m, ctx.modulus, z.coeffs)).encode())
    assert digest.hexdigest() == ROOTS_DIGEST


def test_field_size_refused_past_exact_range():
    # matrix products are exact float64 sums only while m*(p-1)^2 < 2^53
    with pytest.raises(ValueError):
        make_field(2147483647, 1)
    with pytest.raises(ValueError):
        make_field(94906297, 1)  # (p-1)^2 just above 2^53
    assert make_field(94906249, 1).m == 1  # (p-1)^2 just below
