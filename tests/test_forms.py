import csv
import hashlib
import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quadclass.forms import (
    MAX_ENUMERATED_DISC,
    ClassGroupCache,
    Inert,
    QuadForm,
    Ramified,
    class_group,
    class_number,
    compose,
    enumerate_reduced,
    exponent_divides,
    form_pow,
    fundamental_mask,
    is_fundamental,
    kronecker,
    prime_form,
    principal_form,
    reduce_form,
)
from quadclass.ntheory import is_squarefree
from quadclass.sweep import ResourceLimitError

from _oracles import class_number_by_box_scan, enumerate_reduced_per_a, prime_form_by_least_b

# fundamental, mixed parity and class-group shape
SAMPLE_DISCS = [-3, -4, -8, -23, -47, -71, -163, -231, -420, -4027]


def _fundamental_by_definition(D: int) -> bool:
    if D >= 0 or D % 4 not in (0, 1):
        return False
    if D % 4 == 1:
        return is_squarefree(-D)
    m = D // 4
    return m % 4 in (2, 3) and is_squarefree(-m)


def test_is_fundamental_matches_definition():
    for d in range(1, 5001):
        assert is_fundamental(-d) == _fundamental_by_definition(-d), -d


def test_fundamental_mask_matches_pointwise():
    # every short limit, so that the cut from whole 16-entry periods back
    # to limit + 1 entries is exercised at every phase
    for limit in [*range(65), 5000]:
        mask = fundamental_mask(limit)
        assert len(mask) == limit + 1
        for d in range(limit + 1):
            assert bool(mask[d]) == (d >= 1 and _fundamental_by_definition(-d)), (limit, d)


def test_reduced_enumeration_matches_box_scan():
    for d in range(3, 2001):
        if -d % 4 not in (0, 1):
            continue
        assert class_number(-d) == class_number_by_box_scan(-d), -d


def test_enumerate_reduced_matches_per_a_loop_small_range():
    for d in range(3, 20001):
        if -d % 4 in (0, 1):
            assert enumerate_reduced(-d) == enumerate_reduced_per_a(-d), -d


def test_enumerate_reduced_matches_per_a_loop_large():
    # past |D| = 2e5 the (a, b) grid spans several blocks; 4e6 about twenty
    rng = random.Random(20261019)
    discs = [-4 * 10**6, -(4 * 10**6 - 1), -200004, -200003]
    while len(discs) < 40:
        D = -rng.randrange(3, 4 * 10**6)
        if D % 4 in (0, 1):
            discs.append(D)
    assert sum(D < -2 * 10**5 for D in discs) >= 30
    for D in discs:
        assert enumerate_reduced(D) == enumerate_reduced_per_a(D), D


def test_enumerate_reduced_refuses_past_cap():
    # refused before any array is built: past 2^63 numpy int64 would
    # overflow, and at 1e12 the enumeration would run for minutes
    for D in (-(MAX_ENUMERATED_DISC + 3), -10**12, -10**19):
        with pytest.raises(ResourceLimitError, match="reduced-form budget"):
            enumerate_reduced(D)
        with pytest.raises(ResourceLimitError):
            class_group(D)


@pytest.mark.parametrize("abc", [(0, 1, 1), (1, 1, -1), (-2, 1, -3), (1, 2, 1)])
def test_quadform_refuses_non_positive_definite(abc):
    with pytest.raises(ValueError, match="is not positive definite"):
        QuadForm(*abc)


def test_quadform_is_its_tuple():
    f = QuadForm(2, 1, 3)
    assert f == (2, 1, 3) and hash(f) == hash((2, 1, 3))
    assert {f: 1}[(2, 1, 3)] == 1
    assert repr(f) == "(2,1,3)" and repr([f]) == "[(2,1,3)]"
    assert (f.a, f.b, f.c, f.discriminant) == (2, 1, 3, -23)
    assert sorted([QuadForm(2, 1, 3), QuadForm(1, 1, 6), QuadForm(2, -1, 3)]) == [
        (1, 1, 6),
        (2, -1, 3),
        (2, 1, 3),
    ]


def test_enumerate_reduced_forms_are_reduced_and_distinct():
    for D in SAMPLE_DISCS:
        forms = enumerate_reduced(D)
        assert len(forms) == len(set(forms))
        for f in forms:
            assert f.b * f.b - 4 * f.a * f.c == D
            assert abs(f.b) <= f.a <= f.c
            if abs(f.b) == f.a or f.a == f.c:
                assert f.b >= 0


@given(st.sampled_from(SAMPLE_DISCS), st.data())
def test_reduce_form_finds_class_representative(D, data):
    forms = enumerate_reduced(D)
    f = data.draw(st.sampled_from(forms))
    k = data.draw(st.integers(min_value=-6, max_value=6))
    # translate by T^k: same class, usually unreduced
    a, b, c = f.a, f.b + 2 * k * f.a, f.c
    c = (b * b - D) // (4 * a)
    g = reduce_form(QuadForm(a, b, c))
    assert g == f
    # flip by S: also same class
    assert reduce_form(QuadForm(f.c, -f.b, f.a)) == f


def test_compose_group_axioms():
    for D in SAMPLE_DISCS:
        forms = enumerate_reduced(D)
        e = principal_form(D)
        assert e in forms
        for f in forms:
            assert compose(e, f) == f
            inv = reduce_form(QuadForm(f.a, -f.b, f.c))
            assert compose(f, inv) == e
            for g in forms:
                fg = compose(f, g)
                assert fg in forms
                assert fg == compose(g, f)


def test_compose_associative_sampled():
    for D in (-23, -71, -231, -4027):
        forms = enumerate_reduced(D)
        for f in forms:
            for g in forms:
                for h in forms[:3]:
                    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@given(st.sampled_from([-23, -47, -71, -420, -4027]), st.data())
def test_form_pow_matches_iterated_compose(D, data):
    forms = enumerate_reduced(D)
    f = data.draw(st.sampled_from(forms))
    n = data.draw(st.integers(min_value=0, max_value=12))
    acc = principal_form(D)
    for _ in range(n):
        acc = compose(acc, f)
    assert form_pow(f, n) == acc


def _represents(f: QuadForm, n: int) -> bool:
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            if f.a * x * x + f.b * x * y + f.c * y * y == n:
                return True
    return False


def test_prime_form_classification():
    for D in SAMPLE_DISCS:
        for ell in (2, 3, 5, 7, 11, 13, 23, 47):
            out = prime_form(D, ell)
            k = kronecker(D, ell)
            if k == -1:
                assert isinstance(out, Inert)
            elif k == 0:
                assert isinstance(out, Ramified)
                f = out.form
                assert f in enumerate_reduced(D)
                # the ramified class squares to the identity
                assert compose(f, f) == principal_form(D)
            else:
                assert isinstance(out, QuadForm)
                assert out in enumerate_reduced(D)
                assert _represents(out, ell)


def test_prime_form_matches_least_b_search():
    # every discriminant down to -2000, fundamental or not, so that ell^2
    # may divide D on the ramified branch
    for d in range(3, 2001):
        if -d % 4 not in (0, 1):
            continue
        for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
            assert prime_form(-d, ell) == prime_form_by_least_b(-d, ell), (-d, ell)


def test_prime_form_order_divides_class_number():
    for D in (-23, -47, -71, -4027):
        h = class_number(D)
        for ell in (2, 3, 5, 7):
            out = prime_form(D, ell)
            if not isinstance(out, QuadForm):
                continue
            assert form_pow(reduce_form(out), h) == principal_form(D)


# invariant factors and their generators, recorded before the int-tuple
# kernel replaced QuadForm arithmetic; witness rows depend on the generators
KNOWN_CLASS_GROUPS = {
    -3: (1, (), []),
    -4: (1, (), []),
    -23: (3, (3,), [(2, -1, 3)]),
    -47: (5, (5,), [(2, -1, 6)]),
    -231: (12, (2, 6), [(7, 7, 10), (5, 3, 12)]),
    -420: (8, (2, 2, 2), [(5, 0, 21), (3, 0, 35), (2, 2, 53)]),
    -3299: (27, (3, 9), [(15, -11, 57), (3, -1, 275)]),
    -4027: (9, (3, 3), [(17, -11, 61), (13, -9, 79)]),
    -11199: (100, (5, 20), [(12, -9, 235), (35, -1, 80)]),
    -21311: (200, (200,), [(42, -19, 129)]),
    -30244: (40, (40,), [(19, -2, 398)]),
}


def test_class_group_known_structures():
    for D, (h, factors, gens) in KNOWN_CLASS_GROUPS.items():
        rec = class_group(D)
        assert (rec.class_number, rec.structure.invariant_factors) == (h, factors), D
        assert rec.generators == [(QuadForm(*g), k) for g, k in zip(gens, factors)], D


# sha256 of (D, invariant factors, generators with orders) over every D
# with |D| < 5000, recorded before structure came from a generating set
CLASS_GROUPS_DIGEST = "d7e7eabbce3e90141f6e3fcaef8a494506809d579e46edd746bbc10bd1a0c0bc"


def test_class_groups_and_generators_pinned():
    digest = hashlib.sha256()
    for d in range(3, 5000):
        if -d % 4 not in (0, 1):
            continue
        rec = class_group(-d)
        gens = tuple((g.a, g.b, g.c, k) for g, k in rec.generators)
        digest.update(repr((-d, rec.structure.invariant_factors, gens)).encode())
    assert digest.hexdigest() == CLASS_GROUPS_DIGEST


def test_class_group_structure_consistent():
    for d in range(3, 1001):
        if not is_fundamental(-d):
            continue
        rec = class_group(-d)
        assert rec.fundamental
        assert rec.structure.order == rec.class_number == class_number_by_box_scan(-d)
        factors = rec.structure.invariant_factors
        for x, y in zip(factors, factors[1:]):
            assert y % x == 0


def test_class_group_generators_generate():
    for D in (-47, -231, -420, -4027):
        rec = class_group(D)
        gens = rec.generators
        assert [d for _, d in gens] == list(rec.structure.invariant_factors)
        span = {principal_form(D)}
        for g, d in gens:
            assert form_pow(g, d) == principal_form(D)
            span = {compose(x, form_pow(g, k)) for x in span for k in range(d)}
        assert len(span) == rec.class_number


def test_ambiguous_forms_match_two_torsion():
    # genus theory: ambiguous reduced forms biject with the 2-torsion
    for d in range(3, 2001):
        if not is_fundamental(-d):
            continue
        rec = class_group(-d)
        ambiguous = sum(
            1 for f in enumerate_reduced(-d) if f.b == 0 or f.a == f.b or f.a == f.c
        )
        torsion = 1
        for q in rec.structure.invariant_factors:
            if q % 2 == 0:
                torsion *= 2
        assert ambiguous == torsion, -d


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "cg.csv"
    cache = ClassGroupCache(str(path))
    assert cache.get(-4027) == (9, (3, 3))
    cache.save()
    assert [p.name for p in tmp_path.iterdir()] == ["cg.csv"]  # no *.tmp left
    fresh = ClassGroupCache(str(path))
    assert fresh._rows[-4027] == (9, (3, 3))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["disc", "h", "invariant_factors"]


@pytest.mark.parametrize(
    "row",
    ["-4027,9,3", "-4027,9,2;6", "-4027,9,3;3;1", "-231,12,3;4", "-23,3,", "-23,3", "-23", "-23,3,x"],
)
def test_cache_rejects_corrupt_row(tmp_path, row):
    # wrong product, not a divisor chain, factor 1, cut short, not a number
    path = tmp_path / "cg.csv"
    path.write_text(f"disc,h,invariant_factors\n-47,5,5\n{row}\n")
    disc = row.split(",")[0]
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} at line 3: disc {disc}$"):
        ClassGroupCache(str(path))


def test_cache_without_path_stays_in_memory(tmp_path, monkeypatch):
    # the library reads no environment: only the CLI turns
    # $QUADCLASS_CACHE into a path
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QUADCLASS_CACHE", str(tmp_path / "env.csv"))
    cache = ClassGroupCache()
    assert cache.path is None
    assert cache.get(-23) == (3, (3,))
    cache.save()
    assert list(tmp_path.iterdir()) == []


def test_non_fundamental_rejected_or_flagged():
    rec = class_group(-12)
    assert not rec.fundamental


def _exponent_queries(h: int) -> list[int]:
    """3, and h with its q-part replaced by q^k for q in {2, 3, 5} and
    k in {0, 1, 2}: each asks whether the q-part of the exponent is at
    most q^k."""
    ns = {3}
    for q in (2, 3, 5):
        core = h
        while core % q == 0:
            core //= q
        ns.update(core * q**k for k in range(3))
    return sorted(ns)


def _check_exponent_divides(D: int) -> None:
    record = class_group(D)
    for n in _exponent_queries(record.class_number):
        assert exponent_divides(D, n) == (n % record.structure.exponent == 0), (D, n)


def test_exponent_divides_matches_structure_small_range():
    discs = [-n for n in range(3, 5001) if is_fundamental(-n)]
    assert len(discs) == 1524
    for D in discs:
        _check_exponent_divides(D)


def test_exponent_divides_matches_structure_near_one_million():
    rng = random.Random(20261018)
    discs = set()
    while len(discs) < 100:
        D = -rng.randrange(10**6, 10**6 + 50000)
        if is_fundamental(D):
            discs.add(D)
    for D in sorted(discs, reverse=True):
        _check_exponent_divides(D)


@pytest.mark.parametrize("D, n", [(-12, 3), (-23, 0), (-23, -3)])
def test_exponent_divides_rejects_bad_input(D, n):
    with pytest.raises(ValueError):
        exponent_divides(D, n)


ENTRY_POINTS = {
    "class_group": lambda D: class_group(D).disc,
    "enumerate_reduced": enumerate_reduced,
    "prime_form": lambda D: prime_form(D, 2),
    "exponent_divides": lambda D: exponent_divides(D, 3),
    "ClassGroupCache.get": lambda D: ClassGroupCache(None).get(D),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_non_integer_discriminant_refused(name):
    call = ENTRY_POINTS[name]
    with pytest.raises(TypeError, match="must be an integer"):
        call(-23.7)
    assert call(np.int64(-23)) == call(-23)
