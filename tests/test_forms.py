import csv
import re

import pytest
from hypothesis import given, strategies as st

from quadclass.forms import (
    CACHE_ENV,
    ClassGroupCache,
    Inert,
    QuadForm,
    Ramified,
    class_group,
    class_number,
    compose,
    enumerate_reduced,
    form_pow,
    fundamental_mask,
    is_fundamental,
    kronecker,
    prime_form,
    principal_form,
    reduce_form,
)
from quadclass.ntheory import is_squarefree

from _oracles import class_number_by_box_scan

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
    mask = fundamental_mask(5000)
    for d in range(5001):
        assert bool(mask[d]) == is_fundamental(-d), d


def test_reduced_enumeration_matches_box_scan():
    for d in range(3, 2001):
        if -d % 4 not in (0, 1):
            continue
        assert class_number(-d) == class_number_by_box_scan(-d), -d


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


def test_cache_env_default(tmp_path, monkeypatch):
    path = tmp_path / "env.csv"
    monkeypatch.setenv(CACHE_ENV, str(path))
    cache = ClassGroupCache()
    assert cache.get(-23) == (3, (3,))
    cache.save()
    assert path.exists()
    assert ClassGroupCache().get(-23) == (3, (3,))


def test_non_fundamental_rejected_or_flagged():
    rec = class_group(-12)
    assert not rec.fundamental
