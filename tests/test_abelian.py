import random
from collections import Counter
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, strategies as st

from quadclass import abelian
from quadclass.abelian import (
    AbelianGroup,
    _CheckedGroup,
    _check_torsion,
    _close,
    _extend,
    _relation_matrix,
    _smith_coordinates,
    _smith_form,
    _sylow_bases,
    _sylow_codes,
    aut_order,
    has_cyclic_quotient,
    is_p_suitable,
    structure_from_forms,
)
from quadclass.forms import (
    class_group,
    class_number,
    compose,
    enumerate_reduced,
    form_pow,
    is_fundamental,
    principal_form,
)
from quadclass.ntheory import factorize

from _oracles import (
    aut_order_by_enumeration,
    aut_order_by_moebius,
    cyclic_quotient_orders,
    element_order,
    small_group,
    structure_by_projection,
    suitable_by_enumeration,
    sylow_sets_by_projection,
)

ORDER_BOUND = 64


def _divisor_chains(bound: int) -> list[tuple[int, ...]]:
    """Every ascending divisor chain (d1 | d2 | ... | dk, all >= 2) with
    product <= bound; one per isomorphism class of abelian group."""
    out: list[tuple[int, ...]] = [()]

    def grow(chain: tuple[int, ...], prod: int):
        last = chain[-1] if chain else 1
        m = last if chain else 2
        while prod * m <= bound:
            if m % last == 0:
                out.append(chain + (m,))
                grow(chain + (m,), prod * m)
            m += 1

    grow((), 1)
    return out


ALL_CHAINS = _divisor_chains(ORDER_BOUND)


def test_chain_generation_sane():
    assert () in ALL_CHAINS
    assert (2,) in ALL_CHAINS and (2, 2) in ALL_CHAINS
    assert (2, 2, 2, 2, 2, 2) in ALL_CHAINS
    assert (3, 12) in ALL_CHAINS
    assert (2, 3) not in ALL_CHAINS
    assert len(ALL_CHAINS) == len(set(ALL_CHAINS))
    for chain in ALL_CHAINS:
        prod = 1
        for x, y in zip(chain, chain[1:]):
            assert y % x == 0
        for d in chain:
            assert d >= 2
            prod *= d
        assert prod <= ORDER_BOUND


def test_order_exponent_against_model():
    for chain in ALL_CHAINS:
        G = AbelianGroup(chain)
        model = small_group(chain)
        assert G.order == model.n
        assert G.exponent == (lcm(*model.order) if chain else 1)


def test_p_partition_reassembles():
    for chain in ALL_CHAINS:
        G = AbelianGroup(chain)
        for p in (2, 3, 5, 7):
            prod = 1
            for e in G.p_partition(p):
                assert e >= 1
                prod *= p**e
            # the partition accounts for exactly the p-part of the order
            assert G.order % prod == 0
            assert (G.order // prod) % p != 0


def test_aut_order_against_moebius_oracle():
    for chain in ALL_CHAINS:
        assert aut_order(AbelianGroup(chain)) == aut_order_by_moebius(chain), chain


def test_aut_order_against_endomorphism_walk():
    checked = 0
    for chain in ALL_CHAINS:
        model = small_group(chain)
        space = 1
        for d in chain:
            space *= sum(1 for o in model.order if d % o == 0)
        if space > 1 << 16:
            continue
        assert aut_order(AbelianGroup(chain)) == aut_order_by_enumeration(chain), chain
        checked += 1
    assert checked > 40


def test_cyclic_quotients_against_enumeration():
    for chain in ALL_CHAINS:
        G = AbelianGroup(chain)
        quots = cyclic_quotient_orders(chain)
        for h in range(1, G.order + 1):
            if G.order % h:
                continue
            assert has_cyclic_quotient(G, h) == (h in quots), (chain, h)


def test_suitability_against_enumeration():
    for chain in ALL_CHAINS:
        G = AbelianGroup(chain)
        for p in (2, 3, 5, 7):
            report = is_p_suitable(G, p)
            assert report.p == p
            assert report.suitable == suitable_by_enumeration(chain, p), (chain, p)
            if report.suitable:
                h = report.witness_h
                assert h is not None
                assert h in cyclic_quotient_orders(chain)
                assert h % p != 0
                assert (p * p - 1) % h != 0
            else:
                assert report.witness_h is None


def test_known_suitability_cases():
    # C3 x C3 only has cyclic quotients 1 and 3, both dividing 2^2 - 1;
    # C9 has the quotient 9, which does not
    assert not is_p_suitable(AbelianGroup((3, 3)), 2).suitable
    assert is_p_suitable(AbelianGroup((9,)), 2).suitable
    # h = 5 with p = 2: 5 does not divide 2^2 - 1, so C5 qualifies,
    # while C3 does not (3 divides 3)
    assert is_p_suitable(AbelianGroup((5,)), 2).suitable
    assert not is_p_suitable(AbelianGroup((3,)), 2).suitable


def test_element_order_by_direct_walk():
    for D in (-23, -47, -71, -4027, -420):
        h = class_number(D)
        e = principal_form(D)
        for f in enumerate_reduced(D):
            k = element_order(f, h)
            assert h % k == 0
            assert form_pow(f, k) == e
            assert all(form_pow(f, j) != e for j in range(1, k))


def test_checked_pow_matches_iterated_compose():
    # both powering paths, the checked one on tuples and form_pow, against
    # repeated composition, from n = 0 up to twice the class number
    for D in (-23, -4027, -3299, -11199):
        forms = enumerate_reduced(D)
        group = _CheckedGroup(forms)
        for f in forms:
            acc = principal_form(D)
            for n in range(2 * len(forms) + 1):
                assert group.pow(f, n) == acc, (D, f, n)
                assert form_pow(f, n) == acc, (D, f, n)
                acc = compose(acc, f)


def test_structure_from_forms_order_statistics():
    # the multiset of element orders pins down a finite abelian group
    for d in range(3, 601):
        if not is_fundamental(-d):
            continue
        forms = enumerate_reduced(-d)
        G, _ = structure_from_forms(forms)
        assert G.order == len(forms)
        model = small_group(G.invariant_factors)
        got = Counter(element_order(f, len(forms)) for f in forms)
        want = Counter(model.order)
        assert got == want, -d


def test_structure_generators_span():
    for D in (-47, -231, -420, -4027, -3299):
        forms = enumerate_reduced(D)
        G, gens = structure_from_forms(forms)
        assert [k for _, k in gens] == list(G.invariant_factors)
        span = {principal_form(D)}
        for g, k in gens:
            assert element_order(g, len(forms)) == k
            span = {compose(x, form_pow(g, i)) for x in span for i in range(k)}
        assert len(span) == len(forms)


def test_invalid_chain_rejected():
    with pytest.raises(ValueError):
        AbelianGroup((2, 3))
    with pytest.raises(ValueError):
        AbelianGroup((4, 2))
    with pytest.raises(ValueError):
        AbelianGroup((1, 2))


def _check_against_projection(D: int) -> None:
    # Sylow sets read off the Smith coordinates of the walk, and the
    # structure built on them, against the projection of every form
    forms = enumerate_reduced(D)
    group = _CheckedGroup(forms)
    walk = sorted(group.elements)
    index, relations = _close(group, walk, size=len(forms))
    y, d = _smith_coordinates(relations, [index[f] for f in walk])
    oracle = sylow_sets_by_projection(group)
    for p in factorize(len(forms)):
        assert [walk[i] for i in _sylow_codes(y, d, p)[0]] == oracle[p], (D, p)
    rec = class_group(D)
    assert (rec.structure.invariant_factors, rec.generators) == structure_by_projection(forms), D


def test_structure_matches_projection_oracle_small_range():
    # every discriminant, fundamental or not, with |D| < 5000
    discs = [-d for d in range(3, 5000) if -d % 4 in (0, 1)]
    assert len(discs) == 2499
    for D in discs:
        _check_against_projection(D)


def test_structure_matches_projection_oracle_near_one_million():
    rng = random.Random(20261019)
    discs = set()
    while len(discs) < 60:
        D = -rng.randrange(10**6, 10**6 + 50000)
        if is_fundamental(D):
            discs.add(D)
    for D in sorted(discs, reverse=True):
        _check_against_projection(D)


def _assert_positions_are_coordinates(index, gens, radix, D):
    for f, i in index.items():
        want = principal_form(D)
        for g, o in zip(gens, radix):
            i, digit = divmod(i, o)
            want = compose(want, form_pow(g, digit))
        assert want == f, (D, f)


@pytest.mark.parametrize("D", [-4027, -11199, -303743])
def test_walk_positions_are_coordinates(D):
    # the element at walk position i is prod g_j^digit_j(i), digits in mixed
    # radix over the generator orders: for the closure of the sorted forms
    # (orders over the span found by the walk) and for the record's
    # generators (orders stated)
    forms = enumerate_reduced(D)
    group = _CheckedGroup(forms)
    index = {group.identity: 0}
    gens, radix = [], []
    for g in sorted(group.elements):
        if g not in index:
            before = len(index)
            o, r = _extend(index, g, group.mul)
            gens.append(g)
            radix.append(len(index) // before)
            # the relation that closed the walk: g^o sits at position r
            assert o == radix[-1] and r < before
            assert index[form_pow(g, o)] == r
    assert len(index) == len(forms)
    _assert_positions_are_coordinates(index, gens, radix, D)

    rec = class_group(D)
    index = {group.identity: 0}
    for g, d in rec.generators:
        _extend(index, g, group.mul, d)
    assert len(index) == len(forms)
    _assert_positions_are_coordinates(index, *zip(*rec.generators), D)


def test_torsion_check_refuses_wrong_orders():
    # the 3-torsion of C3 x C3 is the whole group, not the 3 elements a
    # single order-9 basis element would give
    forms = enumerate_reduced(-4027)
    group = _CheckedGroup(forms)
    pmap = {x: group.pow(x, 3) for x in group.elements}
    _check_torsion(group, pmap, 3, [3, 3])
    with pytest.raises(RuntimeError, match="torsion count 9"):
        _check_torsion(group, pmap, 3, [9])


# C3xC3, C3xC9, C5xC20, C2xC324 (h = 648), C4xC128 (h = 512) and C1523
COMPOSITION_PANEL = (-4027, -3299, -11199, -304871, -303743, -1000151)


def test_structure_compositions_linear_in_h(monkeypatch):
    # no timing: count checked products.  The walk composes once per class
    # and the combined generators once per Sylow basis element, h to h + 2
    # here; closing each Sylow set and mapping it to p-th powers by forms
    # took 1.6h to 4.1h on the first five and 19h on C1523, whose 1523rd
    # powers cost about log 1523 products per element
    calls = 0
    compose = abelian._compose

    def counted(f, g, D):
        nonlocal calls
        calls += 1
        return compose(f, g, D)

    monkeypatch.setattr(abelian, "_compose", counted)
    for D in COMPOSITION_PANEL:
        forms = enumerate_reduced(D)
        calls = 0
        structure_from_forms(forms)
        assert calls <= 1.25 * len(forms), (D, calls, len(forms))


@pytest.mark.parametrize("D", [-231, -4027, -3299, -11199])
def test_missing_form_rejected_by_closure(D):
    forms = enumerate_reduced(D)
    identity = principal_form(D)
    for f in forms:
        if f == identity:
            continue
        with pytest.raises(ValueError, match="composition left the input set"):
            structure_from_forms([g for g in forms if g != f])


@st.composite
def walk_relations(draw):
    """The (o_i, r_i) of a walk over one to four generators: g_i has
    order o_i over the span before it, and g_i^(o_i) sits at position
    r_i of that span."""
    relations, size = [], 1
    for o in draw(st.lists(st.integers(2, 12), min_size=1, max_size=4)):
        relations.append((o, draw(st.integers(0, size - 1))))
        size *= o
    return relations


def _det(m: list[list[int]]) -> Fraction:
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for t in range(len(a)):
        k = next((i for i in range(t, len(a)) if a[i][t]), None)
        if k is None:
            return Fraction(0)
        if k != t:
            a[t], a[k] = a[k], a[t]
            det = -det
        det *= a[t][t]
        for i in range(t + 1, len(a)):
            f = a[i][t] / a[t][t]
            a[i] = [x - f * y for x, y in zip(a[i], a[t])]
    return det


@given(walk_relations())
def test_smith_form_of_walk_relations(relations):
    rel = _relation_matrix(relations)
    h = prod(o for o, _ in relations)
    assert all(rel[i][j] == 0 for i in range(len(rel)) for j in range(i + 1, len(rel)))
    assert _det(rel) == h
    d, v = _smith_form(rel)
    # a divisor chain of positive factors with product |det R|
    assert all(x > 0 for x in d) and prod(d) == h
    assert all(y % x == 0 for x, y in zip(d, d[1:]))
    assert abs(_det(v)) == 1
    # every relation maps to 0 in Z/d_1 + ... + Z/d_n
    for row in rel:
        assert all(sum(x * v[i][j] for i, x in enumerate(row)) % d[j] == 0 for j in range(len(d)))
    # so the h positions of the walk get h distinct Smith coordinates
    y, factors = _smith_coordinates(relations, range(h))
    assert factors == [x for x in d if x > 1]
    assert len({tuple(row) for row in y.tolist()}) == h
    # and the Sylow bases assemble the same invariant factors
    ranked = _sylow_bases(y, factors)
    slots = [[o for o, _ in pairs] for pairs in ranked]
    assembled = [prod(orders[s] for orders in slots if s < len(orders)) for s in range(len(factors))]
    assert assembled[::-1] == factors
