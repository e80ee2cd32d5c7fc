from collections import Counter
from math import lcm

import pytest

from quadclass.abelian import (
    AbelianGroup,
    _CheckedGroup,
    aut_order,
    element_order,
    has_cyclic_quotient,
    is_p_suitable,
    structure_from_forms,
)
from quadclass.forms import (
    class_number,
    compose,
    enumerate_reduced,
    form_pow,
    is_fundamental,
    principal_form,
)

from _oracles import (
    aut_order_by_enumeration,
    aut_order_by_moebius,
    cyclic_quotient_orders,
    small_group,
    suitable_by_enumeration,
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
        assert G.is_trivial == (model.n == 1)


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
                assert group.pow((f.a, f.b, f.c), n) == (acc.a, acc.b, acc.c), (D, f, n)
                assert form_pow(f, n) == acc, (D, f, n)
                acc = compose(acc, f)


def test_structure_from_forms_order_statistics():
    # the multiset of element orders pins down a finite abelian group
    for d in range(3, 601):
        if not is_fundamental(-d):
            continue
        forms = enumerate_reduced(-d)
        G = structure_from_forms(forms)
        assert G.order == len(forms)
        model = small_group(G.invariant_factors)
        got = Counter(element_order(f, len(forms)) for f in forms)
        want = Counter(model.order)
        assert got == want, -d


def test_structure_generators_span():
    for D in (-47, -231, -420, -4027, -3299):
        forms = enumerate_reduced(D)
        G, gens = structure_from_forms(forms, with_generators=True)
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
