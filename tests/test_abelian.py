import random
from collections import Counter
from math import lcm

import pytest

from quadclass import abelian
from quadclass.abelian import (
    AbelianGroup,
    _CheckedGroup,
    _close,
    _sylow_set,
    aut_order,
    element_order,
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
    # Sylow sets from the closure of the projected generating set, and the
    # structure built on them, against the projection of every form
    forms = enumerate_reduced(D)
    group = _CheckedGroup(forms)
    _, gens = _close(group, sorted(group.elements), size=len(forms))
    oracle = sylow_sets_by_projection(group)
    for p, v in factorize(len(forms)).items():
        assert _sylow_set(group, gens, p, v) == oracle[p], (D, p)
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


# C3xC3, C3xC9, C5xC20, C2xC324 (h = 648) and C4xC128 (h = 512)
COMPOSITION_PANEL = (-4027, -3299, -11199, -304871, -303743)


def test_structure_compositions_linear_in_h(monkeypatch):
    # no timing: count checked products.  The retired route, which powered
    # every form to each Sylow cofactor and every Sylow element again for
    # the chain walks and the torsion check, took 6.7h to 15.5h on this
    # panel; the generating-set closure takes at most 4.1h
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
        assert calls <= 5 * len(forms), (D, calls, len(forms))


@pytest.mark.parametrize("D", [-231, -4027, -3299, -11199])
def test_missing_form_rejected_by_closure(D):
    forms = enumerate_reduced(D)
    identity = principal_form(D)
    for f in forms:
        if f == identity:
            continue
        with pytest.raises(ValueError, match="composition left the input set"):
            structure_from_forms([g for g in forms if g != f])
