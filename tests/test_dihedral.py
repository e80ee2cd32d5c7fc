from math import gcd

import pytest
from hypothesis import given, strategies as st

from quadclass.dihedral import (
    INERT_COEFF,
    NOT_FOUND_UP_TO_BOUND,
    Cyclotomic,
    InertCoefficient,
    RamifiedCoefficient,
    SplitCoefficient,
    coeff_in_prime_field,
    coefficient_value,
    cyclotomic_polynomial,
    eigen_coeff,
    euler_expansion,
    find_witness,
    make_character,
    reduce_coefficient,
    theta_coeff_oracle,
)
from quadclass.forms import class_group, compose, enumerate_reduced, kronecker, prime_form, QuadForm
from quadclass.ntheory import primes_up_to

CLASSICAL_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_cyclotomic_polynomials_classical():
    for h, want in CLASSICAL_CYCLOTOMICS.items():
        assert cyclotomic_polynomial(h) == want


def test_cyclotomic_product_identity():
    # prod over d | n of Phi_d = x^n - 1
    for n in range(1, 41):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul(prod, cyclotomic_polynomial(d))
        want = [-1] + [0] * (n - 1) + [1]
        assert prod == want, n


def test_cyclotomic_105_has_coefficient_two():
    # the first index where a coefficient outside {-1, 0, 1} appears
    assert cyclotomic_polynomial(105)[7] == -2


def test_zeta_arithmetic():
    for h in (3, 5, 8, 9, 12):
        one = Cyclotomic.integer(h, 1)
        for a in range(h):
            for b in range(h):
                za, zb = Cyclotomic.zeta_power(h, a), Cyclotomic.zeta_power(h, b)
                assert za * zb == Cyclotomic.zeta_power(h, (a + b) % h)
        total = Cyclotomic.zero(h)
        for a in range(h):
            total = total + Cyclotomic.zeta_power(h, a)
        assert total.is_zero()
        assert (one + one).halved() == one


def test_halved_rejects_odd():
    with pytest.raises(AssertionError):
        Cyclotomic.integer(5, 3).halved()


@given(
    st.sampled_from([3, 5, 8, 12]),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
)
def test_cyclotomic_ring_commutes(h, u, v):
    # build elements as sums of zeta powers with the listed coefficients
    def build(cs):
        acc = Cyclotomic.zero(h)
        for i, c in enumerate(cs):
            acc = acc + Cyclotomic.zeta_power(h, i % h).scaled(c)
        return acc

    x, y = build(u), build(v)
    assert x * y == y * x
    assert (x + y) * x == x * x + y * x


def test_make_character_is_homomorphism():
    # -3 and -4 have the trivial group; Cl(-11199) is C5 x C20, so the
    # order-10 character reads the last coordinate mod a proper divisor
    for D, h in ((-23, 3), (-47, 5), (-4027, 3), (-71, 7), (-3, 1), (-4, 1), (-11199, 10)):
        cg = class_group(D)
        chi = make_character(cg, h)
        forms = enumerate_reduced(D)
        for f in forms:
            for g in forms:
                assert chi.log(compose(f, g)) == (chi.log(f) + chi.log(g)) % h
        logs = sorted({chi.log(f) for f in forms})
        assert logs == list(range(h))  # full character image


def test_make_character_rejects_dependent_generators():
    # Cl(-4027) is C3 x C3; a record naming one generator twice spans it
    # twice over, which the span walk must refuse rather than overwrite
    cg = class_group(-4027)
    g, d = cg.generators[0]
    cg.generators = [(g, d), (g, d)]
    with pytest.raises(RuntimeError, match="span collision"):
        make_character(cg, 3)


def test_make_character_rejects_understated_order():
    # Cl(-11199) is C5 x C20; a record that calls the order-20 generator
    # order 10 leaves its tenth power outside the span
    cg = class_group(-11199)
    (g1, d1), (g2, _) = cg.generators
    cg.generators = [(g1, d1), (g2, 10)]
    with pytest.raises(RuntimeError, match="span collision"):
        make_character(cg, 5)


def test_make_character_rejects_bad_order():
    cg = class_group(-4027)  # exponent 3
    with pytest.raises(ValueError):
        make_character(cg, 9)
    with pytest.raises(ValueError):
        make_character(cg, 2)


def test_eigen_coeff_classification():
    cg = class_group(-23)
    chi = make_character(cg, 3)
    for ell in map(int, primes_up_to(60)):
        c = eigen_coeff(chi, ell)
        k = kronecker(-23, ell)
        if k == -1:
            assert isinstance(c, InertCoefficient)
            assert c is INERT_COEFF
        elif k == 0:
            assert isinstance(c, RamifiedCoefficient)
            # odd character order forces the trivial ramified value
            assert c.sign == 1
        else:
            assert isinstance(c, SplitCoefficient)
            assert 0 <= c.exponent < 3 and c.order == 3


def test_coefficient_value_split_shape():
    cg = class_group(-47)
    chi = make_character(cg, 5)
    for ell in (2, 3, 7):
        c = eigen_coeff(chi, ell)
        assert isinstance(c, SplitCoefficient)
        zeta = Cyclotomic.zeta_power(5, c.exponent)
        conj = Cyclotomic.zeta_power(5, (5 - c.exponent) % 5)
        assert coefficient_value(c, 5) == zeta + conj


def test_theta_oracle_equals_euler_expansion_small():
    for D in (-23, -31):
        cg = class_group(D)
        chi = make_character(cg, cg.class_number)
        series = euler_expansion(chi, 120)
        for n in range(1, 121):
            assert theta_coeff_oracle(chi, n) == series[n], (D, n)


def test_euler_expansion_multiplicative():
    cg = class_group(-23)
    chi = make_character(cg, 3)
    series = euler_expansion(chi, 200)
    for m in range(1, 201):
        for n in range(1, 201 // m + 1):
            if gcd(m, n) == 1 and m * n <= 200:
                assert series[m * n] == series[m] * series[n]


def test_theta_constant_and_unit_terms():
    cg = class_group(-23)
    chi = make_character(cg, 3)
    series = euler_expansion(chi, 10)
    assert series[1] == Cyclotomic.integer(3, 1)
    assert theta_coeff_oracle(chi, 1) == Cyclotomic.integer(3, 1)


def test_reduce_coefficient_witness_field():
    cg = class_group(-47)
    chi = make_character(cg, 5)
    a2 = eigen_coeff(chi, 2)
    x = reduce_coefficient(a2, 2)
    # a_2 mod 2 must generate F_4: not fixed by Frobenius, fixed by its square
    assert (x.h, x.p) == (5, 2)
    assert x.field_degree() == 2
    assert not coeff_in_prime_field(a2, 2)


def test_reduce_coefficient_rejects_shared_factor():
    cg = class_group(-23)
    chi = make_character(cg, 3)
    with pytest.raises(ValueError):
        reduce_coefficient(eigen_coeff(chi, 2), 3)


def test_find_witness_known_rows():
    hit = find_witness(-47, 2, 100)
    assert hit is not NOT_FOUND_UP_TO_BOUND
    ell, coeff = hit
    assert ell == 2
    assert isinstance(coeff, SplitCoefficient)
    assert not coeff_in_prime_field(coeff, 2)

    assert find_witness(-23, 2, 1000) is NOT_FOUND_UP_TO_BOUND


def test_find_witness_inert_coefficients_stay_inside():
    # inert a_ell = 0 lies in F_p, so a witness must be split
    for D, p, bound in ((-47, 2, 100), (-71, 2, 500), (-4027, 2, 500)):
        hit = find_witness(D, p, bound)
        if hit is NOT_FOUND_UP_TO_BOUND:
            continue
        ell, coeff = hit
        assert isinstance(coeff, SplitCoefficient)
        assert kronecker(D, ell) == 1


def test_ramified_coefficient_reduces_to_scalar():
    cg = class_group(-23)
    chi = make_character(cg, 3)
    c23 = eigen_coeff(chi, 23)
    assert isinstance(c23, RamifiedCoefficient)
    x = reduce_coefficient(c23, 2)
    assert (x.h, x.exponent) == (1, 0)
    assert x.field_degree() == 1
    assert coeff_in_prime_field(c23, 2)
