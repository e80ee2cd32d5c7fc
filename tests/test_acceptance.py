"""End-to-end acceptance checks.

One numbered check per criterion, each printing a single
``ACCEPTANCE nn PASS|FAIL (elapsed, target)`` line on the real stdout
so the verdict survives pytest's capture.  Wall-clock targets are
reported, not asserted; the asserted content is the mathematics.

Two checks fail by design; their reference values and tolerances are
not edited to pass.  03: the census at 4e6 reproduces the order-128
reference but not those for orders 256 and 512; the configured
reference bound 5e7 reproduces 128 and 512, and finds 8352 of order 256
(largest member found |D| = 14154067) against the reference 8361 - see
the 03-full variant.  13: the order-3 divisibility gap at 4e6 is 0.031,
an order of magnitude above the 0.01 tolerance; the gap decays like
X^(-1/6), so the tolerance is reachable only near X = 3.5e9.

05 asserts, for p <= 7 and h <= 200 coprime to p, the sharp trace law
(all traces in F_p iff p = +-1 mod h) and its consequence (all traces
in F_p implies h | p^2 - 1).  The converse of that implication is
false; its counterexamples are listed on the ACCEPTANCE line.
"""

import math
import os
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from quadclass.abelian import AbelianGroup, aut_order, has_cyclic_quotient, is_p_suitable
from quadclass.cohen_lenstra import (
    DEFAULT_COMPARISON_TOLERANCE,
    empirical_cl_comparison,
    enumerate_groups,
    prime_reciprocal_sum,
    weighted_sum_coprime,
)
from quadclass.density import (
    CENSUS_REFERENCE_BOUND,
    all_integers,
    class_order_census,
    dilate,
    estimate,
    exponent3_scan,
    has_suitable_divisor,
    landau_ratio_check,
    multiples_of,
    residue_class,
    squarefree_integers,
    suitable_divisor_density,
    suitable_divisor_mask,
)
from quadclass.dihedral import (
    NOT_FOUND_UP_TO_BOUND,
    SplitCoefficient,
    coeff_in_prime_field,
    euler_expansion,
    find_witness,
    make_character,
    theta_coeff_oracle,
)
from quadclass.forms import class_group, fundamental_mask
from quadclass.ntheory import primes_up_to
from quadclass.sweep import count_reduced_forms, sweep_counts

from _oracles import (
    aut_order_by_enumeration,
    aut_order_by_moebius,
    cyclic_quotient_orders,
    small_group,
    suitable_by_enumeration,
)


_REPORTER = None


@pytest.fixture(autouse=True, scope="session")
def _acceptance_reporter(request):
    # the terminal reporter writes past pytest's fd-level capture, so the
    # verdict lines land in the live output and in any tee'd log
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")
    yield
    _REPORTER = None


def _report(num: str, ok: bool, t0: float, target: str, detail: str = ""):
    elapsed = time.perf_counter() - t0
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s, target {target})"
    if detail:
        line += f" - {detail}"
    if _REPORTER is not None:
        _REPORTER.write_line("\n" + line)
    else:
        print(line, file=sys.__stdout__, flush=True)


def test_criterion_01_class_group_4027():
    t0 = time.perf_counter()
    rec = class_group(-4027)
    got = (rec.structure.order, rec.structure.invariant_factors)
    ok = got == (9, (3, 3))
    _report("01", ok, t0, "<1s", f"h={got[0]}, invariants={got[1]}")
    assert ok


def test_criterion_02_exponent3_maximum():
    t0 = time.perf_counter()
    found = exponent3_scan(10**6)
    largest = min(rec.disc for rec in found)
    ok = (
        largest == -4027
        and len(found) == 17
        and all(r.structure.exponent == 3 for r in found)
    )
    _report("02", ok, t0, "<10min/1w", f"{len(found)} discriminants, largest |D| = {-largest}")
    assert ok


def test_criterion_03_census_reference_counts():
    t0 = time.perf_counter()
    want = {128: 3722, 256: 8361, 512: 18046}
    got = class_order_census(4 * 10**6, list(want))
    ok = got == want
    counts = sweep_counts(4 * 10**6)
    all_disc = {h: int(np.count_nonzero(counts[: 4 * 10**6] == h)) for h in want}
    detail = (
        f"fundamental |D| < 4e6: {got}; all-discriminant form counts: {all_disc}; "
        f"reference counts for 128/512 are reproduced at the configured bound "
        f"{CENSUS_REFERENCE_BOUND} (see 03-full); the order-256 reference 8361 is "
        f"not: the census with |D| < 5e7 finds 8352, largest member found "
        f"|D| = 14154067"
    )
    _report("03", ok, t0, "<5min", detail)
    assert ok, detail


@pytest.mark.skipif(
    not os.environ.get("QUADCLASS_ACCEPTANCE_FULL"),
    reason="the 5e7 census takes about 30 s; set QUADCLASS_ACCEPTANCE_FULL=1",
)
def test_criterion_03_full_census_at_reference_bound():
    t0 = time.perf_counter()
    got = class_order_census(
        CENSUS_REFERENCE_BOUND, [128, 256, 512], budget=CENSUS_REFERENCE_BOUND
    )
    ok = got[128] == 3722 and got[512] == 18046 and got[256] == 8352
    _report("03-full", ok, t0, "<10min", f"counts at {CENSUS_REFERENCE_BOUND}: {got}")
    assert got[128] == 3722
    assert got[512] == 18046
    # the order-256 reference is 8361; the census at this bound finds 8352
    # (largest member found |D| = 14154067)
    assert got[256] == 8352


def test_criterion_04_class_number_65536():
    # the sweep's count is the independent h; the prime-form walk also
    # gives the structure, past the enumeration cap
    t0 = time.perf_counter()
    h = count_reduced_forms(4 * 5000948753)
    structure = class_group(-4 * 5000948753).structure
    ok = h == 65536 and structure == AbelianGroup((65536,))
    _report("04", ok, t0, "<60s", f"disc = -4*5000948753, h = {h}, {structure}")
    assert ok


def test_criterion_05_trace_law_divisibility_form():
    # the traces 0, 2 and z^k + z^-k are polynomials in z + 1/z, which
    # Frobenius fixes exactly when z^p = z^(+-1): all traces lie in F_p
    # iff p = +-1 mod h, and that implies h | p^2 - 1; the converse of
    # the implication is false (h = 8, p = 3: z + 1/z = +-sqrt(2)).
    # dihedral reads the degree of z + 1/z off the exponent;
    # tests/test_finitefield.py checks it against the whole trace set in
    # F_{p^m} on these pairs
    t0 = time.perf_counter()
    pairs = 0
    law_failures = []
    converse_failures = []
    for p in (2, 3, 5, 7):
        for h in range(1, 201):
            if math.gcd(h, p) != 1:
                continue
            pairs += 1
            inside = coeff_in_prime_field(SplitCoefficient(1, h), p)
            divides = (p * p - 1) % h == 0
            if inside != (p % h in (1 % h, (-1) % h)) or (inside and not divides):
                law_failures.append((h, p))
            elif divides and not inside:
                converse_failures.append((h, p))
    ok = not law_failures
    _report(
        "05",
        ok,
        t0,
        "<5s",
        f"{pairs} coprime pairs, sharp law and forward implication violated "
        f"at: {law_failures}; "
        f"counterexamples to the converse h | p^2-1 => all traces in F_p: "
        f"{converse_failures}",
    )
    assert ok, (
        "all traces in F_p iff p = +-1 mod h, and all traces in F_p => "
        f"h | p^2-1, fail at {law_failures}"
    )


def test_criterion_06_theta_equals_euler():
    t0 = time.perf_counter()
    checked = 0
    for D in (-23, -31, -47, -71):
        cg = class_group(D)
        chi = make_character(cg, cg.structure.order)
        series = euler_expansion(chi, 200)
        for n in range(1, 201):
            assert theta_coeff_oracle(chi, n) == series[n], (D, n)
            checked += 1
    _report("06", True, t0, "<10s", f"{checked} coefficients across 4 discriminants")


def test_criterion_07_witness_rows():
    t0 = time.perf_counter()
    hit = find_witness(-47, 2, 100)
    ok = (
        hit is not NOT_FOUND_UP_TO_BOUND
        and hit[0] == 2
        and isinstance(hit[1], SplitCoefficient)
        and not coeff_in_prime_field(hit[1], 2)
    )
    missing = find_witness(-23, 2, 1000)
    ok = ok and missing is NOT_FOUND_UP_TO_BOUND
    _report("07", ok, t0, "<1s", "(-47,2): ell=2 generating F_4; (-23,2): NotFound")
    assert ok


def test_criterion_08_witness_coverage():
    t0 = time.perf_counter()
    fm = fundamental_mask(5000)
    pairs = 0
    failures = []
    for d in range(3, 5001):
        if not fm[d]:
            continue
        G = class_group(-d).structure
        for p in (2, 3, 5):
            if not is_p_suitable(G, p).suitable:
                continue
            pairs += 1
            if find_witness(-d, p, 1000) is NOT_FOUND_UP_TO_BOUND:
                failures.append((-d, p))
    coverage = (pairs - len(failures)) / pairs
    ok = coverage >= 0.99
    _report("08", ok, t0, "none stated", f"{pairs} suitable pairs, coverage {coverage:.4f}, misses: {failures}")
    assert ok


def test_criterion_09_squarefree_density_three_mod_four():
    t0 = time.perf_counter()
    target = 8 / math.pi**2
    sq3 = squarefree_integers() & residue_class(4, [3])
    est = estimate(sq3, residue_class(4, [3]), 10**6)
    ok = abs(est.decimal - target) < 0.01
    _report("09", ok, t0, "<5s", f"ratio {est.decimal:.5f} vs 8/pi^2 = {target:.5f}")
    assert ok


def test_criterion_10_exact_counting_identities():
    t0 = time.perf_counter()
    X = 10**5
    notes = []

    # nested triples: outer ratio >= 1 - 2*eps at any finite bound
    for A, B, C in (
        (all_integers(), all_integers() - multiples_of(4), (all_integers() - multiples_of(4)) - multiples_of(9)),
        (residue_class(4, [3]), squarefree_integers() & residue_class(4, [3]), (squarefree_integers() & residue_class(4, [3])) - multiples_of(7)),
    ):
        inner = estimate(C, B, X).decimal
        mid = estimate(B, A, X).decimal
        outer = estimate(C, A, X).decimal
        eps = max(1 - inner, 1 - mid)
        assert outer >= 1 - 2 * eps
    notes.append("nested-triples bound ok")

    # exact dilation count identity
    A = squarefree_integers() & residue_class(4, [3])
    for n in (2, 5, 9, 16):
        assert estimate(dilate(A, n), all_integers(), n * (X // n)).count_member == estimate(
            A, all_integers(), X // n
        ).count_member
    notes.append("dilation identity ok")

    # union difference bound, exact counts
    B1, B2 = multiples_of(2), multiples_of(3)
    A1, A2 = multiples_of(4), multiples_of(9)
    count = lambda S: estimate(S, all_integers(), X).count_member
    assert count(B1 | B2) - count(A1 | A2) <= (count(B1) - count(A1)) + (count(B2) - count(A2))
    notes.append("union difference bound ok")

    # survivors of the first N dilations by primes 3 mod 4, vs the product
    X6 = 10**6
    A34 = residue_class(4, [3])
    B14 = residue_class(4, [1])
    bad_primes = [int(p) for p in primes_up_to(200) if p % 4 == 3]
    worst = 0.0
    for N in range(1, 11):
        removed = dilate(A34, bad_primes[0])
        prod = 1 - Fraction(1, bad_primes[0])
        for q in bad_primes[1:N]:
            removed = removed | dilate(A34, q)
            prod *= 1 - Fraction(1, q)
        est = estimate(B14 - removed, B14, X6)
        worst = max(worst, abs(est.decimal - float(prod)))
        assert abs(est.decimal - float(prod)) < 0.01, N
    notes.append(f"survivor product ok, worst gap {worst:.5f}")

    # complement of the first N+1 4-adic shells, exactly
    not4 = all_integers() - multiples_of(4)
    for N in range(5):
        covered = dilate(not4, 1)
        for k in range(1, N + 1):
            covered = covered | dilate(not4, 4**k)
        remainder = all_integers() - covered
        got = estimate(remainder, all_integers(), X6).count_member
        assert got == X6 // 4 ** (N + 1), N
    notes.append("shell complement ok")

    _report("10", True, t0, "<30s", "; ".join(notes))


def test_criterion_11_landau_drift():
    t0 = time.perf_counter()
    samples = landau_ratio_check(10**7, 4, [1])
    drifts = []
    for (x0, r0), (x1, r1) in zip(samples, samples[1:]):
        if x0 >= 10**4:
            drifts.append(abs(r1 / r0 - 1))
    ok = bool(drifts) and max(drifts) < 0.10
    _report("11", ok, t0, "<60s", f"{len(drifts)} consecutive pairs beyond 1e4, max drift {max(drifts):.4f}")
    assert ok


def test_criterion_12_divergence_lower_bound():
    t0 = time.perf_counter()
    previous = Fraction(0)
    gaps = []
    for x in (10**2, 10**3, 10**4):
        total = weighted_sum_coprime([2, 3], x)
        lower = prime_reciprocal_sum([2, 3], x)
        assert total > lower, x
        assert total > previous, x
        previous = total
        gaps.append(float(total - lower))
    _report("12", True, t0, "<30s", f"sum-minus-bound gaps {[f'{g:.4f}' for g in gaps]}")


def test_criterion_13_three_divisibility_at_four_million():
    t0 = time.perf_counter()
    cmp3 = empirical_cl_comparison(3, 4 * 10**6)
    ok = cmp3.abs_diff < DEFAULT_COMPARISON_TOLERANCE
    detail = (
        f"empirical {float(cmp3.empirical):.6f} vs predicted {cmp3.predicted:.6f}, "
        f"|diff| = {cmp3.abs_diff:.6f} vs tolerance {DEFAULT_COMPARISON_TOLERANCE}; "
        f"the gap decays like 0.39*X^(-1/6), putting the crossing near X = 3.5e9"
    )
    _report("13", ok, t0, "<5min", detail)
    assert ok, detail


def test_criterion_14_h2_trend_and_predicate_equivalence():
    t0 = time.perf_counter()
    values = [suitable_divisor_density(2, X).decimal for X in (10**4, 10**5, 10**6)]
    trend_ok = all(b >= a - 0.01 for a, b in zip(values, values[1:]))

    X = 10**5
    mask = suitable_divisor_mask(2, X)
    h_table = sweep_counts(X)
    mismatches = [
        N for N in range(1, X + 1) if bool(mask[N]) != has_suitable_divisor(N, 2, h_table=h_table)
    ]
    ok = trend_ok and not mismatches
    _report(
        "14",
        ok,
        t0,
        "<5min",
        f"densities {[f'{v:.4f}' for v in values]}, predicate mismatches: {len(mismatches)}",
    )
    assert trend_ok
    assert not mismatches


def test_criterion_15_oracle_suites():
    t0 = time.perf_counter()
    chains = [()]
    for n in range(2, 65):
        chains.extend(g.invariant_factors for g in enumerate_groups(n))
    aut_checked = walk_checked = quot_checked = suit_checked = 0
    for chain in chains:
        G = AbelianGroup(chain)
        assert aut_order(G) == aut_order_by_moebius(chain), chain
        aut_checked += 1
        model = small_group(chain)
        space = 1
        for d in chain:
            space *= sum(1 for o in model.order if d % o == 0)
        if space <= 1 << 16:
            assert aut_order(G) == aut_order_by_enumeration(chain), chain
            walk_checked += 1
        quots = cyclic_quotient_orders(chain)
        for h in range(1, G.order + 1):
            if G.order % h == 0:
                assert has_cyclic_quotient(G, h) == (h in quots), (chain, h)
                quot_checked += 1
        for p in (2, 3, 5, 7):
            assert is_p_suitable(G, p).suitable == suitable_by_enumeration(chain, p), (chain, p)
            suit_checked += 1
    _report(
        "15",
        True,
        t0,
        "<60s",
        f"{aut_checked} groups: Aut x{aut_checked} (moebius) + x{walk_checked} (walk), "
        f"{quot_checked} quotient checks, {suit_checked} suitability checks",
    )
