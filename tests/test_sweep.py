import random
import tracemalloc

import numpy as np
import pytest

from quadclass import sweep
from quadclass.forms import class_number, fundamental_mask, is_fundamental
from quadclass.ntheory import ResourceLimitError
from quadclass.sweep import (
    batch_class_numbers,
    class_numbers,
    count_reduced_forms,
    sweep_counts,
)

from _oracles import class_number_by_box_scan, sweep_counts_by_strides


def _all_reduced_by_box_scan(n: int) -> int:
    # the sweep kernel counts every reduced form, primitive or not; on
    # fundamental discriminants the two notions coincide
    from math import isqrt

    D = -n
    count = 0
    for a in range(1, isqrt(n // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            count += 1
    return count


def test_sweep_matches_box_scan():
    counts = sweep_counts(300)
    assert len(counts) == 301
    for n in range(1, 301):
        want = _all_reduced_by_box_scan(n) if -n % 4 in (0, 1) else 0
        assert int(counts[n]) == want, n
        if want and is_fundamental(-n):
            assert want == class_number_by_box_scan(-n)


def test_single_disc_kernel_matches_sweep():
    counts = sweep_counts(2000)
    for n in (3, 4, 23, 47, 420, 1155, 1992, 1999):
        assert count_reduced_forms(n) == int(counts[n])


def _count_by_conductor(n: int) -> int:
    # a reduced form of discriminant -n with gcd(a, b, c) = g is g times
    # a primitive reduced form of discriminant -n/g^2
    total, g = 0, 1
    while g * g <= n:
        m = n // (g * g)
        if n % (g * g) == 0 and m % 4 in (0, 3):
            total += class_number(-m)
        g += 1
    return total


def test_count_reduced_forms_sums_class_numbers_over_conductors():
    # the kernel's weights (count_reduced_forms) against its primitivity
    # filter (enumerate_reduced, behind class_number)
    for n in range(3, 5000):
        if n % 4 in (0, 3):
            assert count_reduced_forms(n) == _count_by_conductor(n), n
    rng = random.Random(20261020)
    seen = 0
    while seen < 20:
        n = rng.randrange(10**6, 10**6 + 10**5)
        if n % 4 in (0, 3):
            assert count_reduced_forms(n) == _count_by_conductor(n), n
            seen += 1


def test_prefix_stability():
    small = sweep_counts(1000)
    large = sweep_counts(5000)
    assert np.array_equal(small, large[:1001])
    # the shared table serves a smaller bound as a prefix of a larger one
    class_numbers(5000)
    table = class_numbers(1000)
    assert np.array_equal(table, np.where(fundamental_mask(1000), small, 0))
    with pytest.raises(ValueError):
        table[23] = 0


def test_worker_partition_invariance():
    one = sweep_counts(3000, workers=1)
    two = sweep_counts(3000, workers=2)
    assert np.array_equal(one, two)


def test_batch_table_fundamental_only(monkeypatch):
    monkeypatch.setattr(sweep, "_store", np.zeros(0, dtype=np.int32))
    discs, hs = batch_class_numbers(500)
    assert sweep._store.dtype == np.int32
    assert discs.dtype == np.int32 and hs.dtype == np.int32
    assert np.all(discs[:-1] < discs[1:])
    counts = sweep_counts(500)
    for d, h in zip(discs, hs):
        assert is_fundamental(-int(d))
        assert int(h) == int(counts[d])
    expected = [d for d in range(1, 501) if is_fundamental(-d)]
    assert list(discs) == expected
    # served from a larger table, the same rows come back
    class_numbers(20000)
    again_discs, again_hs = batch_class_numbers(500)
    assert np.array_equal(again_discs, discs)
    assert np.array_equal(again_hs, hs)


def test_budget_guard():
    with pytest.raises(ResourceLimitError):
        batch_class_numbers(10**7)
    with pytest.raises(ResourceLimitError):
        class_numbers(10**7)
    # the table owner takes an explicit budget in place of the default
    class_numbers(5000, budget=5000)
    with pytest.raises(ResourceLimitError):
        class_numbers(5001, budget=5000)


def _n0(a: int) -> int:
    # from n0 on, the forms of leading coefficient a repeat with period 4a
    return 4 * a * a + 4 * a


@pytest.mark.parametrize(
    "limit",
    [0, 1, 2, 3]
    + sorted(random.Random(13).sample(range(4, 200_001), 6))
    + [_n0(a) + d for a in (1, 2, 7, 31, 100, 223) for d in (-1, 0, 1)],
)
def test_sweep_matches_strided_oracle(limit):
    counts = sweep_counts(limit)
    assert counts.dtype == np.int32
    assert np.array_equal(counts, sweep_counts_by_strides(limit))


def test_range_cuts_inside_prefix_regions():
    X = 60_000
    want = sweep_counts_by_strides(X)
    # the forms of a start at 3a^2, so every cut below is inside the
    # point-by-point part of some a, or exactly where a's periodic part
    # or the row of 2a begins
    cuts = [0, 3, 4, _n0(40) - 1, _n0(40), 3 * 60 * 60 + 5, _n0(2 * 50), _n0(2 * 50) + 1, X + 1]
    assert cuts == sorted(cuts)
    parts = [sweep._sweep_range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(parts), want)
    for k in (1, 2, 3):
        assert np.array_equal(sweep_counts(X, workers=k), want), k


def test_table_is_int32_and_read_only():
    table = class_numbers(3000)
    assert table.dtype == np.int32
    assert not table.flags.writeable
    assert np.array_equal(table, np.where(fundamental_mask(3000), sweep_counts_by_strides(3000), 0))


@pytest.mark.parametrize("X", [200_000, 1_100_003])
def test_sweep_memory_within_budget(X):
    # the int32 counts, plus at most _PATTERN_BUDGET int32 pattern entries
    # and, per a, its prefix points (about X/36 int64 values) and pattern;
    # 1_100_003 spans several blocks, so the discriminant-indexed sweep
    # must run inside the output array, not beside a second one
    tracemalloc.start()
    try:
        sweep_counts(X, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (X + 1) + 4 * sweep._PATTERN_BUDGET + (X + 1)


@pytest.mark.parametrize("X", [200_000, 1_100_003])
def test_table_build_memory_within_budget(monkeypatch, X):
    # from an empty store: the int32 table, the sweep's pattern rows, and
    # at most 3 more bytes per |D| for the fundamental mask and its
    # complement; no int64 array of length X+1
    monkeypatch.setattr(sweep, "_store", np.zeros(0, dtype=np.int32))
    tracemalloc.start()
    try:
        class_numbers(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (X + 1) + 4 * sweep._PATTERN_BUDGET + 3 * (X + 1)


@pytest.mark.parametrize("X", [200_000, 1_100_003])
def test_table_filter_allocates_nothing_beyond_the_sweep(monkeypatch, X):
    # the non-fundamental entries are zeroed in the int32 table itself, so
    # building the table stays within the sweep's own bound
    monkeypatch.setattr(sweep, "_store", np.zeros(0, dtype=np.int32))
    tracemalloc.start()
    try:
        class_numbers(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (X + 1) + 4 * sweep._PATTERN_BUDGET + (X + 1)


def test_table_filter_at_every_residue_mod_16(monkeypatch):
    # X + 1 entries end at every phase of the 16-entry residue pattern
    for X in range(20_000, 20_016):
        monkeypatch.setattr(sweep, "_store", np.zeros(0, dtype=np.int32))
        want = np.where(fundamental_mask(X), sweep_counts_by_strides(X), 0)
        assert np.array_equal(class_numbers(X), want), X


@pytest.mark.parametrize("limit", [40_000, 40_001, 40_002, 40_003])
def test_strided_oracle_across_blocks_and_groups(monkeypatch, limit):
    # small blocks and row groups put many hand-offs between blocks,
    # between groups, and between the swept half array and its spread
    # into every residue of |D| mod 4
    monkeypatch.setattr(sweep, "_BLOCK", 1 << 10)
    monkeypatch.setattr(sweep, "_PATTERN_BUDGET", 1 << 12)
    assert np.array_equal(sweep_counts(limit), sweep_counts_by_strides(limit))


def test_strided_oracle_over_several_blocks():
    X = 1_100_003
    assert X // 2 > 2 * sweep._BLOCK
    assert np.array_equal(sweep_counts(X), sweep_counts_by_strides(X))


def test_range_cuts_at_every_residue(monkeypatch):
    X = 60_002
    want = sweep_counts_by_strides(X)
    monkeypatch.setattr(sweep, "_BLOCK", 1 << 12)
    cuts = [0, 2, 6, 7, 1001, _n0(40) + 2, 10_002, 30_001, 44_443, X + 1]
    assert {c % 4 for c in cuts} == {0, 1, 2, 3}
    assert cuts == sorted(cuts)
    parts = [sweep._sweep_range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(parts), want)


@pytest.mark.parametrize("X", [30_001, 30_002])
@pytest.mark.parametrize("workers", [2, 3])
def test_worker_ranges_match_strided_oracle(X, workers):
    assert np.array_equal(sweep_counts(X, workers=workers), sweep_counts_by_strides(X))
