import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from math import isqrt
from pathlib import Path

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
    assert two.dtype == np.uint16
    assert np.array_equal(one, two)


def test_batch_table_fundamental_only(monkeypatch):
    monkeypatch.setattr(sweep, "_store", np.zeros(0, dtype=np.uint16))
    discs, hs = batch_class_numbers(500)
    assert sweep._store.dtype == np.uint16
    assert discs.dtype == np.int32 and hs.dtype == np.uint16
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


def test_flush_refuses_a_count_past_65535(monkeypatch):
    # blocks of 4, so that the wrap is found past the first block; i = ilo
    # + 6 is the first entry past 65535, at |D| = 2i + (i & 1) = 27
    monkeypatch.setattr(sweep, "_BLOCK", 4)
    half = np.full(10, 65000, dtype=np.uint16)
    acc = np.zeros(10, dtype=np.uint16)
    acc[[6, 9]] = 536
    with pytest.raises(ResourceLimitError, match=r"\|D\| = 27 exceeds 65535"):
        sweep._flush(half, acc, 7)


def test_flush_reaches_65535_exactly(monkeypatch):
    monkeypatch.setattr(sweep, "_BLOCK", 4)
    half = np.arange(65526, 65536, dtype=np.uint16)
    acc = np.arange(9, -1, -1, dtype=np.uint16)
    sweep._flush(half, acc, 7)
    assert np.all(half == 65535) and not acc.any()


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
    assert counts.dtype == np.uint16
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


def test_table_is_uint16_and_read_only():
    table = class_numbers(3000)
    assert table.dtype == np.uint16 and table.nbytes == 2 * 3001
    assert not table.flags.writeable
    assert np.array_equal(table, np.where(fundamental_mask(3000), sweep_counts_by_strides(3000), 0))


@pytest.mark.parametrize("X", [200_000, 1_100_003])
def test_sweep_memory_within_budget(X):
    # the uint16 counts, plus at most _PATTERN_BUDGET uint16 pattern
    # entries, then the prefix's two index buffers and one temporary (each
    # at most X/36 or _PREFIX_TERMS + sqrt(X) int64 values); the
    # accumulator lives in the back half of the counts; 1_100_003 spans
    # several blocks, so the discriminant-indexed sweep must run inside the
    # output array, not beside a second one
    tracemalloc.start()
    try:
        sweep_counts(X, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (X + 1) + 4 * sweep._PATTERN_BUDGET + (X + 1)


@pytest.mark.parametrize("X", [200_000, 1_100_003])
def test_table_build_memory_within_budget(monkeypatch, X):
    # from an empty store: the uint16 table, the sweep's pattern rows, and
    # 3 bytes per |D| of slack, too little for any int64 array of length
    # X+1; the table is filtered in place, within the sweep's own bound
    # (the next test)
    monkeypatch.setattr(sweep, "_store", np.zeros(0, dtype=np.uint16))
    tracemalloc.start()
    try:
        class_numbers(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (X + 1) + 4 * sweep._PATTERN_BUDGET + 3 * (X + 1)


@pytest.mark.parametrize("X", [200_000, 1_100_003])
def test_table_filter_allocates_nothing_beyond_the_sweep(monkeypatch, X):
    # the non-fundamental entries are zeroed in the uint16 table itself, so
    # building the table stays within the sweep's own bound
    monkeypatch.setattr(sweep, "_store", np.zeros(0, dtype=np.uint16))
    tracemalloc.start()
    try:
        class_numbers(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (X + 1) + 4 * sweep._PATTERN_BUDGET + (X + 1)


def test_table_filter_at_every_residue_mod_16(monkeypatch):
    # X + 1 entries end at every phase of the 16-entry residue pattern
    for X in range(20_000, 20_016):
        monkeypatch.setattr(sweep, "_store", np.zeros(0, dtype=np.uint16))
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


def _largest_single_bound(limit: int) -> int:
    # the most one add of the sweep to `limit` may put on an entry: one
    # row of a, or a's prefix
    ihi = sweep._half(limit + 1)
    rows = [sweep._pattern_row(a, {})[2] for a in range(1, isqrt(ihi // 2) + 1)]
    prefixes = [int(sweep._own_pattern(a).max()) for a in range(1, isqrt(2 * ihi // 3) + 1)]
    return max(rows + prefixes)


@pytest.mark.parametrize("limit", [40_000, 40_001, 40_002, 40_003])
def test_accumulator_flushes_match_strided_oracle(monkeypatch, limit):
    # with the accumulator's limit at the largest single add, the sweep
    # flushes before nearly every add, across blocks, row groups and the
    # prefix's runs of terms
    monkeypatch.setattr(sweep, "_ACC_LIMIT", _largest_single_bound(limit))
    monkeypatch.setattr(sweep, "_BLOCK", 1 << 10)
    monkeypatch.setattr(sweep, "_PATTERN_BUDGET", 1 << 12)
    monkeypatch.setattr(sweep, "_PREFIX_TERMS", 1 << 6)
    assert np.array_equal(sweep_counts(limit), sweep_counts_by_strides(limit))


@pytest.mark.parametrize("scale", [1, 3, 40])
def test_accumulator_never_passes_its_limit(monkeypatch, scale):
    # at a limit of a few single adds, every flush finds each entry of the
    # accumulator within the limit: the sweep reserved enough for each add
    X = 200_003
    limit = scale * _largest_single_bound(X)
    flush = sweep._flush
    seen = []

    def checked(half, acc, ilo):
        seen.append(int(acc.max()))
        flush(half, acc, ilo)

    monkeypatch.setattr(sweep, "_ACC_LIMIT", limit)
    monkeypatch.setattr(sweep, "_flush", checked)
    assert np.array_equal(sweep_counts(X), sweep_counts_by_strides(X))
    assert len(seen) > 1 and max(seen) <= limit


def test_accumulator_flushes_on_seeded_range_cuts(monkeypatch):
    X = 60_002
    want = sweep_counts_by_strides(X)
    monkeypatch.setattr(sweep, "_ACC_LIMIT", _largest_single_bound(X))
    monkeypatch.setattr(sweep, "_BLOCK", 1 << 12)
    monkeypatch.setattr(sweep, "_PREFIX_TERMS", 1 << 6)
    rng = random.Random(26)
    for _ in range(4):
        cuts = sorted({0, X + 1, *rng.sample(range(1, X + 1), 6)})
        parts = [sweep._sweep_range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(parts), want), cuts


def _largest_prefix_increment(a: int) -> int:
    # by brute force over (b, c): the forms of a below n0 = 4a^2 + 4a,
    # each c = a term weighing 1 and each c > a term 1 (b in {0, a}) or 2
    at = Counter()
    for b in range(a + 1):
        c = a
        while 4 * a * c - b * b < 4 * a * a + 4 * a:
            at[(4 * a * c - b * b) >> 1] += 1 if c == a or b in (0, a) else 2
            c += 1
    return max(at.values())


def _largest_row_increment(a: int) -> int:
    # by brute force over (b, c): the forms of a, a/2, a/4, ... with
    # c > a', over one period [i0, i0 + 2a) of the row of a, i0 = 2a^2 + 2a
    i0, at = 2 * a * a + 2 * a, Counter()
    sub = a
    while True:
        for b in range(sub + 1):
            # the smallest c > sub with n = 4 sub c - b^2 >= 2 i0
            c = max(sub + 1, -(-(2 * i0 + b * b) // (4 * sub)))
            while (n := 4 * sub * c - b * b) >> 1 < i0 + 2 * a:
                at[n >> 1] += 1 if b in (0, sub) else 2
                c += 1
        if sub % 2:
            return max(at.values())
        sub //= 2


def test_accumulator_bounds_are_honest():
    # what the sweep reserves for a's prefix and for its row is at least
    # the most either really adds to one entry
    for a in range(1, 401):
        row, own, top = sweep._pattern_row(a, {})
        assert own == int(sweep._own_pattern(a).max()), a
        assert own >= _largest_prefix_increment(a), a
        assert top >= _largest_row_increment(a), a
        assert top == int(row.max()), a


def test_rows_from_kept_halvings_match_rows_from_scratch():
    # in sweep order, as _sweep_half keeps them: a's period is kept while
    # the row of 2a is still to come, and taken out when it is built
    halves = {}
    for a in range(1, 401):
        kept = sweep._pattern_row(a, halves)
        if 2 * a <= 400:
            halves[a] = kept[0][: 2 * a].copy()
        assert kept[1:] == sweep._pattern_row(a, {})[1:], a
        assert np.array_equal(kept[0], sweep._pattern_row(a, {})[0]), a
    assert halves == {}


# sha256 of _sweep_range's counts as int32 bytes, recorded with the int32
# sweep that preceded the uint16 accumulator and table
RANGE_SHA256 = {
    (0, 4_000_001): "7a16c6c587ed16c88221b7e8eff343946844b220a45ed2b54ced6daa4269411e",
    (15_000_000, 16_000_000): "34a82f4ca46a91e2039d0727bf22350b9576d7753e68f392065190633b42be20",
}


@pytest.mark.parametrize("lo, hi", sorted(RANGE_SHA256))
def test_sweep_range_bytes_pinned(lo, hi):
    counts = sweep._sweep_range(lo, hi)
    assert counts.dtype == np.uint16
    assert hashlib.sha256(counts.astype(np.int32).tobytes()).hexdigest() == RANGE_SHA256[lo, hi]


# most minor page faults of sweep_counts(X) in a fresh interpreter: half
# the 3,895 at 1_100_003 and under half the 27,708 at 4e6 that the int32
# sweep made before the uint16 accumulator, most of them from the point
# by point part's per-a temporaries, which the heap maps, trims and
# faults in again
SWEEP_FAULT_BOUND = {1_100_003: 3_895 // 2, 4_000_000: 10_000}


@pytest.mark.parametrize("X", sorted(SWEEP_FAULT_BOUND))
def test_sweep_page_faults_in_a_fresh_interpreter(X):
    # the prefix reuses buffers sized once
    code = (
        "import resource, sys\n"
        "from quadclass.sweep import sweep_counts\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "sweep_counts(int(sys.argv[1]))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(sweep.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, str(X)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert int(out.stdout) <= SWEEP_FAULT_BOUND[X]
