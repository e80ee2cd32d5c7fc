"""Bulk class-number computation by amortized sweeps.

A single pass over all triples a <= sqrt(X/3), 0 <= b <= a,
a <= c <= (b^2 + X) / 4a touches every reduced form of every
discriminant down to -X once, so tabulating h for a million fields
costs O(X^{3/2}) instead of a million separate enumerations.

The kernel is numpy and periodic.  Every n = 4ac - b^2 is 0 or 3
(mod 4), so the sweep indexes its counts by i = n >> 1, a bijection
from those n onto the integers (4q -> 2q, 4q + 3 -> 2q + 1) that skips
the n = 1, 2 (mod 4) that are never discriminants: half the entries,
and half the adds.  Fix a.  The forms with c > a put weight 1 (b in
{0, a}) or 2 (otherwise) on every n = 4ac - b^2, so on n = -b^2 mod 4a;
once n reaches n0 = 4a^2 + 4a, at i0 = 2a^2 + 2a, every b has started,
and from there the contribution of a is exactly periodic in i with
period 2a (entry j is the weight at n = 2j + (j & 1) mod 4a).
_sweep_range(lo, hi) sweeps [lo, hi) in two parts.  From i0 on it
walks the range in L2-sized blocks and adds each a's pattern, tiled to
a row of at least _MIN_ROW entries, as one reshaped 2D add per block.
The row of a also carries a/2, a/4, ... (their periods divide 2a), so a
adds its own row only until the row of 2a takes over at i0(2a), and
the row of 2a is a's own pattern plus one period of a's row, kept from
when that row was built until then (about 0.4 MB at 4e6).  Rows
are held for one group of consecutive a at a time, in one buffer of
_PATTERN_BUDGET entries: one large block that goes back to the system
when the sweep ends, where hundreds of small rows would leave the heap
fragmented for the rest of the process.  Below i0 it adds the points
one by one: every c = a term and the first ceil(b^2/4a) terms c > a of
each b, about a^2/12 per a.  Their indices are built in two buffers
made once, _PREFIX_TERMS + a terms at a time, so no temporary grows
with a: per-a temporaries of a's size were mapped, trimmed and faulted
in again by the heap, and a fresh interpreter's sweep to 4e6 took
26.9-27.7k minor page faults with them and takes 1.9-2.4k without.
The sweep runs in the front half of the n-indexed output array, which
is then spread out in place, top down, to n = 2i + (i & 1), with the
n = 1, 2 (mod 4) entries zeroed, so no second full-length array is held.

The counts are uint16, and every add goes into a uint16 accumulator: a
2D add of uint16 rows moves half the bytes of an int32 add, and took
0.08 ns an entry against 0.19-0.30 ns in int32 on a 2-vCPU x86-64 host.
The accumulator lives in the back half of the output array, which
holds nothing until the spread (the array takes up to two spare
entries where a range has more discriminants than other n), and is
added into the front half and zeroed whenever it could pass 65535, and
once at the end.  The accumulator cannot overflow: each add has a
bound on what it puts on any one entry, and the sweep flushes before
the bounds summed since the last flush pass _ACC_LIMIT.  A row puts
at most its largest weight on an entry.  The prefix of a puts at most
the largest weight of a's own pattern: each b has one term on each
n = -b^2 mod 4a, weighing what b weighs in that pattern or, for c = a,
1.  The bounds sum to 9,967 at 1e6, 23,078 at
4e6 and 52,815 at 1.6e7 (the largest counts are 1,868, 3,918 and
8,303), so up to 1.6e7 the accumulator is flushed only at the end.
A count passes 65535 only near |D| ~ 1e9, in a 2 GB table; a flush
refuses it with ntheory.ResourceLimitError rather than wrap.

The kernel counts all reduced forms, primitive or not.  Fundamental
discriminants admit no imprimitive forms (a common factor g of
a, b, c puts g^2 into the discriminant in a way the fundamentality
conditions rule out), so restricting output to fundamental D makes
the raw count equal h(D).  class_numbers applies that restriction
once, in place: forms.keep_fundamental zeroes the counts of the
non-fundamental |D| (the strike of the odd prime squares and the
mod-16 residue pattern that also build forms.fundamental_mask), so no
mask of length X is made.  The result is the single class-number table
every scan reads, as uint16 (2 bytes per |D|); the raw counter is
exposed for tests.  class_numbers also owns the class-data budget (its
budget argument overrides the cap), and batch_class_numbers only lists
the table's nonzero entries.

The table's consumers read it through blocks(), _BLOCK entries at a
time, so none of their temporaries has the table's length.  That
matters for resident memory, not only for the peak: once the sweep has
freed a large temporary, glibc raises its mmap threshold, so later
allocations of a few MB come from the heap, which mostly keeps freed
memory resident where an unmapped block would have been returned.
Length-X masks made after the sweep would stay in the process's RSS.

sweep_counts(X, workers=k) splits [0, X] into k ranges of |D| of
about equal work, cut near X * (i/k)^(2/3) since the work below n
grows like n^(3/2).  Each worker process sweeps and returns its own
range only, and the parent copies the ranges into the one result
array, so worker count never changes results and no worker holds a
full array.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .forms import _reduced_triples, keep_fundamental
from .ntheory import ResourceLimitError, check_budget

#: The sweep kernel in use; numpy is the only one.
BACKEND = "numpy"


#: Largest X accepted by class_numbers without an explicit budget
#: override.  The table alone is 2(X+1) bytes (uint16).
DEFAULT_CLASS_DATA_BUDGET = 4_000_000

#: Entries one block covers, inside L2: 512 KiB of the uint16 table or
#: of the sweep's accumulator.
_BLOCK = 1 << 18
#: Pattern-row entries held at once, in one buffer (512 KiB of uint16);
#: the rows of one group of consecutive a are added over every block
#: before the next group's rows are built.
_PATTERN_BUDGET = 1 << 18
#: Shortest pattern row, so that numpy's inner loop stays long for small a.
_MIN_ROW = 1024
#: Terms below i0 indexed at once, in int64 (1 MiB), plus up to a more.
_PREFIX_TERMS = 1 << 17
#: Most the uint16 accumulator may gain at one entry between flushes.
_ACC_LIMIT = (1 << 16) - 1


def _half(n: int) -> int:
    """The first index i with n(i) = 2i + (i & 1) >= n."""
    return (n >> 1) + (n & 3 == 1)


def _own_pattern(a: int) -> np.ndarray:
    """The weights of a alone at i mod 2a: the forms (a, b, c) with c > a
    put weight 1 (b in {0, a}) or 2 on n = -b^2 mod 4a, which is 0 or 3
    mod 4, so at i = n >> 1 mod 2a."""
    i = (-(np.arange(a + 1, dtype=np.int64) ** 2) % (4 * a)) >> 1
    return np.bincount(i, minlength=2 * a) + np.bincount(i[1:a], minlength=2 * a)


def _pattern_row(a: int, halves: dict) -> tuple[np.ndarray, int, int]:
    """(row, own, top): the periodic weights of a, a/2, a/4, ... at
    i mod 2a, tiled to a uint16 row of k + 1 periods with k * 2a >=
    _MIN_ROW; the largest weight of a alone; the largest in the row.

    The halvings of an even a are those of a/2 and a/2 itself, whose
    period 2(a/2) = a divides 2a, so its row is a's own weights plus the
    first period of a/2's row, tiled twice.  That period is taken out of
    halves when it is there, and built again when it is not."""
    own = _own_pattern(a)
    pattern = own.astype(np.uint16)
    if a % 2 == 0:
        half = halves.pop(a // 2, None)
        pattern += np.tile(_pattern_row(a // 2, {})[0][:a] if half is None else half, 2)
    row = np.tile(pattern, -(-_MIN_ROW // (2 * a)) + 1)
    return row, int(own.max()), int(pattern.max())


def _prefix_points(a: int, span: int) -> int:
    """An upper bound on the points _add_prefix adds for any a' <= a in a
    range of span indices: each b <= a' has ceil(b^2 / 4a') < b^2 / 4a' + 1
    terms c > a', 2a' apart, so also at most span / 2a' + 1 in the range."""
    return min((a + 1) * (2 * a + 1) // 24, span) + a + 1


def _add_prefix(
    acc: np.ndarray, ilo: int, ihi: int, a: int, ramp: np.ndarray, buf: np.ndarray
) -> None:
    """Add the forms of a with n = 4ac - b^2 < n0 = 4a^2 + 4a, n >> 1 in
    [ilo, ihi), into acc[(n >> 1) - ilo]: every c = a term, and the
    first ceil(b^2 / 4a) terms c > a of each b.  ramp is 0, 1, 2, ...
    and buf as long, more than a/4 + 1, the most terms one b has; the
    terms c > a are added whole runs of b at a time, at most ramp.size
    terms, with their indices in buf.

    Every term of b lies on its residue n = -b^2 mod 4a, once per n, and
    weighs at most what b weighs in _own_pattern(a), so no entry gains
    more than that pattern's largest weight."""
    m, p = 4 * a, 2 * a
    b = np.arange(a + 1, dtype=np.int64)
    first = (4 * a * a - b * b) >> 1
    first = first[(first >= ilo) & (first < ihi)] - ilo
    np.add.at(acc, first, np.uint16(1))
    # b's terms c > a run i = start + p*j, j in [j0, j1)
    start = (4 * a * a + m - b * b) >> 1
    j0 = np.maximum(-((start - ilo) // p), 0)
    j1 = np.minimum(-(-(b * b) // m), -((start - ihi) // p))
    k = np.maximum(j1 - j0, 0)
    end = np.cumsum(k)
    # term t of all the runs in b order is at i - ilo = off_b + p*t
    off = start + p * (j0 - end + k) - ilo
    # the runs of b in [s, e) are added at once, as many as buf holds;
    # end ascends, and counting where np.searchsorted would do keeps that
    # function's code out of a fresh interpreter's RSS (0.1 MB)
    s = t = 0
    while s <= a:
        e = int(np.count_nonzero(end <= t + ramp.size))
        n = int(end[e - 1]) - t
        i = np.multiply(ramp[:n], p, out=buf[:n])
        i += np.repeat(off[s:e] + p * t, k[s:e])
        # b = a, the last run, weighs 1; every other b > 0 weighs 2
        cut = n - int(k[a]) if e > a else n
        np.add.at(acc, i[:cut], np.uint16(2))
        np.add.at(acc, i[cut:], np.uint16(1))
        s, t = e, t + n


def _spread(counts: np.ndarray, lo: int, ilo: int, size: int) -> None:
    """Move half = counts[:size], indexed by i - ilo, to counts[n(i) - lo]
    with n(i) = 2i + (i & 1), and zero every n = 1, 2 (mod 4).

    n(i) - lo >= i - ilo, so blocks moved from the top down never
    overwrite an entry not yet read; each block goes through one buffer
    because its own targets may overlap it.
    """
    buf = np.empty(min(size, _BLOCK), dtype=counts.dtype)
    for s in range((size - 1) // _BLOCK * _BLOCK, -1, -_BLOCK):
        chunk = buf[: min(size - s, _BLOCK)]
        chunk[:] = counts[s : s + chunk.size]
        for r in (0, 1):
            # the block's first i of parity r; those of n = 4q + 3r follow
            # every second entry
            i = ilo + s + ((ilo + s + r) & 1)
            dst = 2 * i + (i & 1) - lo
            src = chunk[i - ilo - s :: 2]
            counts[dst : dst + 4 * src.size : 4] = src
    for r in (1, 2):
        counts[(r - lo) % 4 :: 4] = 0


def _add_rows(acc: np.ndarray, ilo: int, ihi: int, group: list) -> None:
    """Add each (i0, end, p, row) of group over [i0, end) into acc[i - ilo],
    one _BLOCK of acc at a time, each as one reshaped 2D add."""
    for block in range(max(ilo, group[0][0]), ihi, _BLOCK):
        block_end = min(block + _BLOCK, ihi)
        for i0, end, p, row in group:
            if i0 >= block_end:
                break
            s, e = max(block, i0), min(block_end, end)
            if s >= e:
                continue
            phase, width = s % p, row.size - p
            rows = (e - s) // width
            i = s - ilo
            body = acc[i : i + rows * width].reshape(rows, width)
            body += row[phase : phase + width]
            i += rows * width
            acc[i : e - ilo] += row[phase : phase + e - ilo - i]


def _flush(half: np.ndarray, acc: np.ndarray, ilo: int) -> None:
    """Add the uint16 accumulator into the uint16 counts half[i - ilo]
    and zero it.  An entry that wraps past 65535 is exactly one that ends
    up below the accumulator value added to it; that is checked a block
    at a time, so that no temporary has the table's length, and refused
    with ResourceLimitError naming the first |D| whose count passed."""
    for s in range(0, half.size, _BLOCK):
        block, add = half[s : s + _BLOCK], acc[s : s + _BLOCK]
        block += add
        if np.any(block < add):
            i = ilo + s + int(np.argmax(block < add))
            raise ResourceLimitError(
                f"the count at |D| = {2 * i + (i & 1)} exceeds "
                f"{np.iinfo(half.dtype).max}, the class-number table's largest entry"
            )
        add.fill(0)


def _sweep_half(half: np.ndarray, acc: np.ndarray, ilo: int, ihi: int) -> None:
    """Add into half[i - ilo] the number of reduced forms with
    (4ac - b^2) >> 1 = i, for i in [ilo, ihi).  The sweep adds into acc,
    a zeroed uint16 array as long as half."""
    used = 0

    def reserve(bound: int) -> None:
        # an add that raises no entry of acc by more than bound is next:
        # flush acc into half first if the bounds summed since the last
        # flush could then pass _ACC_LIMIT
        nonlocal used
        if used + bound > _ACC_LIMIT:
            _flush(half, acc, ilo)
            used = 0
        used += bound

    # a adds its row over [i0(a), i0(2a)), i0(a) = 2a^2 + 2a; from i0(2a)
    # on the row of 2a carries it
    a = 1
    while 8 * a * a + 4 * a <= ilo:
        a += 1
    # a < sqrt(ihi / 2), and a row has fewer than 4a + _MIN_ROW entries
    store = np.empty(max(_PATTERN_BUDGET, 4 * isqrt(ihi // 2) + _MIN_ROW), dtype=np.uint16)
    own, halves = {}, {}
    group, held, top = [], 0, 0
    while True:
        more = 2 * a * a + 2 * a < ihi
        if more:
            row, own[a], peak = _pattern_row(a, halves)
            if 8 * a * a + 4 * a < ihi:
                # the row of 2a is built later and starts from this period
                halves[a] = row[: 2 * a].copy()
        # a row adds at most its peak to an entry, so a group adds at most
        # the sum of its rows' peaks, which must fit in acc
        if group and (not more or held + row.size > store.size or top + peak > _ACC_LIMIT):
            reserve(top)
            _add_rows(acc, ilo, ihi, group)
            group, held, top = [], 0, 0
        if not more:
            break
        store[held : held + row.size] = row
        i0, end = 2 * a * a + 2 * a, min(ihi, 8 * a * a + 4 * a)
        group.append((i0, end, 2 * a, store[held : held + row.size]))
        held += row.size
        top += peak
        a += 1
    del store, group
    # a form of a has n >= 3a^2; below i0(a) it is added point by point,
    # in buffers longer than a
    a = isqrt((2 * ihi - 1) // 3)
    ramp = np.arange(min(_prefix_points(a, ihi - ilo), _PREFIX_TERMS + a), dtype=np.int64)
    buf = np.empty_like(ramp)
    while a and 2 * a * a + 2 * a > ilo:
        # an a past every row has its own pattern made here
        reserve(own[a] if a in own else int(_own_pattern(a).max()))
        _add_prefix(acc, ilo, ihi, a, ramp, buf)
        a -= 1
    _flush(half, acc, ilo)


def _sweep_range(lo: int, hi: int) -> np.ndarray:
    """counts[n - lo] = number of reduced forms with 4ac - b^2 = n, for
    n in [lo, hi), as uint16."""
    # n = 4ac - b^2 is 0 or 3 mod 4, so i = n >> 1 indexes the
    # discriminants alone: sweep them into the front of counts, then
    # spread them out to their n
    length = max(hi - lo, 0)
    ilo, ihi = _half(lo), _half(hi)
    size = max(ihi - ilo, 0)
    # the sweep adds in the back half of counts, which holds nothing until
    # the spread; up to two more n of a range are discriminants than not
    # (3 and 4 both are), so counts takes up to two spare entries.  Zeroed
    # by a write, not by calloc: the sweep's first touch of a page is a
    # read, which would map the zero page and fault again on the write
    counts = np.empty(max(length, 2 * size), dtype=np.uint16)
    counts.fill(0)
    if hi > 3:
        _sweep_half(counts[:size], counts[size : 2 * size], ilo, ihi)
        _spread(counts[:length], lo, ilo, size)
    return counts[:length]


def sweep_counts(limit: int, workers: int = 1) -> np.ndarray:
    """counts[n] = number of reduced forms of discriminant -n, n <= limit,
    as uint16; a count past 65535 raises ResourceLimitError.

    No fundamentality or primitivity filtering; see class_numbers.
    """
    size = max(limit, 0) + 1
    if workers <= 1:
        return _sweep_range(0, size)
    # imported here: a one-worker run would pay about 10-15 ms of start-up
    # and 1.5 MB of peak RSS to load them for nothing
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    # the work below n grows like n^(3/2), so these cuts share it evenly
    cuts = [round(size * (i / workers) ** (2 / 3)) for i in range(workers + 1)]
    counts = np.empty(size, dtype=np.uint16)
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
        for lo, hi, part in zip(cuts, cuts[1:], pool.map(_sweep_range, cuts[:-1], cuts[1:])):
            counts[lo:hi] = part
    return counts


def count_reduced_forms(abs_disc: int) -> int:
    """Number of reduced forms with |disc| = abs_disc, from the
    per-b divisor loop of forms._reduced_triples, with no |D| cap.
    Equals h(-abs_disc) when -abs_disc is fundamental.  Built for single
    very large discriminants where a full sweep is absurd.
    """
    if abs_disc % 4 not in (0, 3):
        raise ValueError(f"{-abs_disc} is not a discriminant")
    total = 0
    for b, a, c in _reduced_triples(abs_disc):
        # (a, -b, c) is reduced too unless b = 0, a = b or a = c
        total += 2 * a.size - (a.size if b == 0 else np.count_nonzero((a == b) | (a == c)))
    return total


# h[n] = h(-n) for fundamental -n, 0 otherwise; read-only, grown on demand
_store = np.zeros(0, dtype=np.uint16)


def class_numbers(
    limit: int, workers: int = 1, budget: int | None = None
) -> np.ndarray:
    """Read-only uint16 view h[0..limit] with h[n] = h(-n) for
    fundamental -n and 0 otherwise, so h[n] > 0 exactly when -n is
    fundamental.  A count past 65535 raises ResourceLimitError.

    limit may not exceed budget, DEFAULT_CLASS_DATA_BUDGET when None.
    All callers share one table.  A sweep's count at n does not depend
    on the sweep bound, so a smaller bound is served as a prefix of the
    largest table built so far, and only a larger bound sweeps again.
    """
    global _store
    if limit < 0:
        raise ValueError("limit must be >= 0")
    cap = DEFAULT_CLASS_DATA_BUDGET if budget is None else budget
    check_budget("X", limit, cap, "class-data")
    if _store.size <= limit:
        counts = keep_fundamental(sweep_counts(limit, workers=workers))
        counts.flags.writeable = False
        _store = counts
    return _store[: limit + 1]


def blocks(table: np.ndarray):
    """(start, table[start : start + _BLOCK]) for start = 0, _BLOCK, ...:
    the table's consumers count block by block, so that no temporary
    of theirs has the table's length."""
    for start in range(0, table.size, _BLOCK):
        yield start, table[start : start + _BLOCK]


def batch_class_numbers(limit: int, workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(abs_discs, class_numbers): h(D) for every fundamental D with
    |D| <= limit, as parallel arrays ascending in |D|, int32 and the
    table's uint16.  Every |D| the class-data budget admits fits in
    int32, half the bytes of the int64 indices np.nonzero gives; those
    are made one block at a time."""
    if limit < 3:
        raise ValueError("limit must be at least 3")
    h = class_numbers(limit, workers=workers)
    ns = np.empty(np.count_nonzero(h), dtype=np.int32)
    at = 0
    for start, block in blocks(h):
        found = np.flatnonzero(block)
        ns[at : at + found.size] = found + start
        at += found.size
    return ns, h[ns]
