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
_sweep_range(lo, hi) sweeps [lo, hi) in two parts.  Below i0 it adds
the points one by one: every c = a term and the first ceil(b^2/4a)
terms c > a of each b, about a^2/12 per a.  It takes a in descending
order: those temporaries grow with a, so the largest come first and
the allocator reuses their memory instead of mapping and faulting in
a larger block for each new a (a fresh interpreter's sweep to 4e6
takes under a third of the page faults of ascending order).  From i0
on it walks the range in L2-sized blocks and adds each a's pattern,
tiled to a row of at least _MIN_ROW entries, as one reshaped 2D add
per block.  The row of a also carries a/2, a/4, ... (their periods
divide 2a), so a adds its own row only until the row of 2a takes over
at i0(2a).  Rows are held for one group of consecutive a at a time, in
one buffer of _PATTERN_BUDGET entries: one large block that goes back
to the system when the sweep ends, where hundreds of small rows would
leave the heap fragmented for the rest of the process.
The sweep runs in the front half of the n-indexed output array, which
is then spread out in place, top down, to n = 2i + (i & 1), with the
n = 1, 2 (mod 4) entries zeroed, so no second full-length array is held.

The kernel counts all reduced forms, primitive or not.  Fundamental
discriminants admit no imprimitive forms (a common factor g of
a, b, c puts g^2 into the discriminant in a way the fundamentality
conditions rule out), so restricting output to fundamental D makes
the raw count equal h(D).  class_numbers applies that restriction
once, in place: forms.keep_fundamental zeroes the counts of the
non-fundamental |D| (the strike of the odd prime squares and the
mod-16 residue pattern that also build forms.fundamental_mask), so no
mask of length X is made.  The result is the single class-number table
every scan reads, as int32 (4 bytes per |D|; h stays far below 2^31 at
any reachable X); the raw counter is exposed for tests.  class_numbers
also owns the class-data budget (its budget argument overrides the
cap), and batch_class_numbers only lists the table's nonzero entries.

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
from .ntheory import check_budget

#: The sweep kernel in use; numpy is the only one.
BACKEND = "numpy"


#: Largest X accepted by class_numbers without an explicit budget
#: override.  The table alone is 4(X+1) bytes (int32).
DEFAULT_CLASS_DATA_BUDGET = 4_000_000

#: Entries of the count array one block covers: 1 MiB of int32, inside L2.
_BLOCK = 1 << 18
#: Pattern-row entries held at once, in one buffer (1 MiB of int32); the
#: rows of one group of consecutive a are added over every block before
#: the next group's rows are built.
_PATTERN_BUDGET = 1 << 18
#: Shortest pattern row, so that numpy's inner loop stays long for small a.
_MIN_ROW = 1024


def _half(n: int) -> int:
    """The first index i with n(i) = 2i + (i & 1) >= n."""
    return (n >> 1) + (n & 3 == 1)


def _pattern_row(a: int) -> np.ndarray:
    """The periodic weights of a, a/2, a/4, ... at i mod 2a, tiled to a
    row of k + 1 periods with k * 2a >= _MIN_ROW.

    The forms (a, b, c) with c > a put weight 1 (b in {0, a}) or 2 on
    n = -b^2 mod 4a, which is 0 or 3 mod 4, so at i = n >> 1 mod 2a; a
    halving a' = a / 2^j repeats with a period 2a' in i that divides 2a.
    """
    pattern = np.zeros(2 * a, dtype=np.int32)
    sub, reps = a, 1
    while True:
        i = (-(np.arange(sub + 1, dtype=np.int64) ** 2) % (4 * sub)) >> 1
        part = np.bincount(i, minlength=2 * sub) + np.bincount(i[1:sub], minlength=2 * sub)
        pattern += np.tile(part.astype(np.int32), reps)
        if sub % 2:
            break
        sub, reps = sub // 2, reps * 2
    return np.tile(pattern, -(-_MIN_ROW // (2 * a)) + 1)


def _add_prefix(half: np.ndarray, ilo: int, ihi: int, a: int) -> None:
    """Add the forms of a with n = 4ac - b^2 < n0 = 4a^2 + 4a, n >> 1 in
    [ilo, ihi), into half[(n >> 1) - ilo]: every c = a term, and the
    first ceil(b^2 / 4a) terms c > a of each b."""
    m, p = 4 * a, 2 * a
    b = np.arange(a + 1, dtype=np.int64)
    first = (4 * a * a - b * b) >> 1
    first = first[(first >= ilo) & (first < ihi)] - ilo
    np.add.at(half, first, np.int32(1))
    # b's terms c > a run i = start + p*j, j in [j0, j1)
    start = (4 * a * a + m - b * b) >> 1
    j0 = np.maximum(-((start - ilo) // p), 0)
    j1 = np.minimum(-(-(b * b) // m), -((start - ihi) // p))
    k = np.maximum(j1 - j0, 0)
    before = np.cumsum(k) - k
    i = np.arange(0, p * int(k.sum()), p, dtype=np.int64)
    i += np.repeat(start + p * (j0 - before) - ilo, k)
    # b = a, the last run, weighs 1; every other b > 0 weighs 2
    split = i.size - int(k[-1])
    np.add.at(half, i[:split], np.int32(2))
    np.add.at(half, i[split:], np.int32(1))


def _spread(counts: np.ndarray, lo: int, ilo: int, size: int) -> None:
    """Move half = counts[:size], indexed by i - ilo, to counts[n(i) - lo]
    with n(i) = 2i + (i & 1), and zero every n = 1, 2 (mod 4).

    n(i) - lo >= i - ilo, so blocks moved from the top down never
    overwrite an entry not yet read; each block goes through one buffer
    because its own targets may overlap it.
    """
    buf = np.empty(min(size, _BLOCK), dtype=np.int32)
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


def _sweep_half(half: np.ndarray, ilo: int, ihi: int) -> None:
    """Add into half[i - ilo] the number of reduced forms with
    (4ac - b^2) >> 1 = i, for i in [ilo, ihi)."""
    # a form of a has n >= 3a^2; below i0(a) = 2a^2 + 2a it is added
    # point by point, largest a first so that the allocator reuses the
    # largest temporaries
    for a in range(isqrt((2 * ihi - 1) // 3), 0, -1):
        if 2 * a * a + 2 * a > ilo:
            _add_prefix(half, ilo, ihi, a)
    # a adds its row over [i0(a), i0(2a)); from i0(2a) on the row of 2a
    # carries it
    a = 1
    while 8 * a * a + 4 * a <= ilo:
        a += 1
    # a < sqrt(ihi / 2), and a row has fewer than 4a + _MIN_ROW entries
    store = np.empty(max(_PATTERN_BUDGET, 4 * isqrt(ihi // 2) + _MIN_ROW), dtype=np.int32)
    while 2 * a * a + 2 * a < ihi:
        group, held = [], 0
        while 2 * a * a + 2 * a < ihi and (
            not group or held + 4 * a + _MIN_ROW <= _PATTERN_BUDGET
        ):
            row = _pattern_row(a)
            store[held : held + row.size] = row
            row = store[held : held + row.size]
            group.append((2 * a * a + 2 * a, min(ihi, 8 * a * a + 4 * a), 2 * a, row))
            held += row.size
            a += 1
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
                body = half[i : i + rows * width].reshape(rows, width)
                body += row[phase : phase + width]
                i += rows * width
                half[i : e - ilo] += row[phase : phase + e - ilo - i]


def _sweep_range(lo: int, hi: int) -> np.ndarray:
    """counts[n - lo] = number of reduced forms with 4ac - b^2 = n, for
    n in [lo, hi), as int32."""
    counts = np.zeros(max(hi - lo, 0), dtype=np.int32)
    if hi <= 3:
        return counts
    # n = 4ac - b^2 is 0 or 3 mod 4, so i = n >> 1 indexes the
    # discriminants alone: sweep them into the front of counts, then
    # spread them out to their n
    ilo, ihi = _half(lo), _half(hi)
    _sweep_half(counts[: ihi - ilo], ilo, ihi)
    _spread(counts, lo, ilo, ihi - ilo)
    return counts


def sweep_counts(limit: int, workers: int = 1) -> np.ndarray:
    """counts[n] = number of reduced forms of discriminant -n, n <= limit,
    as int32.

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
    counts = np.empty(size, dtype=np.int32)
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
_store = np.zeros(0, dtype=np.int32)


def class_numbers(
    limit: int, workers: int = 1, budget: int | None = None
) -> np.ndarray:
    """Read-only view h[0..limit] with h[n] = h(-n) for fundamental -n
    and 0 otherwise, so h[n] > 0 exactly when -n is fundamental.

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
    |D| <= limit, as parallel int32 arrays ascending in |D|.  Every |D|
    the class-data budget admits fits in int32, half the bytes of the
    int64 indices np.nonzero gives; those are made one block at a time."""
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
