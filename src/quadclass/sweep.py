"""Bulk class-number computation by amortized sweeps.

A single pass over all triples a <= sqrt(X/3), 0 <= b <= a,
a <= c <= (b^2 + X) / 4a touches every reduced form of every
discriminant down to -X once, so tabulating h for a million fields
costs O(X^{3/2}) instead of a million separate enumerations.  The
kernel is numpy: for fixed (a, b) the forms with c > a land on an
arithmetic progression of |D|, which one strided array add covers.

The kernel counts all reduced forms, primitive or not.  Fundamental
discriminants admit no imprimitive forms (a common factor g of
a, b, c puts g^2 into the discriminant in a way the fundamentality
conditions rule out), so restricting output to fundamental D makes
the raw count equal h(D).  class_numbers applies that restriction
once and keeps the result as the single class-number table every scan
reads; the raw counter is exposed for tests.  class_numbers also owns
the class-data budget (its budget argument overrides the cap), and
batch_class_numbers only lists the table's nonzero entries.

sweep_counts partitions its work across processes by striding the
outer loop variable; partial counters merge by addition, so worker
count never changes results.  It does not partition memory: with k
workers each one holds a full array of 8(X+1) bytes, and the parent
adds each into its running total as it arrives, while the class-data
budget counts a single array.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from math import isqrt

import numpy as np

from .forms import fundamental_mask

#: The sweep kernel in use; numpy is the only one.
BACKEND = "python"


class ResourceLimitError(Exception):
    """A requested bound exceeds the configured memory/time budget."""


#: Largest X accepted by class_numbers without an explicit budget
#: override.  The table alone is 8(X+1) bytes.
DEFAULT_CLASS_DATA_BUDGET = 4_000_000


def check_budget(name: str, value: int, cap: int, kind: str) -> None:
    """Refuse value above cap."""
    if value > cap:
        raise ResourceLimitError(f"{name} = {value} exceeds the {kind} budget {cap}")


def _sweep_slice(limit: int, a_start: int, a_step: int) -> np.ndarray:
    """counts[n] = number of reduced forms with 4ac - b^2 = n, for the
    slice a in {a_start, a_start + a_step, ...}."""
    counts = np.zeros(max(limit, 0) + 1, dtype=np.int64)
    if limit < 3:
        return counts
    for a in range(a_start, isqrt(limit // 3) + 1, a_step):
        foura = 4 * a
        for b in range(0, a + 1):
            base = foura * a - b * b  # the c = a term
            if base > limit:
                continue
            counts[base] += 1
            start = base + foura
            if start <= limit:
                # one strided add covers every c > a at this (a, b)
                counts[start::foura] += 1 if (b == 0 or b == a) else 2
    return counts


def sweep_counts(limit: int, workers: int = 1) -> np.ndarray:
    """counts[n] = number of reduced forms of discriminant -n, n <= limit.

    No fundamentality or primitivity filtering; see class_numbers.
    """
    if workers <= 1:
        return _sweep_slice(limit, 1, 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # map yields lazily and drops each part once it is consumed
        parts = pool.map(
            _sweep_slice, [limit] * workers, range(1, workers + 1), [workers] * workers
        )
        total = next(parts)
        for part in parts:
            total += part
    return total


def count_reduced_forms(abs_disc: int) -> int:
    """Number of reduced forms with |disc| = abs_disc, by trial division
    over b.  Equals h(-abs_disc) when -abs_disc is fundamental.  Built
    for single very large discriminants where a full sweep is absurd.
    """
    if abs_disc % 4 == 0:
        b0 = 0
    elif abs_disc % 4 == 3:
        b0 = 1
    else:
        raise ValueError(f"{-abs_disc} is not a discriminant")
    total = 0
    for b in range(b0, isqrt(abs_disc // 3) + 1, 2):
        n = (b * b + abs_disc) // 4
        lo = max(b, 1)
        hi = isqrt(n)
        if hi < lo:
            continue
        a = np.arange(lo, hi + 1, dtype=np.int64)
        a = a[n % a == 0]
        if not a.size:
            continue
        if b == 0:
            total += a.size
        else:
            c = n // a
            total += int(np.where((a == b) | (a == c), 1, 2).sum())
    return total


# h[n] = h(-n) for fundamental -n, 0 otherwise; read-only, grown on demand
_store = np.zeros(0, dtype=np.int64)


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
        counts = sweep_counts(limit, workers=workers)
        counts[~fundamental_mask(limit)] = 0
        counts.flags.writeable = False
        _store = counts
    return _store[: limit + 1]


def batch_class_numbers(limit: int, workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(abs_discs, class_numbers): h(D) for every fundamental D with
    |D| <= limit, as parallel arrays ascending in |D|."""
    if limit < 3:
        raise ValueError("limit must be at least 3")
    h = class_numbers(limit, workers=workers)
    ns = np.nonzero(h)[0]
    return ns, h[ns]
