"""One fresh interpreter of the benchmark: a timed repetition of a
workload, a set-up sample, or the output checks.

Usage (from run.py, with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py JOB.json

The worker imports ``quadclass.cli`` first and notes the monotonic
clock when the import is done; run.py subtracts its own clock reading
taken just before the spawn, which gives the set-up time.  The job is
read only after that.  The result is the last line of stdout, as JSON.

Checks run in their own interpreter so that the module-level memos
(``density._suitable_disc_cache``, ``finitefield._field_cache``, the
``lru_cache``s, ...) filled by the timed run cannot answer for the
independent routes.
"""

import time

import quadclass.cli as cli

READY = time.monotonic()

import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

from quadclass import density, sweep  # noqa: E402
from quadclass.forms import ClassGroupCache  # noqa: E402


def run_calls(job: dict) -> dict:
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    latencies, codes = [], []
    for i, argv in enumerate(job["calls"]):
        if tracer is not None:
            tracer.query = i
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed call, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        codes.append(code)
    if tracer is not None:
        tracer.dump(job["spans_path"])
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out = {"latencies": latencies, "codes": codes, "rss_kb": rss_kb}
    if job.get("scan_mask"):
        out["scan_mask"] = scan_mask(**job["scan_mask"])
    return out


def scan_mask(p: int, x: int, cache_path: str, sample: list[int]) -> dict:
    """The mask behind the density row just computed, rebuilt from the
    warm memos of the timed run (outside the timed region)."""
    mask = density.suitable_divisor_mask(p, x, cache=ClassGroupCache(cache_path))
    return {"count": int(mask.sum()), "sample": [bool(mask[n]) for n in sample]}


# ------------------------------------------------------------------ checks


def read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def fundamental_abs_discs(limit: int) -> np.ndarray:
    """Every n <= limit with -n fundamental, by a sieve of its own."""
    sqf = np.ones(limit + 1, dtype=bool)
    sqf[0] = False
    for d in range(2, math.isqrt(limit) + 1):
        sqf[d * d :: d * d] = False
    n = np.arange(limit + 1)
    ok = (n % 4 == 3) & sqf
    m = n // 4
    ok |= (n % 4 == 0) & np.isin(m % 4, (1, 2)) & sqf[m]
    return np.nonzero(ok)[0]


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def product_oracle(p: int) -> float:
    """1 - prod_{k>=1} (1 - p^-k), summed to 60 factors."""
    prod = 1.0
    for k in range(1, 61):
        prod *= 1.0 - p ** -k
    return 1.0 - prod


def class_number(abs_disc: int) -> int:
    """h by trial division over b: the single-discriminant kernel,
    independent of the sweep and of form enumeration."""
    return sweep.count_reduced_forms(abs_disc)


def check_census(job, fail, rng):
    x, calls = job["x"], job["calls"]
    head, rows = read_rows(calls[0]["output"])
    census = {int(h): int(c) for h, c in rows}
    if head != ["order", "count"] or sorted(census) != [1, 2, 3, 128, 256, 512]:
        fail(0, f"census header/orders {head} {sorted(census)}")

    head, rows = read_rows(calls[2]["output"])
    if head != ["disc", "h"]:
        fail(2, f"batch header {head}")
    discs = np.array([-int(d) for d, _ in rows])
    hs = np.array([int(h) for _, h in rows])
    if not np.array_equal(discs, fundamental_abs_discs(job["batch"])):
        fail(2, "batch rows are not exactly the fundamental |D| <= bound, ascending")
    for i in rng.sample(range(len(rows)), min(50, len(rows))):
        if class_number(int(discs[i])) != hs[i]:
            fail(2, f"h(-{discs[i]}) = {hs[i]}, trial division says otherwise")
    # Heegner-Stark and the h = 2, 3 lists: 9, 18 and 16 fields, the
    # largest |D| being 907, so both tables hold them all
    for h, known in ((1, 9), (2, 18), (3, 16)):
        if census.get(h) != known or int(np.sum(hs == h)) != known:
            fail(0, f"order {h}: census {census.get(h)}, batch {int(np.sum(hs == h))}, known {known}")
    for h in (128, 256, 512):
        if census.get(h, -1) < int(np.sum(hs == h)):
            fail(0, f"order {h}: census {census.get(h)} below the batch table's count")

    head, rows = read_rows(calls[1]["output"])
    if head != ["p", "X", "empirical", "predicted", "abs_diff"] or [r[0] for r in rows] != ["3", "5"]:
        fail(1, f"clcompare header/rows {head} {rows}")
    for p, bound, emp, pred, diff in rows:
        emp, pred, diff = float(emp), float(pred), float(diff)
        if int(bound) != x or not 0 < emp < 1:
            fail(1, f"clcompare row {p}: bound {bound}, empirical {emp}")
        if abs(pred - product_oracle(int(p))) > 1e-6 or abs(diff - abs(emp - pred)) > 2e-6:
            fail(1, f"clcompare row {p}: predicted {pred}, abs_diff {diff}")


def check_scan(job, fail, rng):
    x, p, mask = job["x"], job["p"], job["scan_mask"]
    head, rows = read_rows(job["calls"][0]["output"])
    if head != ["x", "count_member", "count_ambient", "ratio"] or len(rows) != 1:
        fail(0, f"density header/rows {head} {rows}")
        return
    bound, member, ambient, ratio = rows[0]
    if (int(bound), int(ambient)) != (x, x) or int(member) != mask["count"]:
        fail(0, f"density row {rows[0]} against mask count {mask['count']}")
    if ratio != f"{int(member) / x:.6f}":
        fail(0, f"density ratio {ratio}")
    # criterion 14's predicate equivalence: the divisor walk, with every
    # structure computed afresh, against the sieve's marks
    for n, marked in zip(job["sample"], mask["sample"]):
        if density.has_suitable_divisor(n, p) != marked:
            fail(0, f"mask[{n}] = {marked} disagrees with the divisor walk")
    head, rows = read_rows(job["cache_path"])
    if head != ClassGroupCache.HEADER or not rows:
        fail(0, f"cache header/rows {head} {len(rows)}")
    for disc, h, factors in rows:
        fs = [int(t) for t in factors.split(";") if t]
        if math.prod(fs) != int(h) or any(b % a for a, b in zip(fs, fs[1:])):
            fail(0, f"cache row {disc},{h},{factors} is not a divisor chain of product h")
    for disc, h, _ in rng.sample(rows, min(40, len(rows))):
        if class_number(-int(disc)) != int(h):
            fail(0, f"cache row h({disc}) = {h}, trial division says otherwise")


def check_queries(job, fail, rng):
    for i, call in enumerate(job["calls"]):
        head, rows = read_rows(call["output"])
        args = call["args"]
        if call["kind"] == "classgroup":
            if head != ["disc", "h", "invariant_factors"] or len(rows) != 1:
                fail(i, f"classgroup header/rows {head} {rows}")
                continue
            disc, h, factors = rows[0]
            fs = [int(t) for t in factors.split(";") if t]
            if int(disc) != args["disc"] or class_number(-int(disc)) != int(h):
                fail(i, f"classgroup row {rows[0]}: h disagrees with trial division")
            if math.prod(fs) != int(h) or any(b % a for a, b in zip(fs, fs[1:])):
                fail(i, f"classgroup row {rows[0]}: not a divisor chain of product h")
        elif call["kind"] == "witness":
            h_disc = class_number(-args["disc"])
            if head != ["disc", "h", "p", "witness_prime", "coefficient_field_degree"]:
                fail(i, f"witness header {head}")
            if [(int(r[0]), int(r[2])) for r in rows] != [(args["disc"], p) for p in args["p"]]:
                fail(i, f"witness rows {rows}")
                continue
            for disc, h, p, ell, degree in rows:
                if h_disc % int(h) or int(h) % int(p) == 0:
                    fail(i, f"witness row {disc},{p}: order {h} vs h(D) = {h_disc}")
                if ell and not (is_prime(int(ell)) and int(ell) <= args["bound"] and int(degree) > 1):
                    fail(i, f"witness row {disc},{p}: witness {ell} of degree {degree}")
        else:
            h, p = args["h"], args["p"]
            if head != ["h", "p", "m", "trace_field_degree"] or len(rows) != 1:
                fail(i, f"traces header/rows {head} {rows}")
                continue
            m = next(k for k in range(1, h + 1) if pow(p, k, h) == 1 % h)
            degree = int(rows[0][3])
            if [int(t) for t in rows[0][:3]] != [h, p, m] or m % degree:
                fail(i, f"traces row {rows[0]}: expected m = {m}")
            # the sharp law: every trace lies in F_p iff p = +-1 mod h
            if (degree == 1) != (p % h in (1 % h, (-1) % h)):
                fail(i, f"traces row {rows[0]}: degree breaks the p = +-1 mod h law")


CHECKS = {"census": check_census, "scan": check_scan, "queries": check_queries}


def run_checks(job: dict) -> dict:
    failures = defaultdict(list)
    CHECKS[job["workload"]](
        job, lambda i, msg: failures[i].append(msg), random.Random(job["seed"])
    )
    return {"failures": failures}


def main() -> None:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    out = {
        "ready": READY,
        "env": {
            "backend": sweep.BACKEND,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if job["mode"] == "run":
        out.update(run_calls(job))
    elif job["mode"] == "check":
        out.update(run_checks(job))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
