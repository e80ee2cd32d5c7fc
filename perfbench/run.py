"""The quadclass benchmark: three workloads driven through the public CLI
entry point, with end-to-end metrics and a traced per-layer run.

Run from the root of a checkout (no install needed; ``src`` is put on
PYTHONPATH of every interpreter the benchmark starts):

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --smoke      # every workload, tiny

Each repetition runs in a fresh interpreter (perfbench/worker.py), so
module-level memos start empty as they do for a CLI user.  Repetitions
repeat until ``--seconds`` would be exceeded; timings are medians over
them.  Outputs are checked by independent routes in another fresh
interpreter, outside the timed region.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The line before it records the environment.  A failed
check makes the exit code 1.  See perfbench/README.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("census", "scan", "queries")
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 150  # every run must end well inside 180 s

SIZES = {
    "full": {"census": 4_000_000, "batch": 1_000_000, "scan": 100_000, "queries": 40},
    "smoke": {"census": 10_000, "batch": 5_000, "scan": 2_000, "queries": 2},
}

# ------------------------------------------------------------------ inputs


def is_fundamental(n: int) -> bool:
    """Whether -n is a fundamental discriminant (trial division)."""

    def squarefree(k):
        return all(k % (q * q) for q in range(2, math.isqrt(k) + 1))

    if n % 4 == 3:
        return squarefree(n)
    return n % 4 == 0 and (n // 4) % 4 in (1, 2) and squarefree(n // 4)


def banded(rng: random.Random, top: int, seed: int) -> int:
    """top for the default seed, else a bound up to 1% below it."""
    return top if seed == DEFAULT_SEED else top - rng.randrange(1, top // 100 + 1)


def class_number(n: int) -> int:
    """h(-n) for fundamental -n, by counting reduced forms."""
    h, b = 0, n % 2
    while 3 * b * b <= n:
        ac = (b * b + n) // 4
        for a in range(max(b, 1), math.isqrt(ac) + 1):
            if ac % a == 0:
                h += 1 if b in (0, a) or a * a == ac else 2
        b += 2
    return h


def first_fundamental(n: int, max_h: int | None = None) -> int:
    """The first fundamental -m with m >= n (and h(-m) <= max_h)."""
    while not is_fundamental(n) or (max_h is not None and class_number(n) > max_h):
        n += 1
    return -n


def make_workload(name: str, seed: int, size: dict) -> dict:
    """The CLI calls of one repetition, as (kind, argv, args) records.

    ``{cache}`` in an argv stands for a fresh cache path per repetition.
    """
    rng = random.Random(f"{name}:{seed}")
    calls = []
    if name == "census":
        x = banded(rng, size["census"], seed)
        calls.append(["census", ["census", "--max-abs-disc", str(x), "--orders", "1,2,3,128,256,512"], {}])
        calls.append(["clcompare", ["clcompare", "--p", "3", "--p", "5", "--bound", str(x)], {}])
        calls.append(["batch", ["batch", "--max-abs-disc", str(size["batch"])], {}])
        return {"calls": calls, "x": x, "batch": size["batch"]}
    if name == "scan":
        x = banded(rng, size["scan"], seed)
        calls.append(["density", ["--cache-path", "{cache}", "density", "--p", "2", "--bounds", str(x)], {}])
        return {"calls": calls, "x": x, "p": 2, "sample": sorted(rng.sample(range(1, x + 1), 60))}
    # queries: a fixed panel, one input at the start of each of k equal
    # strata per range, sent in seeded order.  Per-call costs are so
    # skewed (one field F_{5^306} takes 17 s) that seeded draws would
    # make every total a lottery.  Witness discriminants keep h <= 200,
    # so their coefficient fields stay in the range the traces calls
    # cover (h <= 200).
    k = size["queries"]
    for i in range(k):
        d = first_fundamental(10**6 + i * 10**6 // k)
        calls.append(["classgroup", ["classgroup", "--disc", str(d)], {"disc": d}])
        d = first_fundamental(10**4 + i * 9 * 10**4 // k, max_h=200)
        argv = ["witness", "--disc", str(d), "--p", "2", "--p", "3", "--p", "5", "--bound", "1000"]
        calls.append(["witness", argv, {"disc": d, "p": [2, 3, 5], "bound": 1000}])
        h = 3 + i * 200 // k
        primes = [q for q in (2, 3, 5, 7) if math.gcd(h, q) == 1]
        p = primes[i % len(primes)]
        calls.append(["traces", ["traces", "--orders", str(h), "--p", str(p)], {"h": h, "p": p}])
    rng.shuffle(calls)
    return {"calls": calls}


# ------------------------------------------------------------- processes


def spawn(job: dict, job_path: str, timeout: float) -> tuple[dict, float]:
    """Run one worker on job; returns its result and its set-up time."""
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    env = dict(os.environ)
    env.pop("QUADCLASS_CACHE", None)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), job_path],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, out["ready"] - t0


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_rep(work: dict, rep: int, trace: bool, with_mask: bool, timeout: float) -> dict:
    rep_dir = os.path.join(SCRATCH, f"rep{rep}")
    os.makedirs(rep_dir)
    cache_path = os.path.join(rep_dir, "cache.csv")
    outputs = [os.path.join(rep_dir, f"out{i}.csv") for i in range(len(work["calls"]))]
    argvs = [
        ["--workers", "1", "--output", out] + [cache_path if a == "{cache}" else a for a in argv]
        for out, (_, argv, _) in zip(outputs, work["calls"])
    ]
    job = {"mode": "run", "calls": argvs, "trace": trace}
    job["spans_path"] = os.path.join(rep_dir, "spans.json")
    if with_mask:
        job["scan_mask"] = {"p": work["p"], "x": work["x"], "cache_path": cache_path, "sample": work["sample"]}
    t0 = time.monotonic()
    out, setup = spawn(job, os.path.join(rep_dir, "job.json"), timeout)
    out.update(
        setup=setup,
        trace=trace,
        elapsed=time.monotonic() - t0,
        outputs=outputs,
        cache_path=cache_path,
        digests=[digest(p) if os.path.exists(p) else None for p in outputs],
        bytes_out=sum(os.path.getsize(p) for p in outputs if os.path.exists(p)),
    )
    if trace:
        with open(job["spans_path"]) as fh:
            out["layers"] = tracing.layer_metrics(json.load(fh))
    return out


def run_checks(name: str, seed: int, work: dict, rep: dict, timeout: float) -> dict:
    job = {k: v for k, v in work.items() if k != "calls"}
    job.update(mode="check", workload=name, seed=f"check:{seed}", cache_path=rep["cache_path"])
    job["calls"] = [
        {"kind": kind, "args": args, "output": out}
        for (kind, _, args), out in zip(work["calls"], rep["outputs"])
    ]
    job["scan_mask"] = rep.get("scan_mask")
    out, _ = spawn(job, os.path.join(SCRATCH, "check.json"), timeout)
    return {int(i): msgs for i, msgs in out["failures"].items()}


# ---------------------------------------------------------------- metrics


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def host_record() -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = size
    except OSError:
        pass
    rev = "unknown"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        rev = head
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "git_rev": rev,
        "QUADCLASS_NO_EXT": "QUADCLASS_NO_EXT" in os.environ,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    size = SIZES["smoke" if smoke else "full"]
    work = make_workload(name, seed, size)
    ncalls = len(work["calls"])
    start = time.monotonic()

    def remaining():
        return RUN_DEADLINE_S - (time.monotonic() - start)

    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            _, s = spawn({"mode": "setup"}, os.path.join(SCRATCH, "setup.json"), remaining())
            setups.append(s)
    reps = []
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(work, len(reps), traced, name == "scan" and not reps, remaining()))
        if len(reps) < (2 if trace else 1):
            continue
        next_traced = trace and len(reps) % 2 == 1
        next_s = max(r["elapsed"] for r in reps if r["trace"] == next_traced)
        if smoke or time.monotonic() - start + next_s > seconds:
            break

    failures = {(0, i): msgs for i, msgs in run_checks(name, seed, work, reps[0], remaining()).items()}
    first = reps[0]["digests"]
    for r, rep in enumerate(reps):
        for i, code in enumerate(rep["codes"]):
            if code != 0:
                failures.setdefault((r, i), []).append(f"exit {code}")
            elif r and rep["digests"][i] != first[i]:
                failures.setdefault((r, i), []).append("output differs from repetition 0")
    key = f"{'smoke' if smoke else 'full'}:{name}"
    if seed == DEFAULT_SEED and os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            expected = json.load(fh).get(key)
        for i, (got, want) in enumerate(zip(first, expected or [])):
            if got != want:
                failures.setdefault((0, i), []).append("output differs from the recorded default-seed digest")

    plain = [r for r in reps if not r["trace"]]
    walls = [sum(r["latencies"]) for r in plain]
    if trace:
        traced = [r["layers"] for r in reps if r["trace"]]
        metrics = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        metrics["cli.bytes_out"] = statistics.median(r["bytes_out"] for r in plain)
        for kind in ("classgroup", "witness", "traces"):
            lat = [
                r["latencies"][i] * 1e3
                for r in plain
                for i, call in enumerate(work["calls"])
                if call[0] == kind
            ]
            metrics[f"queries.{kind}_p50_ms"] = percentile(lat, 50) if lat else 0.0
            metrics[f"queries.{kind}_p75_ms"] = percentile(lat, 75) if lat else 0.0
        metrics["trace.wall_s"] = statistics.median(sum(r["latencies"]) for r in reps if r["trace"])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
    else:
        lat = [t * 1e3 for r in plain for t in r["latencies"]]
        metrics = {
            "setup_s": statistics.median(setups + [r["setup"] for r in reps]),
            "wall_s": statistics.median(walls),
            "query_p50_ms": percentile(lat, 50),
            "query_p90_ms": percentile(lat, 90),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in plain) / 1024,
            "success_rate": 1 - len(failures) / (ncalls * len(reps)),
        }
    return {
        "workload": name,
        "seed": seed,
        "reps": len(reps),
        "failures": failures,
        "attempted": ncalls * len(reps),
        "metrics": metrics,
        "env": dict(host_record(), **reps[0]["env"]),
        "digests": first,
        "digest_key": key,
    }


UNITS = {"peak_rss_mb": "MB", "success_rate": "ratio"}


def unit_of(metric: str) -> str:
    leaf = metric.rsplit(".", 1)[-1]
    if leaf in UNITS:
        return UNITS[leaf]
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio")):
        if leaf.endswith(suffix):
            return unit
    return "B" if leaf.startswith("bytes") else "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one repetition")
    ap.add_argument(
        "--record-digests",
        action="store_true",
        help="store this run's output digests as the default-seed reference",
    )
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quadclass", "cli.py")):
        print(f"perfbench: no quadclass sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        for name in names:
            os.makedirs(SCRATCH)
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke))
            shutil.rmtree(SCRATCH)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    if args.record_digests:
        recorded = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS) as fh:
                recorded = json.load(fh)
        recorded.update({r["digest_key"]: r["digests"] for r in results})
        with open(DIGESTS, "w") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")

    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        for k, v in r["metrics"].items():
            metrics[prefix + k] = {"value": v, "unit": unit_of(k)}
        for where, msgs in r["failures"].items():
            print(f"perfbench: {r['workload']} call {where}: {'; '.join(msgs)}", file=sys.stderr)
        print(json.dumps({k: r[k] for k in ("workload", "seed", "reps", "env")}))
    failed = sum(len(r["failures"]) for r in results)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
