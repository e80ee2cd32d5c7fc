"""Command-line surface: scans, single queries, CSV/JSON emission.

Every subcommand computes rows in a canonical order (ascending |D|,
ascending prime) and emits them as CSV (default) or as a JSON array of
objects keyed by the CSV header, so fixed inputs give byte-identical
output regardless of worker count.  Rows are written to --output or
stdout as they are formatted (JSON 4096 rows at a time), never held as
a second copy of the whole output.  Every
bad input, whether argparse or a subcommand refuses it, exits 2 with
one line ``quadclass: error: <msg>`` on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from fractions import Fraction
from itertools import islice

from . import cohen_lenstra, density, dihedral
from .abelian import AbelianGroup, is_p_suitable
from .forms import ClassGroupCache, class_group
from .ntheory import is_prime, multiplicative_order
from .sweep import ResourceLimitError, batch_class_numbers, check_budget

#: Environment variable naming the class-group cache when --cache-path
#: is not given; the CLI is the only reader of the environment.
CACHE_ENV = "QUADCLASS_CACHE"

#: Largest order traces takes.  Its rows factor h and phi(h) by trial
#: division, whose cost grows as sqrt(h); the slowest order measured
#: near the cap, 999999999959 (phi(h)/2 prime), answers in 0.18 s.
MAX_TRACE_ORDER = 10**12


def _emit(headers: list[str], rows, args) -> int:
    """Write rows (any iterable) to --output or stdout as they come; the
    JSON array is laid out as json.dumps(..., indent=2) lays it out."""
    with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as fh:
        if args.format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(headers)
            writer.writerows(rows)
        else:
            # json.dumps of 4096 rows at a time, less its "[\n" and "\n]"
            rows, sep = iter(rows), "[\n"
            while chunk := list(islice(rows, 4096)):
                fh.write(sep + json.dumps([dict(zip(headers, r)) for r in chunk], indent=2)[2:-2])
                sep = ",\n"
            fh.write("[]\n" if sep == "[\n" else "\n]\n")
    return 0


def _ratio_cell(r: Fraction) -> str:
    return f"{float(r):.6f}"


def _cache(args) -> ClassGroupCache:
    return ClassGroupCache(args.cache_path or os.environ.get(CACHE_ENV))


# ------------------------------------------------------------- subcommands


def _cmd_classgroup(args) -> int:
    rows = []
    for disc in args.disc:
        record = class_group(disc)
        rows.append([record.disc, record.class_number, record.factors_string()])
    rows.sort(key=lambda r: -r[0])
    return _emit(["disc", "h", "invariant_factors"], rows, args)


def _cmd_batch(args) -> int:
    ns, hs = batch_class_numbers(args.max_abs_disc, workers=args.workers)
    return _emit(["disc", "h"], zip((-ns).tolist(), hs.tolist()), args)


def _cmd_census(args) -> int:
    out = density.class_order_census(
        args.max_abs_disc, args.orders, workers=args.workers, budget=args.budget
    )
    rows = [[h, out[h]] for h in sorted(out)]
    return _emit(["order", "count"], rows, args)


def _cmd_exp3scan(args) -> int:
    records = density.exponent3_scan(args.max_abs_disc, workers=args.workers)
    rows = [[r.disc, r.class_number, r.factors_string()] for r in records]
    return _emit(["disc", "h", "invariant_factors"], rows, args)


def _cmd_suitable(args) -> int:
    cache = _cache(args)
    rows = []
    for disc in args.disc:
        h, factors = cache.get(disc)
        structure = AbelianGroup(factors)
        for p in args.p:
            report = is_p_suitable(structure, p)
            rows.append(
                [
                    disc,
                    h,
                    p,
                    int(report.suitable),
                    report.witness_h if report.witness_h is not None else "",
                ]
            )
    rows.sort(key=lambda r: (-r[0], r[2]))
    cache.save()
    return _emit(["disc", "h", "p", "suitable", "witness_h"], rows, args)


def _cmd_witness(args) -> int:
    rows = []
    for disc in args.disc:
        record = class_group(disc)
        for p in args.p:
            h = dihedral.witness_order(record.structure, p)
            found = dihedral.find_witness(record, p, args.bound)
            if isinstance(found, dihedral.NotFoundUpToBound):
                rows.append([record.disc, h, p, "", ""])
            else:
                ell, coeff = found
                degree = dihedral.reduce_coefficient(coeff, p).field_degree()
                rows.append([record.disc, h, p, ell, degree])
    rows.sort(key=lambda r: (-r[0], r[2]))
    return _emit(
        ["disc", "h", "p", "witness_prime", "coefficient_field_degree"], rows, args
    )


def _cmd_traces(args) -> int:
    for h in args.orders_list:
        if h < 1:
            raise ValueError("orders must be >= 1")
        check_budget("h", h, MAX_TRACE_ORDER, "trace-order")
    rows = []
    for h in args.orders_list:
        for p in args.p:
            if math.gcd(h, p) != 1:
                continue
            # zeta + 1/zeta generates every trace zeta^k + zeta^-k (and 0, 2)
            t = dihedral.reduce_coefficient(dihedral.SplitCoefficient(1, h), p)
            rows.append([h, p, multiplicative_order(p, h), t.field_degree()])
    rows.sort(key=lambda r: (r[0], r[1]))
    return _emit(["h", "p", "m", "trace_field_degree"], rows, args)


def _cmd_density(args) -> int:
    if len(args.p) != 1:
        raise ValueError("density takes exactly one --p")
    cache = _cache(args)
    rows = []
    for X in args.bounds_list:
        est = density.suitable_divisor_density(
            args.p[0], X, workers=args.workers, cache=cache
        )
        rows.append(
            [X, est.count_member, est.count_ambient, _ratio_cell(est.ratio)]
        )
    cache.save()
    return _emit(["x", "count_member", "count_ambient", "ratio"], rows, args)


def _cmd_landau(args) -> int:
    table = density.landau_count(args.bound, args.modulus, args.residues)
    rows = [[x, m] for x, m in table.samples]
    return _emit(["x", "count"], rows, args)


def _cmd_clweights(args) -> int:
    S = set(args.skip_primes_list)
    rows = []
    for x in args.bounds_list:
        w = cohen_lenstra.weighted_sum_coprime(S, x)
        lb = cohen_lenstra.prime_reciprocal_sum(S, x)
        rows.append([x, f"{float(w):.6f}", f"{float(lb):.6f}"])
    return _emit(["x", "weighted_sum", "lower_bound"], rows, args)


def _cmd_clcompare(args) -> int:
    rows = []
    for p in args.p:
        cmp = cohen_lenstra.empirical_cl_comparison(p, args.bound, workers=args.workers)
        rows.append(
            [
                p,
                args.bound,
                f"{float(cmp.empirical):.6f}",
                f"{cmp.predicted:.6f}",
                f"{cmp.abs_diff:.6f}",
            ]
        )
    rows.sort(key=lambda r: r[0])
    return _emit(["p", "X", "empirical", "predicted", "abs_diff"], rows, args)


# ------------------------------------------------------------------ parsing


def _int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subparsers, whose errors
    are one stderr line and exit 2, without the usage block."""

    def error(self, message):
        print(f"quadclass: error: {message}", file=sys.stderr)
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadclass",
        description="Class groups of imaginary quadratic fields, dihedral "
        "eigenform coefficients, and density scans.",
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", help="write to this path instead of stdout")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--cache-path",
        help=f"class-group cache CSV (default from ${CACHE_ENV})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("classgroup", _cmd_classgroup, "class group of one or more discriminants")
    p.add_argument("--disc", type=int, action="append", required=True)

    p = add("batch", _cmd_batch, "class numbers of all fundamental |D| <= X")
    p.add_argument("--max-abs-disc", type=int, required=True)

    p = add("census", _cmd_census, "count fundamental |D| < X per class number")
    p.add_argument("--max-abs-disc", type=int, required=True)
    p.add_argument("--orders", type=_int_list, required=True, help="comma-separated class numbers")
    p.add_argument("--budget", type=int, help="override the class-data budget")

    p = add("exp3scan", _cmd_exp3scan, "fundamental |D| <= X with exponent-3 class group")
    p.add_argument("--max-abs-disc", type=int, required=True)

    p = add("suitable", _cmd_suitable, "p-suitability reports per discriminant")
    p.add_argument("--disc", type=int, action="append", required=True)
    p.add_argument("--p", type=int, action="append", required=True)

    p = add("witness", _cmd_witness, "search for a non-prime-field coefficient")
    p.add_argument("--disc", type=int, action="append", required=True)
    p.add_argument("--p", type=int, action="append", required=True)
    p.add_argument("--bound", type=int, default=1000)

    p = add("traces", _cmd_traces, "dihedral trace-set field degrees per (h, p)")
    p.add_argument("--orders", dest="orders_list", type=_int_list, required=True)
    p.add_argument("--p", type=int, action="append", required=True)

    p = add("density", _cmd_density, "suitable-divisor density at one or more bounds")
    p.add_argument("--p", type=int, action="append", required=True)
    p.add_argument("--bounds", dest="bounds_list", type=_int_list, required=True)

    p = add("landau", _cmd_landau, "count integers with prime factors in residue classes")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--residues", type=_int_list, default=[], help="comma-separated residues")

    p = add("clweights", _cmd_clweights, "weighted group sums vs the prime lower bound")
    p.add_argument(
        "--skip-primes", dest="skip_primes_list", type=_int_list, required=True
    )
    p.add_argument("--bounds", dest="bounds_list", type=_int_list, required=True)

    p = add("clcompare", _cmd_clcompare, "empirical p-divisibility vs the product oracle")
    p.add_argument("--p", type=int, action="append", required=True)
    p.add_argument("--bound", type=int, required=True)

    return parser


def _check_args(args) -> None:
    """Reject values argparse accepts as ints but no subcommand can use."""
    if args.workers < 1:
        raise ValueError("workers must be >= 1")
    if not all(is_prime(p) for p in getattr(args, "p", ())):
        raise ValueError("p must be prime")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building one costs about forty times
    as much as a parse."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_args(args)
        return args.fn(args)
    except (ResourceLimitError, ValueError, OSError) as exc:
        print(f"quadclass: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
