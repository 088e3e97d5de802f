"""Command-line front end.

Subcommands: eval (single valuation, optionally explained), scan
(divisibility/oddness range scans), verify (formula-vs-oracle grid with
branch coverage), table (per-n valuation tables).

Exit codes: 0 ok; 1 formula/oracle mismatch or integrity failure; 2 usage;
3 eval disagreement under --method both; 4 branch-coverage gap.

The library checks every value it is given (every ValueError it raises
exits 2), so the commands check only what it cannot: flag presence, the
N_MAX_CAP row cap of a scan or table (with its index cap, before the first
row), and a prime --p under scan --predicate odd_fibonomial, which never
hands p to the prime gate.  verify rejects a grid whose sweeps ask for too
many cells before the first; eval computes each value before printing any.

The parser is built once per process, on the first main() call, so an
in-process caller pays for argparse setup once.  table writes its rows one
at a time as they are computed (JSON from one fixed row template), so its
memory does not grow with --n-max.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import sys
from collections.abc import Iterator

from .arith import FormulaIntegrityError, require_prime
from .formulas import (
    BranchTrace,
    check_index,
    is_odd_2n,
    is_odd_4n,
    is_odd_8n,
    divides_p_central,
    nu2_central,
    nu_central,
    nu_fibonomial_formula,
)
from .oracle import OracleTier, exact_cap, nu_fibonomial_oracle
from .verify import VerifyConfig, run_verify

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DISAGREEMENT = 3
EXIT_COVERAGE = 4

N_MAX_CAP = 10**5  # most rows of a scan or table, which bounds the time one command takes


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibval",
        description="p-adic valuations of Fibonomial coefficients: closed forms, "
                    "brute-force cross-checks, scans and tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate one valuation")
    ev.add_argument("--p", type=int, required=True, help="prime")
    ev.add_argument("--a", type=int, help="exponent in the central form (p^a*n, n)")
    ev.add_argument("--n", type=int, help="cofactor in the central form")
    ev.add_argument("--m", type=int, help="upper index in the general form (m, k)")
    ev.add_argument("--k", type=int, help="lower index in the general form")
    ev.add_argument("--method", choices=["formula", "oracle", "both"], default="formula")
    ev.add_argument("--explain", action="store_true", help="print the branch trace")
    ev.set_defaults(func=cmd_eval)

    sc = sub.add_parser("scan", help="list n <= n-max satisfying a predicate")
    sc.add_argument("--p", type=int, required=True)
    sc.add_argument("--a", type=int, required=True)
    sc.add_argument("--n-max", type=int, required=True, dest="n_max")
    sc.add_argument("--predicate", required=True,
                    choices=["divisible", "not_divisible", "odd_fibonomial"])
    sc.add_argument("--format", choices=["lines", "json"], default="lines")
    sc.set_defaults(func=cmd_scan)

    ve = sub.add_parser("verify", help="run the formula-vs-oracle grid")
    ve.add_argument("--p-set", required=True, dest="p_set",
                    help="comma-separated primes, e.g. 2,3,5,7")
    ve.add_argument("--a-max", type=int, required=True, dest="a_max")
    ve.add_argument("--n-max", type=int, required=True, dest="n_max")
    ve.add_argument("--index-cap", type=int, default=10**5, dest="index_cap",
                    help="skip cells with p^a*n beyond this (default 100000)")
    ve.add_argument("--tier", choices=["exact", "modular"], default="modular",
                    help="oracle tier for the central grid (sweeps always use modular)")
    ve.set_defaults(func=cmd_verify)

    ta = sub.add_parser("table", help="emit p,a,n,nu,branch rows")
    ta.add_argument("--p", type=int, required=True)
    ta.add_argument("--a", type=int, required=True)
    ta.add_argument("--n-max", type=int, required=True, dest="n_max")
    ta.add_argument("--format", choices=["csv", "json"], default="csv")
    ta.set_defaults(func=cmd_table)
    return parser


def _check_range(args: argparse.Namespace) -> None:
    """Bound the rows of a scan or table before the first one is computed."""
    if args.n_max > N_MAX_CAP:
        raise ValueError(f"--n-max {args.n_max} exceeds the cap {N_MAX_CAP}")
    check_index(args.p, args.a, args.n_max)


_TRACE_FIELDS = BranchTrace._fields[2:]  # every field after theorem and branch_label


def cmd_eval(args: argparse.Namespace) -> int:
    central = args.a is not None or args.n is not None
    general = args.m is not None or args.k is not None
    if central == general:
        raise ValueError("give either --a/--n (central form) or --m/--k (general form)")
    if central:
        if args.a is None or args.n is None:
            raise ValueError("central form needs both --a and --n")
        m_index, k_index = check_index(args.p, args.a, args.n), args.n
    else:
        if args.m is None or args.k is None:
            raise ValueError("general form needs both --m and --k")
        m_index, k_index = args.m, args.k

    # both values are computed before anything is printed, so an error leaves no output
    use_formula, use_oracle = args.method != "oracle", args.method != "formula"
    if use_formula:
        if central:
            val, trace = nu_central(args.p, args.a, args.n)
        else:
            val, trace = nu_fibonomial_formula(args.p, args.m, args.k)
        formula_value = val.value
    if use_oracle:
        tier = OracleTier.EXACT if m_index <= exact_cap() else OracleTier.MODULAR
        oracle_value = nu_fibonomial_oracle(args.p, m_index, k_index, tier).value

    if use_formula:
        print(f"nu (formula) = {formula_value}")
        if args.explain:
            print(f"theorem = {trace.theorem.value}")
            print(f"branch = {trace.describe()}")
            for name in _TRACE_FIELDS:
                field = getattr(trace, name)
                if field is not None:
                    print(f"{name} = {field}")
    if use_oracle:
        print(f"nu (oracle/{tier.value}) = {oracle_value}")

    if args.method == "both":
        if formula_value == oracle_value:
            print("agreement: ok")
        else:
            print("agreement: MISMATCH")
            return EXIT_DISAGREEMENT
    return EXIT_OK


def _odd_fibonomial(p: int, a: int, n: int) -> bool:
    if p == 2:
        if a == 1:
            return is_odd_2n(n)
        if a == 2:
            return is_odd_4n(n)
        if a == 3:
            return is_odd_8n(n)
        return nu2_central(a, n)[0].value == 0
    return nu_fibonomial_formula(2, p**a * n, n)[0].value == 0


def cmd_scan(args: argparse.Namespace) -> int:
    if args.predicate == "odd_fibonomial":
        require_prime(args.p)  # for p != 2 it evaluates at the prime 2 only
    _check_range(args)  # otherwise the first row's rank gate rejects a bad p
    hits = []
    for n in range(1, args.n_max + 1):
        if args.predicate == "odd_fibonomial":
            keep = _odd_fibonomial(args.p, args.a, n)
        else:
            divisible = divides_p_central(args.p, args.a, n)[0]
            keep = divisible if args.predicate == "divisible" else not divisible
        if keep:
            hits.append(n)
    if args.format == "json":
        print(json.dumps(hits))
    else:
        for n in hits:
            print(n)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        primes = tuple(int(tok) for tok in args.p_set.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"bad --p-set: {exc}") from exc
    config = VerifyConfig(primes=primes, a_max=args.a_max, n_max=args.n_max,
                          index_cap=args.index_cap,
                          tier=OracleTier(args.tier))
    report = run_verify(config)
    print(report.to_json())
    print(f"checked {report.cells_checked} cells: {len(report.mismatches)} mismatches, "
          f"{len(report.uncovered)} uncovered branches "
          f"[{report.elapsed_seconds:.1f}s]", file=sys.stderr)
    return report.exit_code


def _table_rows(args: argparse.Namespace) -> Iterator[tuple[int, int, int, int, str]]:
    for n in range(1, args.n_max + 1):
        val, trace = nu_central(args.p, args.a, n)
        yield args.p, args.a, n, val.value, trace.branch_label


# one row of json.dumps(rows, indent=2), the row dict keyed p, a, n, nu, branch
_JSON_ROW = '  {{\n    "p": {},\n    "a": {},\n    "n": {},\n    "nu": {},\n    "branch": {}\n  }}'


def cmd_table(args: argparse.Namespace) -> int:
    """Write the rows as they are computed, in the bytes of one
    json.dumps(rows, indent=2) or one csv.writer pass over all rows."""
    _check_range(args)
    rows = _table_rows(args)
    rows = itertools.chain([next(rows)], rows)  # a bad prime fails here, before any output
    if args.format == "json":
        sep = "[\n"
        for p, a, n, nu, branch in rows:
            sys.stdout.write(sep + _JSON_ROW.format(p, a, n, nu, json.dumps(branch)))
            sep = ",\n"
        sys.stdout.write("\n]\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["p", "a", "n", "nu", "branch"])
        writer.writerows(rows)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormulaIntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
