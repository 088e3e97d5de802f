"""Command-line front end.

Subcommands: eval (single valuation, optionally explained), scan
(divisibility/oddness range scans), verify (formula-vs-oracle grid with
branch coverage), table (per-n valuation tables).

Exit codes: 0 ok; 1 formula/oracle mismatch or integrity failure; 2 usage;
3 eval disagreement under --method both; 4 branch-coverage gap.  When the
reader closes stdout early (as ``| head`` does), the rest of the output is
dropped.  If the command has returned by then, with its output still
buffered (a short verify report, say), it exits with its own code; if the
pipe breaks while the command itself still writes (a long table), it exits
0, as it has no code of its own yet.

The library checks every value it is given (every ValueError it raises
exits 2), so the commands check only what it cannot: flag presence, the
N_MAX_CAP row cap of a scan or table (with its index cap, before the first
row), and a prime --p under scan --predicate odd_fibonomial, which never
hands p to the prime gate.  verify rejects a grid whose sweeps ask for too
many cells before the first; eval computes each value before printing any.

Each command's flags are declared once, in ``_COMMANDS``.  A well-formed
argv is read from that table without argparse: a command name, then exact
flags of that command, each valued one followed by a value that does not
begin with "-", converts by the flag's type and is one of its choices, if it
has any, and every required flag given (the last of a repeated flag wins, as
in argparse).  Any other argv (help, no command or an unknown one, an
abbreviated flag, ``--p=5``, a negative value, a bad or missing value) goes
to the argparse parser built from the same table, which gives the same
namespace, message and exit code as always.  argparse is imported and the
parser built only then, once per process.

table reads its rows from ``formulas.nu_central_rows``, which runs the
prime and index gates once, when it is called, so a bad --p fails before
the first write and no row passes the gates again.  It writes the rows one
at a time as they are computed, so its memory does not grow with --n-max.
A row is one f-string, in the layout of json.dumps(rows, indent=2) or of
one csv.writer pass, its branch label's JSON or CSV text computed once per
label.

The verify module (and with it ``dataclasses`` and ``inspect``) loads with
its command, inside cmd_verify: the parser and main() read its default and
exit code from ``oracle``, so eval, scan and table start without it.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

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
    nu_central_rows,
    nu_fibonomial_formula,
)
from .oracle import (
    EXIT_MISMATCH,
    INDEX_CAP_DEFAULT,
    OracleTier,
    nu_fibonomial_oracle,
    reach,
)

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DISAGREEMENT = 3

N_MAX_CAP = 10**5  # most rows of a scan or table, which bounds the time one command takes


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
        tier = OracleTier.EXACT if m_index <= reach(OracleTier.EXACT) else OracleTier.MODULAR
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
    p, a, predicate = args.p, args.a, args.predicate
    if predicate == "odd_fibonomial":
        require_prime(p)  # for p != 2 it evaluates at the prime 2 only
    _check_range(args)  # otherwise the first row's rank gate rejects a bad p
    cofactors = range(1, args.n_max + 1)
    if predicate == "odd_fibonomial":
        hits = [n for n in cofactors if _odd_fibonomial(p, a, n)]
    else:
        keep = predicate == "divisible"
        hits = [n for n in cofactors if divides_p_central(p, a, n)[0] == keep]
    if args.format == "json":
        print(json.dumps(hits))
    else:
        sys.stdout.write("".join(f"{n}\n" for n in hits))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import VerifyConfig, run_verify

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


# a branch label's JSON and CSV texts; labels are the closed set in formulas.BRANCH_REACH
_json_label = functools.cache(json.dumps)


@functools.cache
def _csv_label(label: str) -> str:
    """label as csv.writer writes it as a field of a row, quoted only where the writer quotes."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["", label])
    return buf.getvalue()[1:-1]


def cmd_table(args: argparse.Namespace) -> int:
    """Write the rows as they are computed, in the bytes of one
    json.dumps(rows, indent=2) or one csv.writer pass over all rows."""
    _check_range(args)
    p, a = args.p, args.a
    rows = enumerate(nu_central_rows(p, a, args.n_max), 1)  # gates run here, before any output
    if args.format == "json":
        write = sys.stdout.write
        sep = "[\n"
        for n, (val, trace) in rows:  # one row of the dump, keyed p, a, n, nu, branch
            write(f'{sep}  {{\n    "p": {p},\n    "a": {a},\n    "n": {n},\n    "nu": {val.value},'
                  f'\n    "branch": {_json_label(trace.branch_label)}\n  }}')
            sep = ",\n"
        write("\n]\n")
    else:
        write = sys.stdout.write
        write("p,a,n,nu,branch\n")
        for n, (val, trace) in rows:  # the ints need no quoting; the label's text is cached
            write(f"{p},{a},{n},{val.value},{_csv_label(trace.branch_label)}\n")
    return EXIT_OK


class _Flag(NamedTuple):
    """One flag of a command, in the terms of argparse's add_argument.  The
    type bool marks a switch (store_true); every other flag takes one value."""
    dest: str
    type: type = int
    choices: tuple[str, ...] | None = None
    default: object = None
    required: bool = False
    help: str | None = None


# Every command: its function, its help line and its flags by name.  The
# reader and the argparse tree are both built from this table.
_COMMANDS = {
    "eval": (cmd_eval, "evaluate one valuation", {
        "--p": _Flag("p", required=True, help="prime"),
        "--a": _Flag("a", help="exponent in the central form (p^a*n, n)"),
        "--n": _Flag("n", help="cofactor in the central form"),
        "--m": _Flag("m", help="upper index in the general form (m, k)"),
        "--k": _Flag("k", help="lower index in the general form"),
        "--method": _Flag("method", str, ("formula", "oracle", "both"), "formula"),
        "--explain": _Flag("explain", bool, default=False, help="print the branch trace"),
    }),
    "scan": (cmd_scan, "list n <= n-max satisfying a predicate", {
        "--p": _Flag("p", required=True),
        "--a": _Flag("a", required=True),
        "--n-max": _Flag("n_max", required=True),
        "--predicate": _Flag("predicate", str, ("divisible", "not_divisible", "odd_fibonomial"),
                             required=True),
        "--format": _Flag("format", str, ("lines", "json"), "lines"),
    }),
    "verify": (cmd_verify, "run the formula-vs-oracle grid", {
        "--p-set": _Flag("p_set", str, required=True,
                         help="comma-separated primes, e.g. 2,3,5,7"),
        "--a-max": _Flag("a_max", required=True),
        "--n-max": _Flag("n_max", required=True),
        "--index-cap": _Flag("index_cap", default=INDEX_CAP_DEFAULT,
                             help="skip cells with p^a*n beyond this (default %(default)s)"),
        "--tier": _Flag("tier", str, ("exact", "modular"), "modular",
                        help="oracle tier for the central grid (sweeps always use modular)"),
    }),
    "table": (cmd_table, "emit p,a,n,nu,branch rows", {
        "--p": _Flag("p", required=True),
        "--a": _Flag("a", required=True),
        "--n-max": _Flag("n_max", required=True),
        "--format": _Flag("format", str, ("csv", "json"), "csv"),
    }),
}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a well-formed command, with the same
    attributes less command, or None for an argv argparse must judge."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, flags = _COMMANDS[argv[0]]
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag = flags.get(token)
        if flag is None:
            return None
        if flag.type is bool:
            values[flag.dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = flag.type(value)
        except ValueError:
            return None
        if flag.choices is not None and value not in flag.choices:
            return None
        values[flag.dest] = value
    for flag in flags.values():
        if flag.dest not in values:
            if flag.required:
                return None
            values[flag.dest] = flag.default
    return SimpleNamespace(**values, func=func)


# parse_args leaves a parser as it was, so one tree serves every call.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="fibval",
        description="p-adic valuations of Fibonomial coefficients: closed forms, "
                    "brute-force cross-checks, scans and tables.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for option, flag in flags.items():
            if flag.type is bool:
                command.add_argument(option, action="store_true", dest=flag.dest,
                                     help=flag.help)
            else:
                command.add_argument(option, **flag._asdict())
        command.set_defaults(func=func)
    return parser


def _parse_argv(argv: list[str]) -> argparse.Namespace | SimpleNamespace:
    """_parser().parse_args(argv), run only for an argv the reader turns
    down; what the reader takes lacks the command attribute, which nothing reads."""
    args = _read_argv(argv)
    return _parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    code = EXIT_OK  # kept if the pipe breaks before the command returns
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows here, not in the interpreter's exit
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormulaIntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except BrokenPipeError:
        # the reader has gone: what is left to write goes to devnull, so that
        # the interpreter's final flush of stdout raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
