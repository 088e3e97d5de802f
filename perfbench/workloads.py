"""The benchmark's workloads: seeded inputs, one timed pass, and the output check.

Every workload is a closed loop with one caller.  A pass runs the whole
workload once on cold program caches (``clear_caches`` runs before it),
because every ``fibval`` CLI invocation pays them.  A pass returns its
output and the latency in nanoseconds of each user-facing operation it
made; ``check`` then runs outside the timed region and returns how many
operations were attempted and how many failed.  Inputs depend only on the
seed, so every pass of a run replays the same inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import time
import traceback
from array import array
from dataclasses import dataclass
from typing import Any, Callable

from fibval import cli, formulas, oracle, rank, verify
from fibval.arith import FormulaIntegrityError
from fibval.oracle import OracleTier

clock = time.perf_counter_ns


def clear_caches() -> None:
    """Drop every program-level cache, as a fresh ``fibval`` process has none."""
    rank.clear_cache()
    oracle.clear_caches()


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], Any]
    run_pass: Callable[[Any], tuple[Any, array]]
    check: Callable[[Any, Any], tuple[int, int]]


def _is_prime_small(n: int) -> bool:
    # Trial division; the benchmark picks its primes without the code under test.
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# verify_grid: run_verify on the acceptance-grid shape.  The acceptance grid
# itself runs to index 1e5; 5e3 keeps a pass near half a second, so that a
# run holds many passes.  The operation is one checked cell; every cell,
# central or sweep, starts with exactly one call to the oracle, so the gap
# between consecutive oracle calls is one cell.

GRID = verify.VerifyConfig(primes=(2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31),
                           a_max=4, n_max=5_000, index_cap=5_000)
GRID_CELLS = 19_984  # cells_checked of GRID, central grid plus both sweeps


def grid_inputs(seed: int) -> verify.VerifyConfig:
    return GRID  # deterministic; the seed is ignored


def grid_pass(config: verify.VerifyConfig) -> tuple[verify.VerifyReport, array]:
    marks = array("q")
    inner = verify.nu_fibonomial_oracle

    def probe(*args, **kwargs):
        marks.append(clock())
        return inner(*args, **kwargs)

    verify.nu_fibonomial_oracle = probe
    try:
        report = verify.run_verify(config)
    finally:
        verify.nu_fibonomial_oracle = inner
    marks.append(clock())
    return report, array("q", (marks[i + 1] - marks[i] for i in range(len(marks) - 1)))


def grid_check(config: verify.VerifyConfig, report: verify.VerifyReport) -> tuple[int, int]:
    if report.uncovered or report.cells_checked != GRID_CELLS:
        return GRID_CELLS, GRID_CELLS
    return GRID_CELLS, len(report.mismatches)


# ---------------------------------------------------------------------------
# scan_cli: a seeded stream of in-process `fibval scan` and `fibval table`
# commands.  Each big prime in [1e5, 1e6] has one cold command, which pays
# its O(p) rank scan, and then SCAN_REPEATS warm ones; primes below 1000
# repeat throughout.  The design is balanced so that the figures vary little
# from seed to seed: one big prime per stratum, each of maximal rank so that
# its cold scan costs a fixed multiple of p, and every command shape and
# n-max used equally often.  The seed draws the primes and the order.

SCAN_COMMANDS = 1000
SCAN_BIG_PRIMES = 20
SCAN_REPEATS = 5
SCAN_BIG = (10**5, 10**6)
SCAN_SMALL_PRIMES = tuple(p for p in range(2, 1000) if _is_prime_small(p))
SCAN_N_MAX = tuple(range(4, 21))
SCAN_SHAPES = tuple(  # half scans, half tables
    [("scan", predicate, fmt) for predicate in ("divisible", "not_divisible", "odd_fibonomial")
     for fmt in ("lines", "json")]
    + [("table", None, fmt) for fmt in ("csv", "json")] * 3)
SCAN_ORACLE_INDEX = 1000  # rows with p^a*n up to this are also checked by tier B


def _fib_mod(n: int, modulus: int) -> int:
    a, b = 0, 1
    for bit in bin(n)[2:]:
        c, d = a * (2 * b - a) % modulus, (a * a + b * b) % modulus
        a, b = (d, (c + d) % modulus) if bit == "1" else (c, d)
    return a


def _prime_factors(n: int) -> set[int]:
    factors, f = set(), 2
    while f * f <= n:
        while n % f == 0:
            factors.add(f)
            n //= f
        f += 1
    if n > 1:
        factors.add(n)
    return factors


def has_maximal_rank(p: int) -> bool:
    """True iff the first Fibonacci number divisible by p (p prime, not 2
    or 5) is F_(p-1) or F_(p+1), the largest its rank can be."""
    e = p - 1 if p % 5 in (1, 4) else p + 1
    return all(_fib_mod(e // q, p) for q in _prime_factors(e))


def _big_primes(rng: random.Random) -> list[int]:
    lo, hi = SCAN_BIG
    width = (hi - lo) // SCAN_BIG_PRIMES
    primes = []
    for i in range(SCAN_BIG_PRIMES):
        p = lo + i * width + rng.randrange(width)
        while not (_is_prime_small(p) and has_maximal_rank(p)):
            p += 1
        primes.append(p)
    return primes


def _balanced(rng: random.Random, values, count: int) -> list:
    """``count`` values, each of ``values`` used equally often (to within one), shuffled."""
    values = list(values)
    rng.shuffle(values)
    chosen = [values[i % len(values)] for i in range(count)]
    rng.shuffle(chosen)
    return chosen


def scan_inputs(seed: int) -> list[list[str]]:
    rng = random.Random(f"scan_cli:{seed}")
    big = _big_primes(rng) * (1 + SCAN_REPEATS)
    primes = big + _balanced(rng, SCAN_SMALL_PRIMES, SCAN_COMMANDS - len(big))
    rng.shuffle(primes)
    shapes = _balanced(rng, SCAN_SHAPES, SCAN_COMMANDS)
    n_maxes = _balanced(rng, SCAN_N_MAX, SCAN_COMMANDS)
    commands = []
    for p, (kind, predicate, fmt), n_max in zip(primes, shapes, n_maxes):
        a_top = 4 if p < 1000 else 2  # keeps p^a * n_max far below the 2^63 index cap
        argv = [kind, "--p", str(p), "--a", str(rng.randint(1, a_top)), "--n-max", str(n_max)]
        if predicate:
            argv += ["--predicate", predicate]
        commands.append(argv + ["--format", fmt])
    return commands


def scan_pass(commands: list[list[str]]) -> tuple[list[tuple[int | None, str]], array]:
    lat = array("q")
    results = []
    main = cli.main  # looked up per pass so that a traced run sees its wrapper
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = clock()
            try:
                rc = main(argv)
            except Exception:  # a traceback is a failed command, not a crashed benchmark
                rc = None
                buf.write(traceback.format_exc())
            lat.append(clock() - t0)
        results.append((rc, buf.getvalue()))
    return results, lat


def _args(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv), 2)}


def _expected_nu(p: int, m: int, n: int) -> int:
    """nu_p of the (m, n) Fibonomial by the general closed form, re-checked
    against the tier-B oracle where the index is small."""
    value = formulas.nu_fibonomial_formula(p, m, n)[0].value
    if m <= SCAN_ORACLE_INDEX:
        ora = oracle.nu_fibonomial_oracle(p, m, n, OracleTier.MODULAR).value
        if ora != value:
            raise ValueError(f"formula {value} != oracle {ora} at (p={p}, m={m}, k={n})")
    return value


def check_command(argv: list[str], rc: int | None, out: str) -> bool:
    """True iff the command exited 0 and printed exactly the right answer."""
    if rc != 0:
        return False
    args = _args(argv)
    p, a, n_max = int(args["p"]), int(args["a"]), int(args["n-max"])
    try:
        if argv[0] == "scan":
            got = json.loads(out) if args["format"] == "json" else [int(x) for x in out.split()]
            predicate = args["predicate"]
            want = []
            for n in range(1, n_max + 1):
                if predicate == "odd_fibonomial":
                    keep = _expected_nu(2, p**a * n, n) == 0
                else:
                    keep = (_expected_nu(p, p**a * n, n) > 0) == (predicate == "divisible")
                if keep:
                    want.append(n)
            return got == want
        if args["format"] == "json":
            rows = [(r["p"], r["a"], r["n"], r["nu"], r["branch"]) for r in json.loads(out)]
        else:
            lines = list(csv.reader(io.StringIO(out)))
            if lines[0] != ["p", "a", "n", "nu", "branch"]:
                return False
            rows = [(int(p_), int(a_), int(n_), int(nu), br) for p_, a_, n_, nu, br in lines[1:]]
        want_rows = [(p, a, n, _expected_nu(p, p**a * n, n)) for n in range(1, n_max + 1)]
        return [r[:4] for r in rows] == want_rows and all(r[4] for r in rows)
    except (ValueError, KeyError, IndexError, TypeError):
        return False


def scan_check(commands: list[list[str]], results: list[tuple[int | None, str]]
               ) -> tuple[int, int]:
    return len(commands), sum(not check_command(argv, rc, out)
                              for argv, (rc, out) in zip(commands, results))


# ---------------------------------------------------------------------------
# exact_tier: seeded tier-A queries with p <= 13 and m up to a cap above the
# default 400, checked against the general closed form.  A query's cost grows
# steeply with m and with k*(m-k), so the queries fill a grid of m strata by
# k/m strata, one query per cell at a seeded point within it, and every prime
# meets every stratum: the percentiles then vary little from seed to seed.

EXACT_CAP = 480
EXACT_M_STRATA = 40
EXACT_K_STRATA = 25
EXACT_PRIMES = (2, 3, 5, 7, 11, 13)


def exact_inputs(seed: int) -> list[tuple[int, int, int]]:
    rng = random.Random(f"exact_tier:{seed}")
    queries = []
    for i in range(EXACT_M_STRATA):
        for j in range(EXACT_K_STRATA):
            m = 1 + int((i + rng.random()) * EXACT_CAP / EXACT_M_STRATA)
            k = round((j + rng.random()) / EXACT_K_STRATA * m)
            queries.append((EXACT_PRIMES[(i + j) % len(EXACT_PRIMES)], m, k))
    rng.shuffle(queries)
    return queries


def exact_pass(queries: list[tuple[int, int, int]]) -> tuple[list[int | None], array]:
    lat = array("q")
    values: list[int | None] = []
    query = oracle.nu_fibonomial_oracle  # looked up per pass so that a traced run sees its wrapper
    for p, m, k in queries:
        t0 = clock()
        try:
            value = query(p, m, k, OracleTier.EXACT, cap=EXACT_CAP).value
        except (ValueError, FormulaIntegrityError):
            value = None
        lat.append(clock() - t0)
        values.append(value)
    return values, lat


def exact_check(queries: list[tuple[int, int, int]], values: list[int | None]) -> tuple[int, int]:
    bad = sum(v is None or v != formulas.nu_fibonomial_formula(p, m, k)[0].value
              for (p, m, k), v in zip(queries, values))
    return len(queries), bad


WORKLOADS = {
    "verify_grid": Workload(grid_inputs, grid_pass, grid_check),
    "scan_cli": Workload(scan_inputs, scan_pass, scan_check),
    "exact_tier": Workload(exact_inputs, exact_pass, exact_check),
}
