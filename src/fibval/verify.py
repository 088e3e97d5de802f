"""Formula-vs-oracle verification grids with branch-coverage accounting.

A run walks every central cell (p, a, n) of the configured grid, compares
the closed form against the brute-force oracle, and re-derives each cell
through the general and ratio formulas where those apply.  Two small
deterministic sweeps are appended so that case-table rows the central grid
can never reach (e.g. ratio rows with distinct cofactors) still fire; the
sweeps are checked against the modular oracle.  Every formula call, central
or swept, is compared with its oracle value in one place.

The pre-flight and the sweeps read the same rows, ``_general_rows`` and
``_ratio_rows``: before the first cell, a run walks them to reject an index
past the modular cap or more than ``SWEEP_CELL_CAP`` sweep cells.

Which branches a run must reach is declared beside the labels, in
``formulas.BRANCH_REACH``: each label's prime class, least exponent a and
least central cofactor n.  ``expected_labels`` only filters that table.
"""

from __future__ import annotations

import itertools
import json
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass

from .arith import FormulaIntegrityError, _nu_int, show_int
from .formulas import (
    AT_RANK,
    BRANCH_REACH,
    INDEX_CAP,
    nu_central,
    nu_fibonomial_formula,
    nu_ratio_prime_powers,
    qualified_label,
)
from .oracle import (
    _MODULAR,
    EXACT_CAP_MAX,
    MODULAR_CAP,
    OracleTier,
    exact_cap,
    nu_fibonomial_oracle,
)
from .rank import _PLUS_MINUS_1, rank_of_apparition

INTEGRITY_BRANCH = "integrity-error"
SWEEP_CELL_CAP = 10**6  # most cells both sweeps may ask for; the acceptance grid asks for 11,299


@dataclass(frozen=True, slots=True)
class VerifyConfig:
    primes: tuple[int, ...]
    a_max: int
    n_max: int
    index_cap: int = 10**5
    tier: OracleTier = OracleTier.MODULAR

    def __post_init__(self) -> None:
        if not self.primes or len(set(self.primes)) < len(self.primes):
            raise ValueError(f"VerifyConfig.primes must be non-empty and distinct, got "
                             f"({', '.join(map(show_int, self.primes))})")
        for name in ("a_max", "n_max", "index_cap"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"VerifyConfig.{name} must be >= 1, got {show_int(value)}")
        if self.index_cap > INDEX_CAP:
            raise ValueError(f"VerifyConfig.index_cap {show_int(self.index_cap)} exceeds 2^63")

    def n_limit(self, p: int, a: int) -> int:
        return min(self.n_max, self.index_cap // p**a)

    def exponents(self, p: int) -> range:
        """The a <= a_max with p^a <= index_cap; no cell lies beyond them."""
        a, pa = 0, p
        while a < self.a_max and pa <= self.index_cap:
            a, pa = a + 1, pa * p
        return range(1, a + 1)


@dataclass(frozen=True, slots=True)
class Mismatch:
    p: int
    a: int | None
    n: int | None
    formula: int | None
    oracle: int
    branch: str
    m: int
    k: int
    check: str


@dataclass(slots=True)
class VerifyReport:
    config: VerifyConfig
    cells_checked: int
    mismatches: list[Mismatch]
    branch_coverage: dict[str, int]
    expected: tuple[str, ...]
    elapsed_seconds: float = 0.0

    @property
    def uncovered(self) -> tuple[str, ...]:
        return tuple(lab for lab in self.expected if self.branch_coverage.get(lab, 0) == 0)

    @property
    def exit_code(self) -> int:
        if self.mismatches:
            return 1
        if self.uncovered:
            return 4
        return 0

    def to_json(self) -> str:
        doc = {
            "grid": {**asdict(self.config), "tier": self.config.tier.value},
            "cells_checked": self.cells_checked,
            "mismatches": [asdict(m) for m in self.mismatches],
            "branch_coverage": self.branch_coverage,
            "uncovered": list(self.uncovered),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }
        return json.dumps(doc, indent=2)


def _prime_classes(p: int) -> tuple[str, ...]:
    """The BRANCH_REACH prime classes that contain the prime p."""
    if p in (2, 5):
        return (str(p),)
    return ("odd", "pm1" if rank_of_apparition(p).mod5 is _PLUS_MINUS_1 else "pm2")


def expected_labels(config: VerifyConfig) -> tuple[str, ...]:
    """Branch labels a run of this configuration is required to reach.

    Each label's reach is declared in ``formulas.BRANCH_REACH``.  A label is
    required when a_max is at least its least a and some configured prime is
    in its class and, for a central row, has that least n on the grid at that
    a.  Anything listed here but never hit makes the run fail with a
    coverage gap.  The order is the declaration order.
    """
    exp: list[str] = []
    for theorem, label, prime_class, a, n in BRANCH_REACH:
        if config.a_max < a:
            continue
        for p in config.primes:
            if prime_class in _prime_classes(p) and (
                    n is None or config.n_limit(p, a) >= (
                        rank_of_apparition(p).z if n == AT_RANK else n)):
                exp.append(qualified_label(theorem, label))
                break
    return tuple(exp)


def run_verify(config: VerifyConfig) -> VerifyReport:
    sweeps = [rows(config, p) for p in config.primes
              for rows in (_general_rows, _ratio_rows)]  # reads z(p): rejects every non-prime
    central_top = max((p**a * config.n_limit(p, a)
                       for p in config.primes for a in config.exponents(p)), default=0)
    exact = config.tier is OracleTier.EXACT
    cap = exact_cap() if exact else MODULAR_CAP
    if central_top > cap:
        hint = (f"raise FIBVAL_EXACT_CAP (at most {EXACT_CAP_MAX}) or shrink the grid" if exact
                else "shrink the grid")
        raise ValueError(f"{config.tier.value}-tier grid reaches index {central_top} "
                         f"beyond the cap {cap}; {hint}")
    sweep_cells = 0  # all rows but one per exponent pair have a cell: the walk stays short
    for m, ks, *_ in itertools.chain.from_iterable(sweeps):
        if m > MODULAR_CAP:
            raise ValueError(f"the sweeps reach index {m} beyond the modular-tier cap "
                             f"{MODULAR_CAP}; lower the index cap")
        sweep_cells += len(ks)
        if sweep_cells > SWEEP_CELL_CAP:
            raise ValueError(f"the sweeps ask for more than the cap {SWEEP_CELL_CAP} cells; "
                             "lower the index cap or leave out the large primes")

    start = time.perf_counter()
    coverage = {(theorem, label): 0 for theorem, label, *_ in BRANCH_REACH}
    mismatches: list[Mismatch] = []
    cells = 0

    def compare(fn, args, ora, p, a, n, m, k, check) -> None:
        """Evaluate fn(*args), count the branch it took, and record a
        Mismatch row if its value differs from the oracle value ora."""
        try:
            val, trace = fn(*args)
        except FormulaIntegrityError:
            value, branch = None, INTEGRITY_BRANCH
        else:
            value, branch = val.value, trace.branch_label
            key = (trace.theorem, branch)  # qualified once, when the report is built
            if key in coverage:
                coverage[key] += 1
        if value != ora:
            mismatches.append(Mismatch(p, a, n, value, ora, branch, m, k, check))

    for p in sorted(config.primes):
        for a in config.exponents(p):
            pa = p**a
            for n in range(1, config.n_limit(p, a) + 1):
                cells += 1
                m = pa * n
                ora = nu_fibonomial_oracle(p, m, n, config.tier).value
                compare(nu_central, (p, a, n), ora, p, a, n, m, n, "central")
                _consistency_checks(p, a, n, m, ora, compare)

    cells += _general_sweep(config, compare)
    cells += _ratio_sweep(config, compare)

    mismatches.sort(key=lambda x: (x.n if x.n is not None else -1,
                                   x.a if x.a is not None else -1,
                                   x.p, x.m, x.k, x.check))
    branch_coverage = {qualified_label(*key): count for key, count in coverage.items()}
    report = VerifyReport(config, cells, mismatches, branch_coverage, expected_labels(config))
    report.elapsed_seconds = time.perf_counter() - start
    return report


def _consistency_checks(p, a, n, m, ora, compare) -> None:
    """Re-derive the central cell (m, n) = (p^a*n, n) through the general
    formula and, when p divides n, through the ratio formula."""
    compare(nu_fibonomial_formula, (p, m, n), ora, p, a, n, m, n, "general")
    if p != 5:
        b = _nu_int(p, n)
        if b >= 1:
            ell = n // p**b
            compare(nu_ratio_prime_powers, (p, ell, a + b, ell, b), ora,
                    p, a, n, m, n, "ratio")


def _general_rows(config: VerifyConfig, p: int) -> Iterator[tuple[int, range]]:
    """The rows (m, ks) of the general sweep at the prime p: one cell (m, k)
    for each k in ks, with m <= index_cap."""
    m_top = min(2 * (6 if p == 2 else rank_of_apparition(p).z) + 4, config.index_cap)
    return ((m, range(1, m)) for m in range(2, m_top + 1))


def _general_sweep(config: VerifyConfig, compare) -> int:
    """Small full (m, k) grids; reaches the general-table rows (for example
    odd-residue exceptional pairs) that central indices m = p^a*n avoid."""
    cells = 0
    for p in sorted(config.primes):
        for m, ks in _general_rows(config, p):
            cells += len(ks)
            for k in ks:
                ora = nu_fibonomial_oracle(p, m, k, _MODULAR).value
                compare(nu_fibonomial_formula, (p, m, k), ora,
                        p, None, None, m, k, "general_sweep")
    return cells


def _ratio_rows(config: VerifyConfig, p: int) -> Iterator[tuple[int, range, int, int, int]]:
    """The rows (m, l2s, a, b, l1) of the ratio sweep at the prime p, with
    m = l1*p^b: one cell (m, k) = (m, l2*p^a) for each cofactor l2 in l2s,
    with k < m <= index_cap.  p = 5 has no ratio formula and no rows."""
    if p == 5:
        return iter(())
    top = rank_of_apparition(p).z + 2
    exps = ((1, 1), (1, 2), (2, 2)) if config.a_max >= 2 else ((1, 1), (1, 2))
    return ((l1 * p**b, range(1, min(top, (l1 * p**b - 1) // p**a) + 1), a, b, l1)
            for a, b in exps for l1 in range(1, min(top, config.index_cap // p**b) + 1))


def _ratio_sweep(config: VerifyConfig, compare) -> int:
    """Deterministic cofactor/exponent grid for the ratio formula; the
    central grid only ever produces equal cofactors, so rows keyed on
    distinct residues are reachable only from here."""
    cells = 0
    for p in sorted(config.primes):
        for m, l2s, a, b, l1 in _ratio_rows(config, p):
            cells += len(l2s)
            for l2 in l2s:
                k = l2 * p**a
                ora = nu_fibonomial_oracle(p, m, k, _MODULAR).value
                compare(nu_ratio_prime_powers, (p, l1, b, l2, a), ora,
                        p, a, None, m, k, "ratio_sweep")
    return cells
