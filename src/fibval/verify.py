"""Formula-vs-oracle verification grids with branch-coverage accounting.

A run walks every central cell (p, a, n) of the configured grid, compares
the closed form against the brute-force oracle, and re-derives each cell
through the general and ratio formulas where those apply.  Two small
deterministic sweeps are appended so that case-table rows the central grid
can never reach (e.g. ratio rows with distinct cofactors) still fire; the
sweeps are checked against the modular oracle.  Every formula call, central
or swept, is compared with its oracle value in one place.

Which branches a run must reach is declared beside the labels, in
``formulas.BRANCH_REACH``: each label's prime class, least exponent a and
least central cofactor n.  ``expected_labels`` only filters that table.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass

from .arith import FormulaIntegrityError, _nu_int
from .formulas import (
    AT_RANK,
    BRANCH_REACH,
    all_qualified_labels,
    nu_central,
    nu_fibonomial_formula,
    nu_ratio_prime_powers,
    qualified_label,
)
from .oracle import MODULAR_CAP, OracleTier, exact_cap, nu_fibonomial_oracle
from .rank import rank_of_apparition

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
        for name in ("a_max", "n_max", "index_cap"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"VerifyConfig.{name} must be >= 1, got {value}")

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
    return ("odd", "pm1" if p % 5 in (1, 4) else "pm2")


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
    sweep_top = 0  # the largest index either sweep asks the oracle for
    sweep_cells = 0  # the cells both sweeps ask for; here those of the general sweep
    for p in config.primes:  # _sweep_bounds reads z(p): this rejects every non-prime
        m_max, l_max = _sweep_bounds(config, p)
        sweep_top = max(sweep_top, m_max,
                        *(min(l_max, config.index_cap // p**b) * p**b for b in (1, 2)))
        sweep_cells += m_max * (m_max - 1) // 2
    central_top = max((p**a * config.n_limit(p, a)
                       for p in config.primes for a in config.exponents(p)), default=0)
    exact = config.tier is OracleTier.EXACT
    cap = exact_cap() if exact else MODULAR_CAP
    if central_top > cap:
        hint = "raise FIBVAL_EXACT_CAP or shrink the grid" if exact else "shrink the grid"
        raise ValueError(f"{config.tier.value}-tier grid reaches index {central_top} "
                         f"beyond the cap {cap}; {hint}")
    if sweep_top > MODULAR_CAP:
        raise ValueError(f"the sweeps reach index {sweep_top} beyond the modular-tier cap "
                         f"{MODULAR_CAP}; lower the index cap")
    # counted only now: with sweep_top capped, a prime has at most about 3*sqrt(MODULAR_CAP) rows
    sweep_cells += sum(l2_top for p in config.primes for *_, l2_top in _ratio_rows(config, p))
    if sweep_cells > SWEEP_CELL_CAP:
        raise ValueError(f"the sweeps ask for {sweep_cells} cells, more than the cap "
                         f"{SWEEP_CELL_CAP}; lower the index cap or leave out the large primes")

    start = time.perf_counter()
    coverage = {lab: 0 for lab in all_qualified_labels()}
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
            key = qualified_label(trace.theorem, branch)
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
    report = VerifyReport(config, cells, mismatches, coverage, expected_labels(config))
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


def _sweep_bounds(config: VerifyConfig, p: int) -> tuple[int, int]:
    """The largest m of the general sweep and the largest cofactor of the
    ratio sweep at the prime p."""
    z = rank_of_apparition(p).z
    return min(2 * (6 if p == 2 else z) + 4, config.index_cap), z + 2


def _general_sweep(config: VerifyConfig, compare) -> int:
    """Small full (m, k) grids; reaches the general-table rows (for example
    odd-residue exceptional pairs) that central indices m = p^a*n avoid."""
    cells = 0
    for p in sorted(config.primes):
        for m in range(2, _sweep_bounds(config, p)[0] + 1):
            for k in range(1, m):
                cells += 1
                ora = nu_fibonomial_oracle(p, m, k, OracleTier.MODULAR).value
                compare(nu_fibonomial_formula, (p, m, k), ora,
                        p, None, None, m, k, "general_sweep")
    return cells


def _ratio_rows(config: VerifyConfig, p: int) -> Iterator[tuple[int, int, int, int]]:
    """The rows (a, b, l1, l2_top) of the ratio sweep at the prime p: each
    cofactor l2 from 1 to l2_top gives one cell (m, k) = (l1*p^b, l2*p^a)
    with k < m <= index_cap.  p = 5 has no ratio formula and no rows."""
    if p == 5:
        return
    top = _sweep_bounds(config, p)[1]
    exps = [(1, 1), (1, 2)]
    if config.a_max >= 2:
        exps.append((2, 2))
    for a, b in exps:
        pa, pb = p**a, p**b
        for l1 in range(1, min(top, config.index_cap // pb) + 1):
            yield a, b, l1, min(top, (l1 * pb - 1) // pa)


def _ratio_sweep(config: VerifyConfig, compare) -> int:
    """Deterministic cofactor/exponent grid for the ratio formula; the
    central grid only ever produces equal cofactors, so rows keyed on
    distinct residues are reachable only from here."""
    cells = 0
    for p in sorted(config.primes):
        for a, b, l1, l2_top in _ratio_rows(config, p):
            m = l1 * p**b
            for l2 in range(1, l2_top + 1):
                cells += 1
                k = l2 * p**a
                ora = nu_fibonomial_oracle(p, m, k, OracleTier.MODULAR).value
                compare(nu_ratio_prime_powers, (p, l1, b, l2, a), ora,
                        p, a, None, m, k, "ratio_sweep")
    return cells
