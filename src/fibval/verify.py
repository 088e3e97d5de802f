"""Formula-vs-oracle verification grids with branch-coverage accounting.

A run walks every central cell (p, a, n) of the configured grid, compares
the closed form against the brute-force oracle, and re-derives each cell
through the general and ratio formulas where those apply.  Two small
deterministic sweeps are appended so that case-table rows the central grid
can never reach (e.g. ratio rows with distinct cofactors) still fire; the
sweeps are checked against the modular oracle.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .arith import FormulaIntegrityError, _nu_int
from .formulas import (
    BRANCH_LABELS,
    BranchTrace,
    Theorem,
    all_qualified_labels,
    nu_central,
    nu_fibonomial_formula,
    nu_ratio_prime_powers,
    qualified_label,
)
from .oracle import OracleTier, exact_cap, nu_fibonomial_oracle
from .rank import rank_of_apparition

INTEGRITY_BRANCH = "integrity-error"


@dataclass(frozen=True, slots=True)
class VerifyConfig:
    primes: tuple[int, ...]
    a_max: int
    n_max: int
    index_cap: int = 10**5
    tier: OracleTier = OracleTier.MODULAR
    consistency: bool = True
    coverage_sweep: bool = True

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

    def as_dict(self) -> dict:
        return {"p": self.p, "a": self.a, "n": self.n, "formula": self.formula,
                "oracle": self.oracle, "branch": self.branch,
                "m": self.m, "k": self.k, "check": self.check}


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
            "grid": {
                "primes": list(self.config.primes),
                "a_max": self.config.a_max,
                "n_max": self.config.n_max,
                "index_cap": self.config.index_cap,
                "tier": self.config.tier.value,
            },
            "cells_checked": self.cells_checked,
            "mismatches": [m.as_dict() for m in self.mismatches],
            "branch_coverage": self.branch_coverage,
            "uncovered": list(self.uncovered),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }
        return json.dumps(doc, indent=2)


def expected_labels(config: VerifyConfig) -> tuple[str, ...]:
    """Branch labels a run of this configuration is required to reach.

    Labels whose theorem or case is out of scope for the configured primes
    and exponent range are exempt; anything listed here but never hit makes
    the run fail with a coverage gap.
    """
    primes = set(config.primes)
    exp: list[str] = []

    def add(theorem: Theorem, *labels: str) -> None:
        exp.extend(qualified_label(theorem, lab) for lab in labels)

    if 2 in primes:
        if config.coverage_sweep:
            add(Theorem.T2ADIC_GENERAL, *BRANCH_LABELS[Theorem.T2ADIC_GENERAL])
            add(Theorem.TRATIO, "p2 a=b (eq or l2=0)", "p2 a=b (l1=0)", "p2 a=b (1,2)",
                "p2 a=b (2,1)", "p2 a!=b (neg or l2=0)", "p2 a!=b (l1=0)",
                "p2 a!=b (1,1)", "p2 a!=b (2,2)")
        n1 = config.n_limit(2, 1)
        if n1 >= 1:
            add(Theorem.C2ADIC, "a odd, n odd")
        if n1 >= 2:
            add(Theorem.C2ADIC, "a odd, n%6=2")
        if n1 >= 4:
            add(Theorem.C2ADIC, "a odd, n%6=4")
        if n1 >= 6:
            add(Theorem.C2ADIC, "a odd, n%6=0")
        if config.a_max >= 2:
            n2 = config.n_limit(2, 2)
            if n2 >= 1:
                add(Theorem.C2ADIC, "a even, n%6 in {0,1,2,4}")
            if n2 >= 3:
                add(Theorem.C2ADIC, "a even, n%6 in {3,5}")
    if 5 in primes:
        if config.coverage_sweep:
            add(Theorem.T5ADIC, "binomial")
        if config.n_limit(5, 1) >= 1:
            add(Theorem.C5ADIC, "s5 digit sum")
    odd_ps = sorted(p for p in primes if p not in (2, 5))
    if odd_ps and config.coverage_sweep:
        add(Theorem.TP_GENERAL_MK, "r>=s", "r<s")
    pm1_ps = [p for p in odd_ps if p % 5 in (1, 4)]
    pm2_ps = [p for p in odd_ps if p % 5 in (2, 3)]
    if pm1_ps:
        if any(config.n_limit(p, 1) >= 1 for p in pm1_ps):
            add(Theorem.CP, "pm1")
        if config.coverage_sweep:
            add(Theorem.TRATIO, "pm1 r>=s", "pm1 r<s")
    if pm2_ps:
        if config.a_max >= 2 and any(config.n_limit(p, 2) >= 1 for p in pm2_ps):
            add(Theorem.CP, "pm2 a even")
        if any(config.n_limit(p, 1) >= rank_of_apparition(p).z for p in pm2_ps):
            add(Theorem.CP, "pm2 a odd r=s", "pm2 a odd r<s", "pm2 a odd r>s")
        if config.coverage_sweep:
            add(Theorem.TRATIO, "pm2 r=s or l2=0", "pm2 l1=0",
                "pm2 a odd r>s", "pm2 a odd r<s")
            if config.a_max >= 2:
                add(Theorem.TRATIO, "pm2 a even r>s", "pm2 a even r<s")
    return tuple(dict.fromkeys(exp))


def run_verify(config: VerifyConfig) -> VerifyReport:
    for p in config.primes:
        rank_of_apparition(p)  # validates primality up front
    if config.tier is OracleTier.EXACT:
        top = max((p**a * config.n_limit(p, a)
                   for p in config.primes for a in config.exponents(p)
                   if config.n_limit(p, a) >= 1), default=0)
        cap = exact_cap()
        if top > cap:
            raise ValueError(
                f"exact-tier grid reaches index {top} beyond the cap {cap}; "
                f"raise FIBVAL_EXACT_CAP or shrink the grid")

    start = time.perf_counter()
    coverage = {lab: 0 for lab in all_qualified_labels()}
    mismatches: list[Mismatch] = []
    cells = 0

    def hit(trace: BranchTrace) -> None:
        key = qualified_label(trace.theorem, trace.branch_label)
        if key in coverage:
            coverage[key] += 1

    for p in sorted(config.primes):
        for a in config.exponents(p):
            pa = p**a
            for n in range(1, config.n_limit(p, a) + 1):
                cells += 1
                m = pa * n
                ora = nu_fibonomial_oracle(p, m, n, config.tier).value
                val: int | None
                try:
                    cval, trace = nu_central(p, a, n)
                    val = cval.value
                    hit(trace)
                    branch = trace.branch_label
                except FormulaIntegrityError:
                    val, branch = None, INTEGRITY_BRANCH
                if val != ora:
                    mismatches.append(Mismatch(p, a, n, val, ora, branch, m, n, "central"))
                if config.consistency:
                    _consistency_checks(p, a, n, m, ora, hit, mismatches)

    if config.coverage_sweep:
        cells += _general_sweep(config, hit, mismatches)
        cells += _ratio_sweep(config, hit, mismatches)

    mismatches.sort(key=lambda x: (x.n if x.n is not None else -1,
                                   x.a if x.a is not None else -1,
                                   x.p, x.m, x.k, x.check))
    report = VerifyReport(config, cells, mismatches, coverage, expected_labels(config))
    report.elapsed_seconds = time.perf_counter() - start
    return report


def _consistency_checks(p, a, n, m, ora, hit, mismatches) -> None:
    try:
        gval, gtrace = nu_fibonomial_formula(p, m, n)
        hit(gtrace)
        gv, gbranch = gval.value, gtrace.branch_label
    except FormulaIntegrityError:
        gv, gbranch = None, INTEGRITY_BRANCH
    if gv != ora:
        mismatches.append(Mismatch(p, a, n, gv, ora, gbranch, m, n, "general"))
    if p != 5:
        b = _nu_int(p, n)
        if b >= 1:
            ell = n // p**b
            try:
                rval, rtrace = nu_ratio_prime_powers(p, ell, a + b, ell, b)
                hit(rtrace)
                rv, rbranch = rval.value, rtrace.branch_label
            except FormulaIntegrityError:
                rv, rbranch = None, INTEGRITY_BRANCH
            if rv != ora:
                mismatches.append(Mismatch(p, a, n, rv, ora, rbranch, m, n, "ratio"))


def _general_sweep(config: VerifyConfig, hit, mismatches) -> int:
    """Small full (m, k) grids; reaches the general-table rows (for example
    odd-residue exceptional pairs) that central indices m = p^a*n avoid."""
    cells = 0
    for p in sorted(config.primes):
        mod = 6 if p == 2 else (5 if p == 5 else rank_of_apparition(p).z)
        for m in range(2, min(2 * mod + 4, config.index_cap) + 1):
            for k in range(1, m):
                cells += 1
                ora = nu_fibonomial_oracle(p, m, k, OracleTier.MODULAR).value
                try:
                    gval, gtrace = nu_fibonomial_formula(p, m, k)
                    gv, gbranch = gval.value, gtrace.branch_label
                    hit(gtrace)
                except FormulaIntegrityError:
                    gv, gbranch = None, INTEGRITY_BRANCH
                if gv != ora:
                    mismatches.append(Mismatch(p, None, None, gv, ora, gbranch, m, k,
                                               "general_sweep"))
    return cells


def _ratio_sweep(config: VerifyConfig, hit, mismatches) -> int:
    """Deterministic cofactor/exponent grid for the ratio formula; the
    central grid only ever produces equal cofactors, so rows keyed on
    distinct residues are reachable only from here."""
    cells = 0
    exps = [(1, 1), (1, 2)]
    if config.a_max >= 2:
        exps.append((2, 2))
    for p in sorted(config.primes):
        if p == 5:
            continue
        zmod = 3 if p == 2 else rank_of_apparition(p).z
        top = zmod + 2
        for a, b in exps:
            for l1 in range(1, top + 1):
                for l2 in range(1, top + 1):
                    if l1 * p**b <= l2 * p**a or l1 * p**b > config.index_cap:
                        continue
                    cells += 1
                    m, k = l1 * p**b, l2 * p**a
                    ora = nu_fibonomial_oracle(p, m, k, OracleTier.MODULAR).value
                    try:
                        rval, rtrace = nu_ratio_prime_powers(p, l1, b, l2, a)
                        rv, rbranch = rval.value, rtrace.branch_label
                        hit(rtrace)
                    except FormulaIntegrityError:
                        rv, rbranch = None, INTEGRITY_BRANCH
                    if rv != ora:
                        mismatches.append(Mismatch(p, a, None, rv, ora, rbranch, m, k,
                                                   "ratio_sweep"))
    return cells
