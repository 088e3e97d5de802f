"""SHA-256 digests over the values of mid-size grids.

The first digest covers the values and branch traces of a mid-size grid.

The grid is every central cell (p^a*n, n) with p^a*n <= 10^4 for the primes
up to 31 and a <= 4, each re-derived through the general formula and, when
p divides n, the ratio formula (as ``run_verify`` does), plus every cell of
that configuration's general and ratio sweeps.  Each record is (function,
args, value, every BranchTrace field with the Theorem written as its
value); the tier-B oracle value of every cell is a record too.  A change to
any value, label or trace field changes the digest.

Two more digests cover tier A on every k at m <= 120 and on every
twentieth row from 140 to 480: one over each Fibonomial coefficient
``fibonomial_exact`` returns, one over ``nu_fibonomial_oracle``'s tier-A
valuation, with p cycling through the primes up to 13 from cell to cell.
Each int is hashed as hex: ``repr`` of C(480, 240)_F, with more than 4,300
digits, raises on Python 3.11.

The last two digests cover the JSON report of ``run_verify`` on the shape of
the benchmark's verify_grid workload (the primes up to 31, a <= 4, index
5,000), with ``elapsed_seconds`` set to 0: once as it runs, once with a
delta-table entry wrong (criterion 9's first mutation), so that the
mismatch rows and their order are pinned too.
"""

import hashlib
import json

import fibval.formulas as formulas
import fibval.verify as verify
from fibval.arith import _nu_int
from fibval.formulas import nu_central, nu_fibonomial_formula, nu_ratio_prime_powers
from fibval.oracle import OracleTier, nu_fibonomial_oracle
from fibval.verify import VerifyConfig, run_verify

from fibonomial_rows import fibonomial_exact

GRID_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
CONFIG = VerifyConfig(GRID_PRIMES, a_max=4, n_max=10**4, index_cap=10**4)

GOLDEN_DIGEST = "4155d39aa41bc43770b77e75bab0184916a942877fbdc46ad3f1a337a26ef698"

TIER_A_CAP = 480
TIER_A_PRIMES = (2, 3, 5, 7, 11, 13)
TIER_A_ROWS = (*range(121), *range(140, TIER_A_CAP + 1, 20))
TIER_A_EXACT_DIGEST = "0bffad5116d4b53c43dc5ec7492356cb47eeafbd5acdd695429be9f5b62f5915"
TIER_A_ORACLE_DIGEST = "9aad8fa8b92ad4ef45421515a310a23d3e2f49c82e9d949f544c8f76f2c31983"

VERIFY_GRID = VerifyConfig(GRID_PRIMES, a_max=4, n_max=5_000, index_cap=5_000)
VERIFY_REPORT_DIGEST = "1662c8e3bc7735af99f4b5f6f6fc89a049fdf2826bab139d6e2976a31ee2c2c4"
VERIFY_MUTANT_REPORT_DIGEST = "6bf374918f26e5be55f8920dba791468e7c7bf4f09553e8dc6f94ad48eacadb0"


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _records():
    def formula(fn, args):
        val, trace = fn(*args)
        return repr((fn.__name__, args, val.value, (trace.theorem.value, *trace[1:])))

    def oracle(p, m, k):
        return repr(("oracle", (p, m, k), nu_fibonomial_oracle(p, m, k, OracleTier.MODULAR).value))

    for p in GRID_PRIMES:
        for a in CONFIG.exponents(p):
            for n in range(1, CONFIG.n_limit(p, a) + 1):
                m = p**a * n
                yield oracle(p, m, n)
                yield formula(nu_central, (p, a, n))
                yield formula(nu_fibonomial_formula, (p, m, n))
                b = _nu_int(p, n)
                if p != 5 and b:
                    ell = n // p**b
                    yield formula(nu_ratio_prime_powers, (p, ell, a + b, ell, b))
        for m, ks in verify._general_rows(CONFIG, p):
            for k in ks:
                yield oracle(p, m, k)
                yield formula(nu_fibonomial_formula, (p, m, k))
        for m, l2s, a, b, l1 in verify._ratio_rows(CONFIG, p):
            for l2 in l2s:
                yield oracle(p, m, l2 * p**a)
                yield formula(nu_ratio_prime_powers, (p, l1, b, l2, a))


def test_values_and_traces_match_the_golden_digest():
    assert _sha256(_records()) == GOLDEN_DIGEST


def _tier_a_cells():
    return ((m, k) for m in TIER_A_ROWS for k in range(m + 1))


def test_tier_a_coefficients_match_the_golden_digest():
    digest = _sha256(f"{m} {k} {fibonomial_exact(m, k, cap=TIER_A_CAP):x}"
                     for m, k in _tier_a_cells())
    assert digest == TIER_A_EXACT_DIGEST


def test_tier_a_valuations_match_the_golden_digest():
    lines = []
    for i, (m, k) in enumerate(_tier_a_cells()):
        p = TIER_A_PRIMES[i % len(TIER_A_PRIMES)]
        value = nu_fibonomial_oracle(p, m, k, OracleTier.EXACT, cap=TIER_A_CAP).value
        lines.append(f"{p} {m} {k} {value:x}")
    assert _sha256(lines) == TIER_A_ORACLE_DIGEST


def _report_digest(config):
    doc = json.loads(run_verify(config).to_json())
    doc["elapsed_seconds"] = 0
    return hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()


def test_verify_report_matches_the_golden_digest():
    assert _report_digest(VERIFY_GRID) == VERIFY_REPORT_DIGEST


def test_mismatching_verify_report_matches_the_golden_digest(monkeypatch):
    # 260 mismatch rows, sorted, at exit code 1
    monkeypatch.setitem(formulas.DELTA2_EVEN_A, 3, 0)
    assert _report_digest(VERIFY_GRID) == VERIFY_MUTANT_REPORT_DIGEST
