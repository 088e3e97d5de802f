"""One SHA-256 over the values and branch traces of a mid-size grid.

The grid is every central cell (p^a*n, n) with p^a*n <= 10^4 for the primes
up to 31 and a <= 4, each re-derived through the general formula and, when
p divides n, the ratio formula (as ``run_verify`` does), plus every cell of
that configuration's general and ratio sweeps.  Each record is (function,
args, value, every BranchTrace field with the Theorem written as its
value); the tier-B oracle value of every cell is a record too.  A change to
any value, label or trace field changes the digest.
"""

import hashlib

import fibval.verify as verify
from fibval.arith import _nu_int
from fibval.formulas import nu_central, nu_fibonomial_formula, nu_ratio_prime_powers
from fibval.oracle import OracleTier, nu_fibonomial_oracle
from fibval.verify import VerifyConfig

GRID_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
CONFIG = VerifyConfig(GRID_PRIMES, a_max=4, n_max=10**4, index_cap=10**4)

GOLDEN_DIGEST = "4155d39aa41bc43770b77e75bab0184916a942877fbdc46ad3f1a337a26ef698"


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
    digest = hashlib.sha256("\n".join(_records()).encode()).hexdigest()
    assert digest == GOLDEN_DIGEST
