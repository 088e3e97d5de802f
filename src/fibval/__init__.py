"""Exact p-adic valuations of Fibonomial coefficients.

Closed-form evaluation for the central shape (p^a*n, n), the general shape
(m, k) and the prime-power-ratio shape, each cross-checkable against two
independent brute-force oracles, plus divisibility predicates and range
scanners.  See the CLI (``fibval``) for the command-line surface.
"""

from .arith import (
    FormulaIntegrityError,
    Valuation,
    digit_sum,
    fib,
    fib_mod,
    is_prime,
)
from .formulas import (
    INDEX_CAP,
    BranchTrace,
    DivReason,
    Theorem,
    divides_p_central,
    is_odd_2n,
    is_odd_4n,
    is_odd_8n,
    nu2_central,
    nu5_central,
    nu_central,
    nu_fibonomial_formula,
    nu_ratio_prime_powers,
    nup_central,
)
from .oracle import OracleTier, fibonomial_exact, nu_fibonomial_oracle
from .rank import Mod5Class, RankRecord, rank_of_apparition
from .verify import VerifyConfig, VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "BranchTrace",
    "DivReason",
    "FormulaIntegrityError",
    "INDEX_CAP",
    "Mod5Class",
    "OracleTier",
    "RankRecord",
    "Theorem",
    "Valuation",
    "VerifyConfig",
    "VerifyReport",
    "digit_sum",
    "divides_p_central",
    "fib",
    "fib_mod",
    "fibonomial_exact",
    "is_odd_2n",
    "is_odd_4n",
    "is_odd_8n",
    "is_prime",
    "nu2_central",
    "nu5_central",
    "nu_central",
    "nu_fibonomial_formula",
    "nu_fibonomial_oracle",
    "nu_ratio_prime_powers",
    "nup_central",
    "rank_of_apparition",
    "run_verify",
]
