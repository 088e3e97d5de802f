"""Whole Fibonomial coefficients, for the tests that pin tier A by its values.

``fibonomial_row`` reads only ``fibval.arith``, so its rows stay
independent of the closed forms and of both oracle tiers they are compared
with.  ``fibonomial_exact`` multiplies the parts tier A reads, so it pins
the carry set behind every tier-A valuation.
"""

from math import prod

from fibval.arith import FormulaIntegrityError, fib
from fibval.oracle import OracleTier, _carry_parts, reach


def fibonomial_row(m: int) -> list[int]:
    """The row C(m, 0)_F, ..., C(m, m)_F as exact integers, for m >= 0.

    Steps C(m, k)_F = C(m, k-1)_F * F_(m-k+1) / F_k: the factors F_m,
    F_(m-1), ... step down from fast doubling at m, the divisors F_1, F_2,
    ... step up from F_0, and every division is asserted exact: one
    multiplication and one division a cell, where ``fibonomial_exact``
    multiplies a whole carry set for each cell afresh.
    """
    row = [1]
    top, top_next = fib(m), fib(m + 1)  # F_(m-k+1) and F_(m-k+2) at step k
    low, low_next = 0, 1
    for k in range(1, m + 1):
        low, low_next = low_next, low + low_next
        q, r = divmod(row[-1] * top, low)
        if r:
            raise FormulaIntegrityError(f"Fibonomial row step not an integer at (m={m}, k={k})")
        row.append(q)
        top, top_next = top_next - top, top
    return row


def fibonomial_exact(m: int, k: int, cap: int | None = None) -> int:
    """C(m, k)_F as an exact integer: the product of tier A's carry-set parts.

    ``cap`` is read by tier A's own rule, ``reach``, and the index checks
    raise tier A's messages.  Runs of 32 parts are multiplied one at a
    time, then the run products pairwise as a balanced tree, so that the
    large multiplications pair operands of like size, which Karatsuba
    speeds up.
    """
    top = reach(OracleTier.EXACT, cap)
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got m={m}, k={k}")
    if m > top:
        raise ValueError(f"exact tier capped at m <= {top}, got m={m}")
    parts = _carry_parts(m, k, top)
    xs = [prod(parts[i:i + 32]) for i in range(0, len(parts), 32)]
    while len(xs) > 1:
        xs = [prod(xs[i:i + 2]) for i in range(0, len(xs), 2)]
    return prod(xs)
