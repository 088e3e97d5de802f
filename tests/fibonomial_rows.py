"""Whole rows of Fibonomial coefficients, for the tests that read tier A by rows.

Imports only ``fibval.arith``, so the rows stay independent of the closed
forms and of both oracle tiers they are compared with.
"""

from fibval.arith import FormulaIntegrityError, fib


def fibonomial_row(m: int) -> list[int]:
    """The row C(m, 0)_F, ..., C(m, m)_F as exact integers, for m >= 0.

    Steps C(m, k)_F = C(m, k-1)_F * F_(m-k+1) / F_k: the factors F_m,
    F_(m-1), ... step down from fast doubling at m, the divisors F_1, F_2,
    ... step up from F_0, and every division is asserted exact: one
    multiplication and one division a cell, where ``fibonomial_exact``
    multiplies min(k, m - k) factors for each cell afresh.
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
