"""Exact integer arithmetic primitives.

Everything here works on Python ints (arbitrary precision); there is no
floating point anywhere in the package.  Fractional quantities are handled
as (numerator mod denominator, denominator) pairs and only ever combined
over a common denominator, with the final division checked to be exact.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class FormulaIntegrityError(RuntimeError):
    """An internal cross-check failed: a quantity that must be an integer
    was not, a redundant encoding disagreed, or a bounded search ran past
    its hard cap.  Any occurrence is a bug, never a data error."""


class Method(Enum):
    FORMULA = "formula"
    ORACLE_EXACT = "oracle_exact"
    ORACLE_MODULAR = "oracle_modular"


class Valuation(NamedTuple):
    """A nonnegative prime exponent plus how it was obtained."""

    value: int
    method: Method = Method.FORMULA


# Deterministic Miller-Rabin witness set for n < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_GUARD = 1 << 64


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2^64."""
    if n >= _PRIME_GUARD:
        raise ValueError(f"primality check supports n < 2^64 only, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")


def fib(m: int) -> int:
    """F_m by fast doubling (F_1 = F_2 = 1; F_0 = 0 for internal use)."""
    if m < 0:
        raise ValueError(f"Fibonacci index must be >= 0, got {m}")
    a, b = 0, 1  # F_0, F_1
    for i in range(m.bit_length() - 1, -1, -1):
        c = a * (2 * b - a)  # F_{2j}
        d = a * a + b * b    # F_{2j+1}
        if (m >> i) & 1:
            a, b = d, c + d
        else:
            a, b = c, d
    return a


def fib_mod(m: int, modulus: int) -> int:
    """F_m mod modulus by fast doubling; agrees with fib(m) % modulus."""
    if m < 0:
        raise ValueError(f"Fibonacci index must be >= 0, got {m}")
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if modulus == 1:
        return 0
    a, b = 0, 1
    for i in range(m.bit_length() - 1, -1, -1):
        c = a * (2 * b - a) % modulus
        d = (a * a + b * b) % modulus
        if (m >> i) & 1:
            a, b = d, (c + d) % modulus
        else:
            a, b = c, d
    return a


def _nu_int(p: int, x: int) -> int:
    # x != 0 assumed: nu_p(0) is infinite, and the loop below never ends on it
    if x < 0:
        x = -x
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def digit_sum(q: int, n: int) -> int:
    """Sum of the base-q digits of n."""
    if q < 2:
        raise ValueError(f"digit base must be >= 2, got {q}")
    if n < 0:
        raise ValueError(f"digit sum needs n >= 0, got {n}")
    if q == 2:
        return n.bit_count()
    s = 0
    while n:
        n, r = divmod(n, q)
        s += r
    return s


def _nu_factorial_int(p: int, n: int) -> int:
    # p prime, n >= 0 assumed
    num = n - digit_sum(p, n)
    if num % (p - 1):
        raise FormulaIntegrityError(f"(n - s_p(n)) not divisible by p-1 for p={p}, n={n}")
    return num // (p - 1)
