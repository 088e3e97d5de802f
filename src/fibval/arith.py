"""Exact integer arithmetic primitives.

Everything here works on Python ints (arbitrary precision); there is no
floating point anywhere in the package.  Fractional quantities are handled
as (numerator mod denominator, denominator) pairs and only ever combined
over a common denominator, with the final division checked to be exact.
"""

from __future__ import annotations

from typing import NamedTuple


class FormulaIntegrityError(RuntimeError):
    """An internal cross-check failed: a quantity that must be an integer
    was not, a redundant encoding disagreed, or a bounded search ran past
    its hard cap.  Any occurrence is a bug, never a data error."""


class Valuation(NamedTuple):
    """Just a nonnegative prime exponent.  It stays a record, not a bare int,
    because perfbench/workloads.py reads ``.value`` from formula and oracle results.
    Results below _VALUATION_BOUND share the immutable entries of _VALUATIONS,
    built once here; a larger one is built anew.  The table goes with Valuation."""

    value: int


_VALUATION_BOUND = 128
_VALUATIONS = tuple(Valuation(v) for v in range(_VALUATION_BOUND))


def show_int(x: int) -> str:
    """x in decimal up to 1024 bits (309 digits, within any int-to-str limit), else by size."""
    sign = "-" if x < 0 else ""
    return str(x) if x.bit_length() <= 1024 else f"{sign}<{x.bit_length()}-bit integer>"


# Deterministic Miller-Rabin: the first t bases decide every n below the bound
# paired with t, the least strong pseudoprime to those t bases: Jaeschke, Math.
# Comp. 61 (1993) up to 341550071728321; Jiang and Deng, Math. Comp. 83 (2014)
# for 3825123056546413051; Sorenson and Webster, Math. Comp. 86 (2017) for 12
# bases, whose bound lies beyond 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_GUARD = 1 << 64
_MR_TIERS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
             (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
             (_PRIME_GUARD, 12))


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2^64."""
    if n >= _PRIME_GUARD:
        raise ValueError(f"primality check supports n < 2^64 only, got {show_int(n)}")
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
    for bound, t in _MR_TIERS:
        if n < bound:
            break
    for base in _MR_BASES[:t]:
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
        raise ValueError(f"expected a prime, got {show_int(p)}")


def fib(m: int) -> int:
    """F_m by fast doubling (F_1 = F_2 = 1; F_0 = 0 for internal use)."""
    if m < 0:
        raise ValueError(f"Fibonacci index must be >= 0, got {show_int(m)}")
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
        raise ValueError(f"Fibonacci index must be >= 0, got {show_int(m)}")
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {show_int(modulus)}")
    a, b = 0, 1
    for bit in bin(m)[2:]:  # m's bits from the top; a string walk beats shifting m
        c = a * (2 * b - a) % modulus
        d = (a * a + b * b) % modulus
        if bit == "1":
            a, b = d, (c + d) % modulus
        else:
            a, b = c, d
    return a


def _nu_int(p: int, x: int) -> int:
    # x > 0 assumed: nu_p(0) is infinite, and the loop below never ends on it
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


# Hard stop for the nu_p(F_i) exponent search.  No prime with
# nu_p(F_z(p)) >= 2 is known below 2^64, so nu_p(F_i) <= 63 for every
# index i < 2^63 (p = 2 at i = 3*2^61), and hitting this is a bug.
_EXPONENT_CAP = 64


def _index_valuation(p: int, i: int) -> int:
    """nu_p(F_i) for i >= 1 by escalating prime-power residue tests.

    One fast doubling mod p^2 decides every nu <= 1: r = F_i mod p^2 gives 0
    when p does not divide r and 1 when r is a nonzero multiple of p.  Only
    p^2 | F_i goes on, from p^3, so nu >= 2 costs nu doublings.  Both callers
    (the rank record's nu_p(F_z) and tier B's zero-residue fallback) ask
    only about an index with p | F_i, so a doubling mod p would tell them
    nothing.
    """
    r = fib_mod(i, p * p)
    if r:
        return 0 if r % p else 1
    e = 2
    modulus = p * p * p
    while fib_mod(i, modulus) == 0:
        e += 1
        if e >= _EXPONENT_CAP:
            raise FormulaIntegrityError(f"nu_{p}(F_{i}) reached the hard cap {_EXPONENT_CAP}")
        modulus *= p
    return e


def digit_sum(q: int, n: int) -> int:
    """Sum of the base-q digits of n."""
    if q < 2:
        raise ValueError(f"digit base must be >= 2, got {show_int(q)}")
    if n < 0:
        raise ValueError(f"digit sum needs n >= 0, got {show_int(n)}")
    if q == 2:
        return n.bit_count()
    s = 0
    while n:
        n, r = divmod(n, q)
        s += r
    return s


def _nu2_factorial(n: int) -> int:
    """nu_2(n!) = n - s_2(n) (Legendre's formula).  A negative n is a caller bug and raises."""
    if n < 0:
        raise FormulaIntegrityError(f"nu_2(n!) needs n >= 0, got n={show_int(n)}")
    return n - n.bit_count()
