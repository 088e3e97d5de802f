"""Rank of apparition z(p): the first Fibonacci index divisible by p.

z(p) divides N = p - (5/p), that is p + 1 for p = +-2 (mod 5), p - 1 for
p = +-1 (mod 5) and 5 for p = 5, and p | F_i exactly when z(p) | i.  So z(p)
is found by descending from N through its prime factors, as for a
multiplicative order: the cost is factoring N (trial division, then Pollard
rho on the cofactor) plus O(log N) fib_mod calls per prime factor, which
bounds it for every prime below 2^64.

Records are cached per prime because the formula layer queries the same
handful of primes millions of times during a grid run.  A record exists only
for a prime: a cache miss runs ``require_prime`` first, so the record is the
formula layer's proof that p is prime, and p's class mod 5 is read from it
without a second primality test.  The record stores that class as a field,
set once per prime, so a read is a slot load rather than a residue test.
This is the package's one test of p mod 5: ``verify`` reads the class from
the record too.  nu_p(F_z) comes from ``arith._index_valuation``, the
prime-power search that the tier-B oracle also runs.

Each ``Mod5Class`` member is also bound at import under a private module
name (``_PLUS_MINUS_1``, ...), which the formula layer imports: on CPython
3.11 reading ``Mod5Class.X`` goes through the enum type's ``__getattr__``,
about ten times the cost of a module-global read, and the formulas compare
the class on every evaluation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum

from .arith import FormulaIntegrityError, _index_valuation, fib_mod, is_prime, require_prime

# Trial division runs over 2 and the odd numbers below this bound; what is
# left then has no factor below it, so a cofactor under its square is prime.
_TRIAL_BOUND = 1 << 10


class Mod5Class(Enum):
    PLUS_MINUS_1 = "plus_minus_1"
    PLUS_MINUS_2 = "plus_minus_2"
    IS_5 = "is_5"


_PLUS_MINUS_1 = Mod5Class.PLUS_MINUS_1
_PLUS_MINUS_2 = Mod5Class.PLUS_MINUS_2
_IS_5 = Mod5Class.IS_5


@dataclass(frozen=True, slots=True)
class RankRecord:
    p: int
    z: int       # smallest index with p | F_z
    nu_fz: int   # nu_p(F_z), always >= 1
    mod5: Mod5Class  # residue class of p mod 5 that selects the closed-form branch


_cache: dict[int, RankRecord] = {}
_cache_lock = threading.Lock()


def rank_of_apparition(p: int) -> RankRecord:
    """RankRecord for a prime p, computed on first use and cached.

    A miss checks that p is prime (ValueError otherwise, or for p >= 2^64);
    a hit is a dict lookup.

    z is the least divisor of N = p - (5/p) with p | F_z: starting from N,
    each prime factor q of N is divided out while F_(z/q) = 0 (mod p).  The
    cost is factoring N plus O(log N) fib_mod calls per prime factor.
    """
    rec = _cache.get(p)
    if rec is not None:
        return rec
    require_prime(p)
    if p == 5:
        mod5, z = _IS_5, _descend_rank(p, 5)
    elif p % 5 in (1, 4):
        mod5, z = _PLUS_MINUS_1, _descend_rank(p, p - 1)
    else:
        mod5, z = _PLUS_MINUS_2, _descend_rank(p, p + 1)
    rec = RankRecord(p, z, _index_valuation(p, z), mod5)
    with _cache_lock:
        _cache.setdefault(p, rec)
    return rec


def _descend_rank(p: int, z: int) -> int:
    """z(p), the least divisor d of z = p - (5/p) with p | F_d."""
    if fib_mod(z, p):
        raise FormulaIntegrityError(f"F_{z} is not divisible by p={p}")
    for q in _prime_factors(z):
        while z % q == 0 and fib_mod(z // q, p) == 0:
            z //= q
    return z


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of 1 <= n < 2^64, in increasing order."""
    factors = set()
    q = 2
    while q < _TRIAL_BOUND and q * q <= n:
        if n % q == 0:
            factors.add(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m):
            factors.add(m)
        else:
            d = _pollard_rho(m)
            stack += (d, m // d)
    return sorted(factors)


def _pollard_rho(n: int) -> int:
    """A proper factor of n, an odd composite with no factor below
    _TRIAL_BOUND (Brent's cycle search, gcds batched over 128 steps)."""
    for c in range(1, n):
        y, r, g = 2, 1, 1
        prod = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = math.gcd(prod, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step again one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise FormulaIntegrityError(f"Pollard rho found no factor of {n}")


def clear_cache() -> None:
    with _cache_lock:
        _cache.clear()
