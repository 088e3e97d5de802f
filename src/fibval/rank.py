"""Rank of apparition z(p): the first Fibonacci index divisible by p.

z(p) divides N = p - (5/p), that is p + 1 for p = +-2 (mod 5), p - 1 for
p = +-1 (mod 5) and 5 for p = 5, and p | F_i exactly when z(p) | i.  So z(p)
is found by descending from N through its prime factors, as for a
multiplicative order: the cost is factoring N (trial division by the 172
primes below 2^10, then Pollard rho on the cofactor) plus O(log N) fib_mod
calls per prime factor, which bounds it for every prime below 2^64.

Records are cached per prime because the formula layer queries the same
handful of primes millions of times during a grid run.  The cache keeps at
most _CACHE_BOUND records (about 160 B each) and drops the oldest first; a
dropped prime is checked and built again on its next use.  A record exists only
for a prime: a cache miss runs ``require_prime`` first, so the record is the
formula layer's proof that p is prime, and p's class mod 5 is read from it
without a second primality test.  The record stores that class as a field,
set once per prime, so a read is a field read rather than a residue test.
This is the package's one test of p mod 5: ``verify`` reads the class from
the record too.  nu_p(F_z) comes from ``arith._index_valuation``, the
prime-power search that the tier-B oracle also runs: one fast doubling mod
p^2 at z gives it whenever it is 1, and no prime below 2^64 is known
where it is not (see ``arith._EXPONENT_CAP``).

``Mod5Class.PLUS_MINUS_1`` and ``Mod5Class.PLUS_MINUS_2`` are also bound at
import under private module names (``_PLUS_MINUS_1``, ``_PLUS_MINUS_2``),
which the formula layer imports: on CPython 3.11 reading ``Mod5Class.X``
goes through the enum type's ``__getattr__``, about ten times the cost of a
module-global read, and the formulas compare the class on every evaluation.
"""

from __future__ import annotations

import itertools
import math
import threading
from enum import Enum
from typing import NamedTuple

from .arith import FormulaIntegrityError, _index_valuation, fib_mod, is_prime, require_prime

# Trial division runs over the primes below this bound; what is left then
# has no factor below it, so a cofactor under its square is prime.
_TRIAL_BOUND = 1 << 10


def _primes_below(bound: int) -> tuple[int, ...]:
    """The primes below bound, by a sieve of Eratosthenes over a bytearray."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(bound - 1) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, bound, q)))
    return tuple(itertools.compress(range(bound), sieve))


_TRIAL_PRIMES = _primes_below(_TRIAL_BOUND)


class Mod5Class(Enum):
    PLUS_MINUS_1 = "plus_minus_1"
    PLUS_MINUS_2 = "plus_minus_2"
    IS_5 = "is_5"


_PLUS_MINUS_1 = Mod5Class.PLUS_MINUS_1
_PLUS_MINUS_2 = Mod5Class.PLUS_MINUS_2


class RankRecord(NamedTuple):
    """The rank data of a prime p, read-only: z, the smallest index with
    p | F_z; nu_fz = nu_p(F_z) >= 1; mod5, p's class mod 5, which selects the
    closed-form branch.
    """

    p: int
    z: int
    nu_fz: int
    mod5: Mod5Class


_CACHE_BOUND = 1 << 16
_cache: dict[int, RankRecord] = {}  # in insertion order, the oldest first
_cache_lock = threading.Lock()


def rank_of_apparition(p: int) -> RankRecord:
    """RankRecord for a prime p, computed on first use and cached (at most _CACHE_BOUND records).

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
        mod5, z = Mod5Class.IS_5, _descend_rank(p, 5)
    elif p % 5 in (1, 4):
        mod5, z = _PLUS_MINUS_1, _descend_rank(p, p - 1)
    else:
        mod5, z = _PLUS_MINUS_2, _descend_rank(p, p + 1)
    rec = RankRecord(p, z, _index_valuation(p, z), mod5)
    with _cache_lock:
        if len(_cache) >= _CACHE_BOUND:
            del _cache[next(iter(_cache))]
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
    """Distinct prime factors of 1 <= n < 2^64, in increasing order.

    Trial division by the primes in _TRIAL_PRIMES stops once q^2 > n, when
    what is left is 1 or prime; a cofactor left after every such prime that
    is not prime goes to Pollard rho.
    """
    factors = set()
    for q in _TRIAL_PRIMES:
        if q * q > n:
            break
        if n % q == 0:
            factors.add(q)
            n //= q
            while n % q == 0:
                n //= q
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
