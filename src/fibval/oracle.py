"""Brute-force ground truth for Fibonomial valuations.

Two deliberately naive, mutually independent routes:

* tier A ("exact"): nu_p summed over Fibonacci primitive parts.  F_n is
  the product of P_d over the divisors d of n, so C(m, k)_F =
  F_(m-k+1)...F_m / (F_1...F_k) is the product of P_d over its
  carry set, the d <= m with e_d = floor(m/d) - floor(k/d) -
  floor((m-k)/d) = 1, that is with k mod d > m mod d; e_d is always 0 or 1
  (Knuth and Wilf, "The power of a prime that divides a generalized
  binomial coefficient", J. reine angew. Math. 396, 1989).  Above m/2,
  m mod d = m - d, so there the rule picks exactly the d > max(k, m - k):
  it runs for d <= m/2 only, and the rest of the carry set is one slice of
  the table.  The parts come from one module-level table, _parts[d] = P_d,
  built by a divisor sieve over F_1..F_n, stepped by addition from two
  ``fib`` seeds: each F_n is divided by P_d for every proper divisor d of
  n, by a division checked by its remainder.  A build rejects a stepped
  factor below 1 before it sieves, and ends by comparing the stepped pair
  with ``fib``; any failure raises FormulaIntegrityError and leaves the
  table as it was.  The oracle never multiplies the parts: it sums nu_p
  over the carry set's parts that p divides, by one rule for each part (at
  p = 2, the lowest set bit of each even part).  So tier A keeps state: a
  build runs to at least twice the table's length, within the call's index
  cap, so the table never holds more than EXACT_CAP_MAX + 1 entries (about
  176 KiB), and ``clear_caches`` drops it.  The index cap bounds the time
  a call takes: ``reach`` alone checks it and the tier, for the oracle,
  ``verify`` and ``eval``;
* tier B ("modular"): sum per-index Fibonacci valuations nu_p(F_i) over a
  per-prime prefix, built by one forward recurrence sweep.

The tier-B sweep fixes M = p^E, the largest power of p below 2^30 when
that gives E >= 2 (M = 2^29 at p = 2), so that on CPython every residue is
a one-digit int; for p > 2^15 it is the largest power below 2^63 (M = p for
p >= 2^63), since a one-digit M = p would send every multiple of z(p) to
the fallback below.  The sweep seeds the pair (F_i, F_{i+1}) mod M by fast
doubling at the end of the prefix built so far, and steps it with one
addition and one conditional subtraction per index.  The residue
r = F_i mod M gives the valuation exactly whenever r != 0:
nu_p(F_i) = nu_p(r), since nu_p(r) < E; at p = 2 that is the lowest set
bit of r, the rule tier A uses.  Only r = 0 (p^E | F_i; at p = 2 first at
i = 3*2^27, past MODULAR_CAP) falls back to ``arith._index_valuation``, which
reads F_i mod p^2 by one fast doubling, enough whenever nu_p(F_i) <= 1,
and only when p^2 | F_i tests F_i against p^3, p^4, ... up to a hard
exponent cap; that search lives in ``arith`` because the rank layer reads
nu_p(F_z(p)) from it too.  When a build ends at index j, the stepped pair
is compared with F_j and F_{j+1} mod M by fast doubling; a difference
raises FormulaIntegrityError and the build is discarded.  A build runs to
at least twice the prefix's length (within MODULAR_CAP), so a prefix grown
a few indices at a time is seeded and checked O(log j) times.  Each prefix
is an array('q') of running sums, 8 bytes an index.  The primality of p is
tested before its first build, so a key of the prefix table is a prime
checked once.  After a build, whole prefixes of other primes are evicted,
oldest-built first, while the table holds more than PREFIX_ENTRY_CAP
entries; an evicted prime is checked and built again on its next query.

Neither route knows anything about ranks of apparition or the closed-form
layer: tier A's carry rule uses no rank and no p-adic fact.  This module
must never import fibval.formulas or fibval.rank.
"""

from __future__ import annotations

import threading
from array import array
from enum import Enum

from .arith import (
    _VALUATION_BOUND,
    _VALUATIONS,
    FormulaIntegrityError,
    Valuation,
    _index_valuation,
    _nu_int,
    fib,
    fib_mod,
    require_prime,
    show_int,
)

EXACT_CAP_DEFAULT = 400
# highest tier-A cap: the table of parts to P_2000 holds about 176 KiB, and a
# cold build to it takes under a tenth of a second
EXACT_CAP_MAX = 2000
MODULAR_CAP = 10**7
# most tier-B prefix entries over all primes (8 bytes each): two full prefixes
PREFIX_ENTRY_CAP = 2 * (MODULAR_CAP + 1)
_SWEEP_BOUND = 1 << 63
_DIGIT_BOUND = 1 << 30  # a CPython int below it is one 30-bit digit
# The default of VerifyConfig.index_cap and `fibval verify --index-cap`, and a
# verify report's exit codes: a mismatch, else an uncovered branch.  The CLI's
# parser and main() read them too, so they live here, which every command
# loads, rather than in verify, which only `fibval verify` loads.
INDEX_CAP_DEFAULT = 10**5
EXIT_MISMATCH = 1
EXIT_COVERAGE = 4


class OracleTier(Enum):
    EXACT = "exact"
    MODULAR = "modular"


# Bound once: a read of OracleTier.X goes through the enum type's __getattr__,
# about ten times a module-global read, and every oracle call compares its tier.
_EXACT = OracleTier.EXACT
_MODULAR = OracleTier.MODULAR


def _nu_factors(p: int, xs: list[int]) -> int:
    """nu_p of the product of xs, each >= 1, summed over the factors p divides."""
    if p == 2:
        return sum((x & -x).bit_length() - 1 for x in xs if not x & 1)
    return sum(_nu_int(p, x) for x in xs if not x % p)


# Tier A's primitive parts: _parts[d] = P_d, with F_n the product of P_d over
# d | n.  _parts[0] = 1 is never read.  A build binds a new, longer list, so a
# reader holding the old one never sees it change.
_parts: list[int] = []
_parts_lock = threading.Lock()


def _grow_parts(top: int) -> list[int]:
    """The table of primitive parts, first extended to P_top if it stops short.

    Steps F_start..F_top from the seeds fib(start - 1) and fib(start), and
    divides each F_n by P_d for every proper divisor d of n, ascending, so
    that F_d is P_d by the time d is reached.  Each division is checked by
    its remainder.
    """
    global _parts
    with _parts_lock:
        parts = _parts
        start = len(parts) or 1
        if start > top:
            return parts
        a, b = fib(start - 1), fib(start)
        table = (parts or [1]) + [0] * (top + 1 - start)
        for n in range(start, top + 1):
            table[n] = b
            a, b = b, a + b
        if min(table[start:]) < 1:  # a true F_n is >= 1, and no division would catch 0
            raise FormulaIntegrityError(f"Fibonacci factor below 1 in the tier-A sieve to F_{top}")
        for d in range(1, top // 2 + 1):
            part = table[d]
            for n in range(max(2 * d, start + -start % d), top + 1, d):
                q, r = divmod(table[n], part)
                if r:
                    raise FormulaIntegrityError(
                        f"what is left of F_{n} over P_{d} is not an integer in the tier-A sieve")
                table[n] = q
        if a != fib(top) or b != fib(top + 1):
            raise FormulaIntegrityError(f"F_{top} drifted from fast doubling in the tier-A sieve")
        _parts = table
    return table


def _carry_parts(m: int, k: int, top: int) -> list[int]:
    """The parts P_d of C(m, k)_F, 0 <= k <= m <= top: the d <= m with k mod d > m mod d.

    The rule runs for d <= m/2 only: above m/2, m mod d = m - d, so the
    carry set there is the d > max(k, m - k), one slice of the table.  A
    table short of m grows to at least twice its length, within the reach top.
    """
    parts = _parts
    if len(parts) <= m:
        parts = _grow_parts(max(m, min(2 * len(parts), top)))
    carry = [parts[d] for d in range(1, m // 2 + 1) if k % d > m % d]
    carry += parts[max(k, m - k) + 1:m + 1]
    return carry


# Per-prime prefix sums of nu_p(F_i):  _val_sums[p][j] = sum_{i<=j} nu_p(F_i).
# Every key is a prime, checked before its first build.  Keys are in build
# order, the last built last.
_val_sums: dict[int, array] = {}
_sums_lock = threading.Lock()


def _sweep_modulus(p: int) -> int:
    """p^E for the largest E with p^E < 2^30 if that E is >= 2, else with p^E < 2^63.

    E is at least 1: p itself for p >= 2^63.
    """
    bound = _DIGIT_BOUND if p * p < _DIGIT_BOUND else _SWEEP_BOUND
    modulus = p
    while modulus * p < bound:
        modulus *= p
    return modulus


def _extend_prefix(p: int, sums: array, j: int) -> None:
    """Append the running sums for indices len(sums)..j by one recurrence sweep.

    If the sweep raises, the entries it appended are removed again.
    """
    modulus = _sweep_modulus(p)
    start = len(sums)
    a, b = fib_mod(start - 1, modulus), fib_mod(start, modulus)
    total = sums[-1]
    append = sums.append
    lowest_bit = p == 2
    try:
        for i in range(start, j + 1):
            a, b = b, a + b
            if b >= modulus:
                b -= modulus
            if not a % p:
                if not a:
                    total += _index_valuation(p, i)
                elif lowest_bit:
                    total += (a & -a).bit_length() - 1
                else:
                    total += _nu_int(p, a)
            append(total)
        if a != fib_mod(j, modulus) or b != fib_mod(j + 1, modulus):
            raise FormulaIntegrityError(
                f"F_{j} mod {p}^E drifted from fast doubling in the tier-B sweep for p={p}")
    except BaseException:
        del sums[start:]
        raise


def _valuation_prefix(p: int, j: int) -> array:
    """p's prefix, built to at least j; the caller has found it short without the lock."""
    with _sums_lock:
        sums = _val_sums.pop(p, None)
        if sums is None:
            sums = array("q", [0])
        _val_sums[p] = sums  # last in build order
        start = len(sums)
        if start <= j:
            # at least doubling keeps the seed and the end check to O(log j) builds
            _extend_prefix(p, sums, max(j, min(2 * start, MODULAR_CAP)))
            while len(_val_sums) > 1 and sum(map(len, _val_sums.values())) > PREFIX_ENTRY_CAP:
                del _val_sums[next(iter(_val_sums))]  # the oldest built, never p
    return sums


def reach(tier: OracleTier, cap: int | None = None) -> int:
    """The largest m the tier answers, and the one check of a tier and a cap:
    MODULAR_CAP for tier B, which takes no cap; for tier A, ``cap``,
    EXACT_CAP_DEFAULT if not given, between 1 and EXACT_CAP_MAX."""
    if tier is _MODULAR:
        if cap is not None:
            raise ValueError(f"the modular tier takes no cap (it is capped at m <= {MODULAR_CAP}), "
                             f"got cap={show_int(cap)}")
        return MODULAR_CAP
    if tier is not _EXACT:
        raise ValueError(f"tier must be an OracleTier, got {tier!r}")
    if cap is None:
        return EXACT_CAP_DEFAULT
    if cap < 1:
        raise ValueError(f"exact tier cap must be >= 1, got {show_int(cap)}")
    if cap > EXACT_CAP_MAX:
        raise ValueError(f"exact tier cap must be <= {EXACT_CAP_MAX}, got {show_int(cap)}")
    return cap


def nu_fibonomial_oracle(p: int, m: int, k: int, tier: OracleTier = OracleTier.MODULAR,
                         cap: int | None = None) -> Valuation:
    """Ground-truth nu_p of a Fibonomial coefficient via the chosen tier, to reach(tier, cap)."""
    sums = _val_sums.get(p)
    if tier is _EXACT or sums is None:
        require_prime(p)
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got m={show_int(m)}, k={show_int(k)}")
    top = reach(tier, cap)
    if m > top:
        raise ValueError(f"{tier.value} tier capped at m <= {top}, got m={show_int(m)}")
    if tier is _EXACT:
        total = _nu_factors(p, _carry_parts(m, k, top))
    else:
        if sums is None or len(sums) <= m:
            sums = _valuation_prefix(p, m)
        total = sums[m] - sums[m - k] - sums[k]
        if total < 0:  # a true Fibonomial coefficient is an integer
            raise FormulaIntegrityError(
                f"negative valuation sum at (p={p}, m={m}, k={k}); integrality violated")
    return _VALUATIONS[total] if total < _VALUATION_BOUND else Valuation(total)


def clear_caches() -> None:
    global _parts
    with _sums_lock:
        _val_sums.clear()
    with _parts_lock:
        _parts = []
