"""Brute-force ground truth for Fibonomial valuations.

Two deliberately naive, mutually independent routes:

* tier A ("exact"): build the Fibonomial coefficient as a big integer, the
  quotient F_(m-k+1)...F_m / (F_1...F_k) with k = min(k, m - k), and count
  prime factors directly.  Each F_i with i > k/2 is first cancelled, by a
  division checked by its remainder, into a window factor at a multiple of
  i when it divides it, which leaves about a quarter of the divisor's bits
  for the one final division.  Each product multiplies runs of 32 factors,
  then the run products as a balanced tree, so that its large
  multiplications pair operands of like size.  Tier A keeps no state
  between calls; its index cap, the ``cap`` argument alone
  (EXACT_CAP_DEFAULT if not given, at most EXACT_CAP_MAX), bounds the time
  a call takes;
* tier B ("modular"): sum per-index Fibonacci valuations nu_p(F_i) over a
  per-prime prefix, built by one forward recurrence sweep.

The tier-B sweep fixes M = p^E, the largest power of p below 2^63 (M = p
for p >= 2^63), seeds the pair (F_i, F_{i+1}) mod M by fast doubling at the
end of the prefix built so far, and steps it with one addition and one
conditional subtraction per index.  The residue r = F_i mod M gives the
valuation exactly whenever r != 0: nu_p(F_i) = nu_p(r), since nu_p(r) < E.
Only r = 0 (p^E | F_i) falls back to ``arith._index_valuation``, which
tests F_i against increasing prime powers with fast doubling, up to a hard
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
layer; this module must never import fibval.formulas.
"""

from __future__ import annotations

import threading
from array import array
from enum import Enum
from math import prod

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
# highest tier-A cap: one call at m = 2000, k = 1000 takes about a quarter second
EXACT_CAP_MAX = 2000
MODULAR_CAP = 10**7
# most tier-B prefix entries over all primes (8 bytes each): two full prefixes
PREFIX_ENTRY_CAP = 2 * (MODULAR_CAP + 1)
_SWEEP_BOUND = 1 << 63
# The default of VerifyConfig.index_cap and `fibval verify --index-cap`, and a
# verify report's exit codes: a mismatch, else an uncovered branch.  The CLI's
# parser and main() read them too, so they live here, which every command
# loads, rather than in verify, which only `fibval verify` loads.
INDEX_CAP_DEFAULT = 10**5
EXIT_MISMATCH = 1
EXIT_COVERAGE = 4
_RUN = 32  # tier-A factors multiplied one at a time before the runs are paired


class OracleTier(Enum):
    EXACT = "exact"
    MODULAR = "modular"


# Bound once: a read of OracleTier.X goes through the enum type's __getattr__,
# about ten times a module-global read, and every oracle call compares its tier.
_EXACT = OracleTier.EXACT
_MODULAR = OracleTier.MODULAR


def _product(xs: list[int], lo: int, hi: int) -> int:
    """xs[lo] * ... * xs[hi - 1] (hi > lo) as a balanced tree of products."""
    if hi - lo == 1:
        return xs[lo]
    mid = (lo + hi) // 2
    return _product(xs, lo, mid) * _product(xs, mid, hi)


def _run_product(xs: list[int]) -> int:
    """The product of xs: runs of _RUN factors one at a time, then the runs as a tree."""
    runs = [prod(xs[start:start + _RUN]) for start in range(0, len(xs), _RUN)]
    return _product(runs, 0, len(runs)) if runs else 1


def fibonomial_exact(m: int, k: int, cap: int | None = None) -> int:
    """The Fibonomial coefficient as an exact integer.

    With k = min(k, m - k), F_(m-k+1)...F_m is divided by F_1...F_k; both
    lists of factors step a Fibonacci pair by addition.  Before either
    product is built, each F_i with k/2 < i <= k is divided into the window
    factor at the first multiple of i, else at the next one if the window
    holds it, wherever that division leaves no remainder; an F_i neither
    takes stays in the divisor.  F_i | F_j for i | j only chooses where a
    division is tried: each is checked by its remainder, so the quotient is
    unchanged and the one final division, of what the window keeps by what
    the divisor keeps, is still asserted exact, witnessing integrality on
    every call.  The factors F_i with i > k/2 hold about three quarters of
    the divisor's bits, and each has at most two multiples in the window.
    Each product multiplies runs of _RUN factors one at a time, then the
    run products as a balanced tree: multiplying a growing product by one
    factor at a time costs time quadratic in its size, while a tree
    multiplies operands of like size, which Karatsuba speeds up.  ``cap``,
    the index cap, is EXACT_CAP_DEFAULT if not given and must lie between
    1 and EXACT_CAP_MAX.
    """
    if cap is None:
        cap = EXACT_CAP_DEFAULT
    elif cap < 1:
        raise ValueError(f"exact tier cap must be >= 1, got {show_int(cap)}")
    elif cap > EXACT_CAP_MAX:
        raise ValueError(f"exact tier cap must be <= {EXACT_CAP_MAX}, got {show_int(cap)}")
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got m={show_int(m)}, k={show_int(k)}")
    if m > cap:
        raise ValueError(f"exact tier capped at m <= {cap}, got m={show_int(m)}")
    k = min(k, m - k)
    top, top_next = fib(m - k), fib(m - k + 1)
    if not k:
        return 1
    lo = m - k + 1
    window, lows = [], []  # F_lo..F_m and F_1..F_k
    low, low_next = 0, 1
    for _ in range(k):
        top, top_next = top_next, top + top_next
        low, low_next = low_next, low + low_next
        window.append(top)
        lows.append(low)
    dens = lows[:k // 2]
    for i in range(k // 2 + 1, k + 1):
        f = lows[i - 1]
        j = -lo % i  # window offset of the first multiple of i
        q, r = divmod(window[j], f)
        if r and j + i < k:
            j += i
            q, r = divmod(window[j], f)
        if r:
            dens.append(f)
        else:
            window[j] = q
    q, r = divmod(_run_product(window), _run_product(dens))
    if r:
        raise FormulaIntegrityError(f"Fibonomial product not an integer at (m={m}, k={k})")
    return q


# Per-prime prefix sums of nu_p(F_i):  _val_sums[p][j] = sum_{i<=j} nu_p(F_i).
# Every key is a prime, checked before its first build.  Keys are in build
# order, the last built last.
_val_sums: dict[int, array] = {}
_sums_lock = threading.Lock()


def _sweep_modulus(p: int) -> int:
    """p^E for the largest E >= 1 with p^E < 2^63 (p itself if p >= 2^63)."""
    modulus = p
    while modulus * p < _SWEEP_BOUND:
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
    try:
        for i in range(start, j + 1):
            a, b = b, a + b
            if b >= modulus:
                b -= modulus
            if a % p == 0:
                total += _nu_int(p, a) if a else _index_valuation(p, i)
            append(total)
        if a != fib_mod(j, modulus) or b != fib_mod(j + 1, modulus):
            raise FormulaIntegrityError(
                f"F_{j} mod {p}^E drifted from fast doubling in the tier-B sweep for p={p}")
    except BaseException:
        del sums[start:]
        raise


def _valuation_prefix(p: int, j: int) -> array:
    sums = _val_sums.get(p)
    if sums is None or len(sums) <= j:
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


def nu_fibonomial_oracle(p: int, m: int, k: int, tier: OracleTier = OracleTier.MODULAR,
                         cap: int | None = None) -> Valuation:
    """Ground-truth nu_p of a Fibonomial coefficient via the chosen tier.

    ``cap`` is tier A's index cap (see ``fibonomial_exact``), EXACT_CAP_DEFAULT
    if not given; the modular tier is capped at MODULAR_CAP and rejects any
    ``cap`` given.
    """
    sums = _val_sums.get(p)
    if tier is _EXACT or sums is None:
        require_prime(p)
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got m={show_int(m)}, k={show_int(k)}")
    if tier is _EXACT:
        value = _nu_int(p, fibonomial_exact(m, k, cap=cap))
        return _VALUATIONS[value] if value < _VALUATION_BOUND else Valuation(value)
    if tier is not _MODULAR:
        raise ValueError(f"tier must be an OracleTier, got {tier!r}")
    if cap is not None:
        raise ValueError(f"the modular tier takes no cap (it is capped at m <= {MODULAR_CAP}), "
                         f"got cap={show_int(cap)}")
    if m > MODULAR_CAP:
        raise ValueError(f"modular tier capped at m <= {MODULAR_CAP}, got m={show_int(m)}")
    if sums is None or len(sums) <= m:
        sums = _valuation_prefix(p, m)
    total = sums[m] - sums[m - k] - sums[k]
    if total < 0:
        raise FormulaIntegrityError(
            f"negative valuation sum at (p={p}, m={m}, k={k}); integrality violated")
    return _VALUATIONS[total] if total < _VALUATION_BOUND else Valuation(total)


def clear_caches() -> None:
    with _sums_lock:
        _val_sums.clear()
