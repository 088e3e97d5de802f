"""Brute-force ground truth for Fibonomial valuations.

Two deliberately naive, mutually independent routes:

* tier A ("exact"): build the Fibonomial coefficient as a big integer, the
  quotient F_(m-k+1)...F_m / (F_1...F_k) with k = min(k, m - k), and count
  prime factors directly.  It keeps no state between calls; its index cap
  bounds the time a call takes;
* tier B ("modular"): sum per-index Fibonacci valuations nu_p(F_i) over a
  per-prime prefix, built by one forward recurrence sweep.

The tier-B sweep fixes M = p^E, the largest power of p below 2^63 (M = p
for p >= 2^63), seeds the pair (F_i, F_{i+1}) mod M by fast doubling at the
end of the prefix built so far, and steps it with one addition and one
conditional subtraction per index.  The residue r = F_i mod M gives the
valuation exactly whenever r != 0: nu_p(F_i) = nu_p(r), since nu_p(r) < E.
Only r = 0 (p^E | F_i) falls back to testing F_i against increasing prime
powers with fast doubling, up to a hard exponent cap.  When a build ends at
index j, the stepped pair is compared with F_j and F_{j+1} mod M by fast
doubling; a difference raises FormulaIntegrityError and the build is
discarded.  A build runs to at least twice the prefix's length (within
MODULAR_CAP), so a prefix grown a few indices at a time is seeded and
checked O(log j) times.  Each prefix is an array('q') of running sums, 8
bytes an index.  The primality of p is tested before its first build, so
a key of the prefix table is a prime checked once.

Neither route knows anything about ranks of apparition or the closed-form
layer; this module must never import fibval.formulas.
"""

from __future__ import annotations

import os
import threading
from array import array
from enum import Enum

from .arith import FormulaIntegrityError, Valuation, _nu_int, fib, fib_mod, require_prime, show_int

EXACT_CAP_DEFAULT = 400
EXACT_CAP_ENV = "FIBVAL_EXACT_CAP"
MODULAR_CAP = 10**7
_EXPONENT_CAP = 64
_SWEEP_BOUND = 1 << 63


class OracleTier(Enum):
    EXACT = "exact"
    MODULAR = "modular"


def exact_cap() -> int:
    """Tier-A index cap; overridable via the FIBVAL_EXACT_CAP env var."""
    raw = os.environ.get(EXACT_CAP_ENV)
    if raw is None:
        return EXACT_CAP_DEFAULT
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{EXACT_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{EXACT_CAP_ENV} must be >= 1, got {cap}")
    return cap


def fibonomial_exact(m: int, k: int, cap: int | None = None) -> int:
    """The Fibonomial coefficient as an exact integer.

    With k = min(k, m - k), F_(m-k+1)...F_m is divided by F_1...F_k; both
    products step a Fibonacci pair by addition, and the division is
    asserted exact, witnessing integrality on every call.
    """
    if cap is None:
        cap = exact_cap()
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got m={show_int(m)}, k={show_int(k)}")
    if m > cap:
        raise ValueError(f"exact tier capped at m <= {cap}, got m={show_int(m)}")
    k = min(k, m - k)
    num = den = 1
    top, top_next = fib(m - k), fib(m - k + 1)
    low, low_next = 0, 1
    for _ in range(k):
        top, top_next = top_next, top + top_next
        low, low_next = low_next, low + low_next
        num *= top
        den *= low
    q, r = divmod(num, den)
    if r:
        raise FormulaIntegrityError(f"Fibonomial product not an integer at (m={m}, k={k})")
    return q


# Per-prime prefix sums of nu_p(F_i):  _val_sums[p][j] = sum_{i<=j} nu_p(F_i).
# Every key is a prime, checked before its first build.
_val_sums: dict[int, array] = {}
_sums_lock = threading.Lock()


def _index_valuation(p: int, i: int) -> int:
    """nu_p(F_i) by escalating prime-power residue tests."""
    if fib_mod(i, p) != 0:
        return 0
    e = 1
    modulus = p * p
    while fib_mod(i, modulus) == 0:
        e += 1
        if e >= _EXPONENT_CAP:
            raise FormulaIntegrityError(f"nu_{p}(F_{i}) reached the hard cap {_EXPONENT_CAP}")
        modulus *= p
    return e


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
            sums = _val_sums.setdefault(p, array("q", [0]))
            if len(sums) <= j:
                # at least doubling keeps the seed and the end check to O(log j) builds
                _extend_prefix(p, sums, max(j, min(2 * len(sums), MODULAR_CAP)))
    return sums


def nu_fibonomial_oracle(p: int, m: int, k: int, tier: OracleTier = OracleTier.MODULAR,
                         cap: int | None = None) -> Valuation:
    """Ground-truth nu_p of a Fibonomial coefficient via the chosen tier."""
    if tier is OracleTier.EXACT or p not in _val_sums:
        require_prime(p)
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got m={show_int(m)}, k={show_int(k)}")
    if tier is OracleTier.EXACT:
        return Valuation(_nu_int(p, fibonomial_exact(m, k, cap=cap)))
    if m > MODULAR_CAP:
        raise ValueError(f"modular tier capped at m <= {MODULAR_CAP}, got m={show_int(m)}")
    sums = _valuation_prefix(p, m)
    total = sums[m] - sums[m - k] - sums[k]
    if total < 0:
        raise FormulaIntegrityError(
            f"negative valuation sum at (p={p}, m={m}, k={k}); integrality violated")
    return Valuation(total)


def clear_caches() -> None:
    with _sums_lock:
        _val_sums.clear()
