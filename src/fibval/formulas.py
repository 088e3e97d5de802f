"""Closed-form p-adic valuations of Fibonomial coefficients.

Three families of formulas, each returning the valuation together with a
BranchTrace recording which case fired and every intermediate quantity:

* ``nu_fibonomial_formula``   -- general (m, k), any prime;
* ``nu_ratio_prime_powers``   -- (l1*p^b, l2*p^a) prime-power-ratio shape;
* ``nu2_central`` / ``nu5_central`` / ``nup_central`` -- the central shape
  (p^a*n, n), which is where the divisibility predicates live.

All case dispatch is over exact integer residues.  Every quantity the
formulas claim to be an integer is divided with an exactness check, and
the trickiest case table (the 2-adic central delta) is encoded twice and
compared at runtime, so a transcription slip fails loudly instead of
returning a plausible wrong number.

Each public entry validates its input once, through two gates.  The prime
gate is ``rank_of_apparition(p)``: its record exists only for a prime, and
it carries everything the formulas read about p: z(p), nu_p(F_z(p)) and
p's class mod 5, which the record stores as a field set once per prime.
The index gate is ``check_index``, which bounds p^a*n by bit lengths
before it builds p**a and returns the index for reuse.

Every ``Theorem`` and ``DivReason`` member, and the ``Mod5Class`` members
from ``rank``, is bound once at import under a private module name
(``_C2ADIC``, ``_FORMULA_ZERO``, ``_PLUS_MINUS_1``, ...), and the function
bodies read those names.  On CPython 3.11 a read of ``Theorem.X`` goes
through the enum type's ``__getattr__`` (0.10-0.15 us) where a module
global costs about 0.01 us, and one evaluation makes several such reads.
The formulas themselves stay module globals looked up at call time, so
that a tracer can patch them.

Results skip a NamedTuple's keyword-argument ``__new__``.  Each entry ends
in one check that its value is not negative, then reads it from
``arith._VALUATIONS`` (Valuation(0) .. Valuation(127), built once) or, past
that bound, builds a ``Valuation``.  Each entry builds its ``BranchTrace``
once, through ``_new``, ``tuple.__new__`` bound once (on CPython 3.11 every
``tuple.__new__`` is a lookup on a type), with its fields positionally in
declared order.  A slip in that order would go unnoticed by the type, so
``test_trace_field_order`` pins the field order and the golden traces in
``tests/test_formulas.py`` pin every entry.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .arith import (
    _VALUATION_BOUND,
    _VALUATIONS,
    FormulaIntegrityError,
    Valuation,
    _nu2_factorial,
    _nu_int,
    digit_sum,
    show_int,
)
from .rank import _PLUS_MINUS_1, _PLUS_MINUS_2, rank_of_apparition

# arith._EXPONENT_CAP bounds nu_p(F_i) only for indices below 2^63.
INDEX_CAP = 1 << 63
_new = tuple.__new__  # builds every BranchTrace (see the module docstring)


class Theorem(Enum):
    # Enum's own __hash__ is a Python-level call.  Members are singletons that
    # compare by identity, so the identity hash agrees with equality, and
    # run_verify's per-cell (theorem, label) coverage keys hash in C.
    __hash__ = object.__hash__

    T2ADIC_GENERAL = "T2adic_general"
    T5ADIC = "T5adic"
    TP_GENERAL_MK = "Tp_general_mk"
    TRATIO = "Tratio"
    C2ADIC = "C2adic"
    C5ADIC = "C5adic"
    CP = "Cp"


_T2ADIC_GENERAL = Theorem.T2ADIC_GENERAL
_T5ADIC = Theorem.T5ADIC
_TP_GENERAL_MK = Theorem.TP_GENERAL_MK
_TRATIO = Theorem.TRATIO
_C2ADIC = Theorem.C2ADIC
_C5ADIC = Theorem.C5ADIC
_CP = Theorem.CP


class BranchTrace(NamedTuple):
    """Which formula case fired, plus its intermediates.

    ``r`` and ``s`` are residues of the two Fibonomial indices modulo
    ``modulus`` (6 for the 2-adic tables, z(p) otherwise).  Fields that a
    given formula does not define are None.

    The formulas build traces positionally, all 13 fields in the declared
    order below, through ``tuple.__new__``; ``test_trace_field_order`` and
    the golden traces pin that order, so fields may not be reordered or
    inserted without updating every construction site.
    """

    theorem: Theorem
    branch_label: str
    modulus: int | None = None
    r: int | None = None
    s: int | None = None
    A: int | None = None
    delta: int | None = None
    epsilon: int | None = None
    z: int | None = None
    nu_fz: int | None = None
    b: int | None = None
    m_prime: int | None = None
    k_prime: int | None = None

    def describe(self) -> str:
        if self.theorem is _T2ADIC_GENERAL and self.r is not None:
            return f"{self.branch_label}, ({self.r},{self.s})"
        return self.branch_label


BOUNDARY_LABEL = "boundary"  # k = 0 or k = m; short-circuits every theorem

#: Least central cofactor of a row that needs n >= z(p) (see BRANCH_REACH).
AT_RANK = "z(p)"

#: Every dispatchable case of every formula, with the reach a verify run
#: needs to fire it: (theorem, label, prime class, least a, least n).  The
#: prime class is "2", "5", "odd" (any other prime), "pm1" or "pm2" (an odd
#: prime = +-1 or +-2 mod 5).  The least a is the a_max the run needs.  The
#: least n is that of a central cell (p^a*n, n) at the least a; None marks a
#: row that only the general or ratio sweeps reach, and AT_RANK n >= z(p).
BRANCH_REACH: tuple[tuple[Theorem, str, str, int, int | str | None], ...] = (
    (Theorem.T2ADIC_GENERAL, "r>=s", "2", 1, None),
    (Theorem.T2ADIC_GENERAL, "r>=s exceptional", "2", 1, None),
    (Theorem.T2ADIC_GENERAL, "r<s exceptional", "2", 1, None),
    (Theorem.T2ADIC_GENERAL, "r<s", "2", 1, None),
    (Theorem.T5ADIC, "binomial", "5", 1, None),
    (Theorem.TP_GENERAL_MK, "r>=s", "odd", 1, None),
    (Theorem.TP_GENERAL_MK, "r<s", "odd", 1, None),
    (Theorem.TRATIO, "p2 a=b (eq or l2=0)", "2", 1, None),
    (Theorem.TRATIO, "p2 a=b (l1=0)", "2", 1, None),
    (Theorem.TRATIO, "p2 a=b (1,2)", "2", 1, None),
    (Theorem.TRATIO, "p2 a=b (2,1)", "2", 1, None),
    (Theorem.TRATIO, "p2 a!=b (neg or l2=0)", "2", 1, None),
    (Theorem.TRATIO, "p2 a!=b (l1=0)", "2", 1, None),
    (Theorem.TRATIO, "p2 a!=b (1,1)", "2", 1, None),
    (Theorem.TRATIO, "p2 a!=b (2,2)", "2", 1, None),
    (Theorem.TRATIO, "pm1 r>=s", "pm1", 1, None),
    (Theorem.TRATIO, "pm1 r<s", "pm1", 1, None),
    (Theorem.TRATIO, "pm2 r=s or l2=0", "pm2", 1, None),
    (Theorem.TRATIO, "pm2 l1=0", "pm2", 1, None),
    (Theorem.TRATIO, "pm2 a even r>s", "pm2", 2, None),
    (Theorem.TRATIO, "pm2 a even r<s", "pm2", 2, None),
    (Theorem.TRATIO, "pm2 a odd r>s", "pm2", 1, None),
    (Theorem.TRATIO, "pm2 a odd r<s", "pm2", 1, None),
    (Theorem.C2ADIC, "a even, n%6 in {3,5}", "2", 2, 3),
    (Theorem.C2ADIC, "a even, n%6 in {0,1,2,4}", "2", 2, 1),
    (Theorem.C2ADIC, "a odd, n odd", "2", 1, 1),
    (Theorem.C2ADIC, "a odd, n%6=0", "2", 1, 6),
    (Theorem.C2ADIC, "a odd, n%6=2", "2", 1, 2),
    (Theorem.C2ADIC, "a odd, n%6=4", "2", 1, 4),
    (Theorem.C5ADIC, "s5 digit sum", "5", 1, 1),
    (Theorem.CP, "pm1", "pm1", 1, 1),
    (Theorem.CP, "pm2 a even", "pm2", 2, 1),
    (Theorem.CP, "pm2 a odd r=s", "pm2", 1, AT_RANK),
    (Theorem.CP, "pm2 a odd r<s", "pm2", 1, AT_RANK),
    (Theorem.CP, "pm2 a odd r>s", "pm2", 1, AT_RANK),
)

def qualified_label(theorem: Theorem, label: str) -> str:
    return f"{theorem.value}:{label}"


def all_qualified_labels() -> tuple[str, ...]:
    return tuple(qualified_label(row[0], row[1]) for row in BRANCH_REACH)


def check_index(p: int, a: int, n: int) -> int:
    """The index p^a*n, after checking a >= 1, n >= 1 and p^a*n <= INDEX_CAP.

    p^a*n >= 2^(a*(bitlen p - 1) + bitlen n - 1), so when that exponent
    reaches 64 the index is rejected before p**a is built; otherwise the
    product is small enough to build and compare exactly.
    """
    if a < 1 or n < 1:
        raise ValueError(f"index {show_int(p)}^{show_int(a)}*{show_int(n)} needs a >= 1 and n >= 1")
    if a * (p.bit_length() - 1) + n.bit_length() <= 64:
        index = p**a * n
        if index <= INDEX_CAP:
            return index
    raise ValueError(f"index {show_int(p)}^{show_int(a)}*{show_int(n)} exceeds the 2^63 cap")


# ---------------------------------------------------------------------------
# general (m, k)

# 2-adic exceptional residue pairs mod 6: the first set bumps the base case
# by 1, the second replaces the r<s bump of 3 by 2.
_EXC_GE = frozenset({(3, 1), (3, 2), (4, 2)})
_EXC_LT = frozenset({(0, 3), (1, 3), (2, 3), (1, 4), (2, 4), (2, 5)})

assert all(r > s for r, s in _EXC_GE) and all(r < s for r, s in _EXC_LT)


def nu_fibonomial_formula(p: int, m: int, k: int) -> tuple[Valuation, BranchTrace]:
    """nu_p of the (m, k) Fibonomial coefficient, closed form."""
    rec = rank_of_apparition(p)
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got m={show_int(m)}, k={show_int(k)}")
    if m > INDEX_CAP:
        raise ValueError(f"m={show_int(m)} exceeds the 2^63 cap")
    if k == 0 or k == m:
        theorem = _T2ADIC_GENERAL if p == 2 else _T5ADIC if p == 5 else _TP_GENERAL_MK
        return _VALUATIONS[0], _new(BranchTrace, (
            theorem, BOUNDARY_LABEL, None, None, None, None, None, None, None, None, None,
            None, None))
    z, nu_fz = rec.z, rec.nu_fz
    A = mp = kp = None
    if p == 2:
        theorem, modulus = _T2ADIC_GENERAL, 6
        r, s = m % 6, k % 6
        A = _nu2_factorial(m // 6) - _nu2_factorial(k // 6) - _nu2_factorial((m - k) // 6)
        if (r, s) in _EXC_GE:
            bump, label = 1, "r>=s exceptional"
        elif (r, s) in _EXC_LT:
            bump, label = 2, "r<s exceptional"
        elif r >= s:
            bump, label = 0, "r>=s"
        else:
            bump, label = 3, "r<s"
        value = A + bump
    elif p == 5:
        # 5-adically the Fibonomial and the ordinary binomial agree.
        theorem, label, modulus, r, s = _T5ADIC, "binomial", 5, None, None
        value = _binom_val(5, m, k)
    else:
        theorem, modulus = _TP_GENERAL_MK, z
        mp, r = divmod(m, z)
        kp, s = divmod(k, z)
        value = _binom_val(p, mp, kp)
        if r < s:
            value += _nu_int(p, (m - k) // z + 1) + nu_fz
            label = "r<s"
        else:
            label = "r>=s"
    if value < 0:
        raise FormulaIntegrityError(f"negative valuation at (p={p}, m={m}, k={k})")
    trace = _new(BranchTrace, (
        theorem, label, modulus, r, s, A, None, None, z, nu_fz, None, mp, kp))
    return _VALUATIONS[value] if value < _VALUATION_BOUND else Valuation(value), trace


def _binom_val(p: int, mp: int, kp: int) -> int:
    """nu_p of the binomial coefficient C(mp, kp): the borrows of mp - kp in base p.

    Kummer's theorem, counted in one walk over the base-p digits from the
    lowest, which stops once kp's digits and the borrow are spent.  At
    p = 2 the count is s_2(kp) + s_2(mp - kp) - s_2(mp), by popcounts.  The
    walk divides by p only to split off digits, so unlike Legendre's
    formula it has no quotient to check for exactness; kp outside 0..mp is
    a caller bug and raises.
    """
    if not 0 <= kp <= mp:
        raise FormulaIntegrityError(
            f"C({show_int(mp)}, {show_int(kp)}) needs 0 <= kp <= mp for p={p}")
    if p == 2:
        return kp.bit_count() + (mp - kp).bit_count() - mp.bit_count()
    borrows = borrow = 0
    while kp or borrow:
        if mp % p < kp % p + borrow:
            borrows += 1
            borrow = 1
        else:
            borrow = 0
        mp //= p
        kp //= p
    return borrows


# ---------------------------------------------------------------------------
# prime-power ratio (l1*p^b, l2*p^a)

def nu_ratio_prime_powers(p: int, l1: int, b: int, l2: int, a: int
                          ) -> tuple[Valuation, BranchTrace]:
    """nu_p of the (l1*p^b, l2*p^a) Fibonomial, p != 5, b >= a >= 1.

    Requires l1*p^b > l2*p^a strictly; the equal-index case is the trivial
    coefficient 1 and is the caller's job.
    """
    rec = rank_of_apparition(p)
    if p == 5:
        raise ValueError("the prime-power-ratio formula excludes p = 5")
    if b < a:
        raise ValueError(f"need b >= a, got b={show_int(b)}, a={show_int(a)}")
    m_index = check_index(p, b, l1)
    k_index = check_index(p, a, l2)
    if m_index <= k_index:
        raise ValueError(f"need l1*p^b > l2*p^a, got {m_index} <= {k_index}")
    z, nu_fz = rec.z, rec.nu_fz
    mp = l1 * p**(b - a) // z
    kp = l2 // z
    r = l1 * pow(p, b, z) % z
    s = l2 * pow(p, a, z) % z
    binom = _binom_val(p, mp, kp)
    if p == 2:
        c1, c2 = l1 % 3, l2 % 3
        if (b - a) % 2 == 0:
            if c1 == c2 or c2 == 0:
                value, label = binom, "p2 a=b (eq or l2=0)"
            elif c1 == 0:
                label = "p2 a=b (l1=0)"
                value = a + 2 + _gap_val(2, mp, kp, label) + binom
            elif (c1, c2) == (1, 2):
                label = "p2 a=b (1,2)"
                value = (a + 1) // 2 + 1 + _gap_val(2, mp, kp, label) + binom
            else:  # (c1, c2) == (2, 1)
                value = (a + 2) // 2 + binom
                label = "p2 a=b (2,1)"
        else:
            if (c1 + c2) % 3 == 0 or c2 == 0:
                value, label = binom, "p2 a!=b (neg or l2=0)"
            elif c1 == 0:
                label = "p2 a!=b (l1=0)"
                value = a + 2 + _gap_val(2, mp, kp, label) + binom
            elif (c1, c2) == (1, 1):
                value = (a + 2) // 2 + binom
                label = "p2 a!=b (1,1)"
            else:  # (c1, c2) == (2, 2)
                label = "p2 a!=b (2,2)"
                value = (a + 1) // 2 + 1 + _gap_val(2, mp, kp, label) + binom
    elif rec.mod5 is _PLUS_MINUS_1:
        if r < s:
            label = "pm1 r<s"
            value = a + _gap_val(p, mp, kp, label) + nu_fz + binom
        else:
            value, label = binom, "pm1 r>=s"
    else:
        if r == s or l2 % z == 0:
            value, label = binom, "pm2 r=s or l2=0"
        elif l1 % z == 0:
            label = "pm2 l1=0"
            value = a + nu_fz + _gap_val(p, mp, kp, label) + binom
        elif a % 2 == 0:
            if r > s:
                value, label = a // 2 + binom, "pm2 a even r>s"
            else:
                label = "pm2 a even r<s"
                value = a // 2 + nu_fz + _gap_val(p, mp, kp, label) + binom
        else:
            if r > s:
                label = "pm2 a odd r>s"
                value = (a + 1) // 2 + _gap_val(p, mp, kp, label) + binom
            else:
                value = (a - 1) // 2 + nu_fz + binom
                label = "pm2 a odd r<s"
    if value < 0:
        raise FormulaIntegrityError(f"negative ratio valuation at ({p}, {l1}, {b}, {l2}, {a})")
    trace = _new(BranchTrace, (
        _TRATIO, label, z, r, s, None, None, None, z, nu_fz, None, mp, kp))
    return _VALUATIONS[value] if value < _VALUATION_BOUND else Valuation(value), trace


def _gap_val(p: int, mp: int, kp: int, where: str) -> int:
    if mp <= kp:
        raise FormulaIntegrityError(f"m_p <= k_p in branch {where!r}; gap term undefined")
    return _nu_int(p, mp - kp)


# ---------------------------------------------------------------------------
# central shape (p^a*n, n)

# Case tables for the 2-adic central delta, keyed by n mod 6.  Kept as
# module-level data so the test suite can seed single-constant mutations;
# the independent one-line encoding below cross-checks every evaluation.
DELTA2_EVEN_A = {0: 0, 1: 0, 2: 0, 3: 1, 4: 0, 5: 1}
DELTA2_ODD_A_CONST = {0: 0, 1: 0, 3: 1, 5: 2}
DELTA2_ODD_A_CEIL = {2: (1, 0), 4: (0, 1)}  # residue -> (shift, add): ceil((b+shift)/2) + add


def _delta2_iverson(a: int, n: int, res6: int, b: int) -> int:
    if a % 2 == 0:
        return 1 if res6 in (3, 5) else 0
    d = (res6 - 1) // 2 if n % 2 else 0
    if res6 in (2, 4):
        d += (b + 3 - n % 3 + 1) // 2
    return d


def nu2_central(a: int, n: int) -> tuple[Valuation, BranchTrace]:
    """nu_2 of the (2^a*n, n) Fibonomial coefficient.

    delta + s_2(A) - c*eps with A = floor((2^a-1)*n / (3*2^{nu_2(n)})),
    eps = [3 does not divide n], c = a/2 or (a-1)/2 by parity of a, and
    delta looked up from the case tables above.
    """
    index = check_index(2, a, n)
    b = (n & -n).bit_length() - 1
    res6 = n % 6
    eps = 1 if n % 3 else 0
    A = (index - n) // (3 << b)
    if a % 2 == 0:
        delta = DELTA2_EVEN_A[res6]
        coeff = a // 2
        label = "a even, n%6 in {3,5}" if res6 in (3, 5) else "a even, n%6 in {0,1,2,4}"
    else:
        coeff = (a - 1) // 2
        if res6 % 2:
            delta = DELTA2_ODD_A_CONST[res6]
            label = "a odd, n odd"
        elif res6 == 0:
            delta = DELTA2_ODD_A_CONST[0]
            label = "a odd, n%6=0"
        else:
            shift, add = DELTA2_ODD_A_CEIL[res6]
            delta = (b + shift + 1) // 2 + add
            label = "a odd, n%6=2" if res6 == 2 else "a odd, n%6=4"
    check = _delta2_iverson(a, n, res6, b)
    if delta != check:
        raise FormulaIntegrityError(
            f"2-adic delta encodings disagree at (a={a}, n={n}): {delta} vs {check}")
    value = delta + A.bit_count() - coeff * eps
    if value < 0:
        raise FormulaIntegrityError(f"negative valuation at (p=2, a={a}, n={n})")
    trace = _new(BranchTrace, (
        _C2ADIC, label, 6, index % 6, res6, A, delta, eps, 3, 1, b, None, None))
    return _VALUATIONS[value] if value < _VALUATION_BOUND else Valuation(value), trace


def nu5_central(a: int, n: int) -> tuple[Valuation, BranchTrace]:
    """nu_5 of the (5^a*n, n) Fibonomial: s_5((5^a-1)*n) / 4, always >= 1."""
    A = check_index(5, a, n) - n
    ssum = digit_sum(5, A)
    if ssum % 4:
        raise FormulaIntegrityError(f"s_5((5^a-1)n) = {ssum} not divisible by 4 at (a={a}, n={n})")
    value = ssum // 4
    if value < 1:
        raise FormulaIntegrityError(f"5-adic central valuation must be >= 1, got {value}")
    trace = _new(BranchTrace, (
        _C5ADIC, "s5 digit sum", 5, 0, n % 5, A, None, None, 5, 1, _nu_int(5, n),
        None, None))
    return _VALUATIONS[value] if value < _VALUATION_BOUND else Valuation(value), trace


def nup_central(p: int, a: int, n: int) -> tuple[Valuation, BranchTrace]:
    """nu_p of the (p^a*n, n) Fibonomial for p not in {2, 5}.

    Dispatches on p mod 5 and the parity of a; all fractional parts are
    combined over the common denominator z(p)*(p-1) and checked exact.
    """
    if p in (2, 5):
        raise ValueError("use nu2_central / nu5_central for p = 2, 5")
    rec = rank_of_apparition(p)
    index = check_index(p, a, n)
    z, nu_fz = rec.z, rec.nu_fz
    b = _nu_int(p, n)
    ell = n // p**b
    r = index % z
    s = n % z
    A = (index - n) // (p**b * z)
    spA = digit_sum(p, A)
    delta: int | None = None
    if rec.mod5 is _PLUS_MINUS_1:
        if r != s:
            raise FormulaIntegrityError(f"r != s for p={p} = +-1 (mod 5)")
        den = z * (p - 1)
        num = spA * z - a * (ell % z) * (p - 1)
        if num % den:
            raise FormulaIntegrityError(f"non-integer pm1 value at (p={p}, a={a}, n={n})")
        value = num // den
        label = "pm1"
    elif a % 2 == 0:
        if r != s:
            raise FormulaIntegrityError(f"r != s for p={p}, a even")
        if spA % (p - 1):
            raise FormulaIntegrityError(f"non-integer pm2 value at (p={p}, a={a}, n={n})")
        value = spA // (p - 1) - (a // 2) * (1 if s else 0)
        label = "pm2 a even"
    else:
        # floor(A/(p-1)) - nu_p(A!) collapses to (s_p(A) - A mod (p-1))/(p-1)
        num = spA - A % (p - 1)
        if num % (p - 1):
            raise FormulaIntegrityError(f"digit-sum congruence broken at (p={p}, a={a}, n={n})")
        base = num // (p - 1) - ((a - 1) // 2) * (1 if s else 0)
        if r == s:
            delta = 0
            label = "pm2 a odd r=s"
        elif r < s:
            delta = b // 2 + nu_fz
            label = "pm2 a odd r<s"
        else:
            delta = (b + 1) // 2
            label = "pm2 a odd r>s"
        check = 0 if r == s else (b // 2 + (1 if b % 2 and r > s else 0)
                                  + (nu_fz if r < s else 0))
        if delta != check:
            raise FormulaIntegrityError(
                f"odd-a delta encodings disagree at (p={p}, a={a}, n={n}): {delta} vs {check}")
        value = base + delta
    if value < 0:
        raise FormulaIntegrityError(f"negative valuation at (p={p}, a={a}, n={n})")
    trace = _new(BranchTrace, (
        _CP, label, z, r, s, A, delta, None, z, nu_fz, b, None, None))
    return _VALUATIONS[value] if value < _VALUATION_BOUND else Valuation(value), trace


def nu_central(p: int, a: int, n: int) -> tuple[Valuation, BranchTrace]:
    """Central-shape dispatcher over p; the callee validates p, a and n."""
    if p == 2:
        return nu2_central(a, n)
    if p == 5:
        return nu5_central(a, n)
    return nup_central(p, a, n)


# ---------------------------------------------------------------------------
# divisibility predicates

def is_odd_2n(n: int) -> bool:
    """True iff the (2n, n) Fibonomial is odd; holds only at n = 1."""
    odd = nu2_central(1, n)[0].value == 0
    if odd != (n == 1):
        raise FormulaIntegrityError(f"(2n, n) oddness disagrees with n == 1 at n={n}")
    return odd


def is_odd_4n(n: int) -> bool:
    """True iff the (4n, n) Fibonomial is odd, i.e. iff n is a power of 2."""
    odd = nu2_central(2, n)[0].value == 0
    if odd != (n & (n - 1) == 0):
        raise FormulaIntegrityError(f"(4n, n) oddness disagrees with the bit pattern at n={n}")
    return odd


def _is_8n_exception(n: int) -> bool:
    # n = (1 + 3*2^k)/7 for some k = 1 (mod 3)
    x = 7 * n - 1
    if x % 3:
        return False
    t = x // 3
    if t & (t - 1):
        return False
    return (t.bit_length() - 1) % 3 == 1


def is_odd_8n(n: int) -> bool:
    """True iff the (8n, n) Fibonomial is odd, i.e. iff 7n-1 = 3*2^k with
    k = 1 (mod 3)."""
    odd = nu2_central(3, n)[0].value == 0
    if odd != _is_8n_exception(n):
        raise FormulaIntegrityError(f"(8n, n) oddness disagrees with the arithmetic test at n={n}")
    return odd


class DivReason(Enum):
    Z_DIVIDES_N = "z_divides_n"
    P_EQUALS_5 = "p_equals_5"
    THRESHOLD_EVEN_A = "threshold_even_a"
    R_LESS_S = "r_less_s"
    R_NEQ_S = "r_neq_s"
    THRESHOLD_ODD_A = "threshold_odd_a"
    THRESHOLD_PM1 = "threshold_pm1"
    FORMULA_POSITIVE = "formula_positive"
    FORMULA_ZERO = "formula_zero"


_Z_DIVIDES_N = DivReason.Z_DIVIDES_N
_P_EQUALS_5 = DivReason.P_EQUALS_5
_THRESHOLD_EVEN_A = DivReason.THRESHOLD_EVEN_A
_R_LESS_S = DivReason.R_LESS_S
_R_NEQ_S = DivReason.R_NEQ_S
_THRESHOLD_ODD_A = DivReason.THRESHOLD_ODD_A
_THRESHOLD_PM1 = DivReason.THRESHOLD_PM1
_FORMULA_POSITIVE = DivReason.FORMULA_POSITIVE
_FORMULA_ZERO = DivReason.FORMULA_ZERO


def divides_p_central(p: int, a: int, n: int) -> tuple[bool, DivReason]:
    """Does p divide the (p^a*n, n) Fibonomial coefficient?

    Decided by the cheapest applicable criterion: p = 5 always divides;
    z(p) | n always divides; digit-sum thresholds for p = +-2 (mod 5) and
    for p = +-1 (mod 5) with a = 1.  Outside every criterion the full
    valuation is computed.  A False answer always means the valuation is
    zero, and is reported as such.
    """
    rec = rank_of_apparition(p)
    index = check_index(p, a, n)
    if p == 5:
        return True, _P_EQUALS_5
    z = rec.z
    if n % z == 0:
        return True, _Z_DIVIDES_N
    if p == 2:
        if nu2_central(a, n)[0].value > 0:
            return True, _FORMULA_POSITIVE
        return False, _FORMULA_ZERO
    if rec.mod5 is _PLUS_MINUS_2:
        b = _nu_int(p, n)
        A = (index - n) // (p**b * z)
        if a % 2 == 0:
            if digit_sum(p, A) > (a // 2) * (p - 1):
                return True, _THRESHOLD_EVEN_A
            return False, _FORMULA_ZERO
        r = index % z
        s = n % z
        if b == 0:
            if r < s:
                return True, _R_LESS_S
        elif r != s:
            return True, _R_NEQ_S
        if digit_sum(p, A) >= ((a + 1) // 2) * (p - 1):
            return True, _THRESHOLD_ODD_A
        return False, _FORMULA_ZERO
    if a == 1:
        den = p**_nu_int(p, n) * z
        num = n * (p - 1)
        if num % den:
            raise FormulaIntegrityError(f"pm1 threshold quantity not integral at (p={p}, n={n})")
        if digit_sum(p, num // den) >= p - 1:
            return True, _THRESHOLD_PM1
        return False, _FORMULA_ZERO
    # p = +-1 (mod 5) with a >= 2: no criterion applies, compute the value
    value = nup_central(p, a, n)[0].value
    if value > 0:
        return True, _FORMULA_POSITIVE
    return False, _FORMULA_ZERO
