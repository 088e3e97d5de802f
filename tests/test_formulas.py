import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibval.formulas as formulas
import fibval.oracle as oracle_module
import fibval.verify as verify
from fibval import rank
from fibval.arith import _VALUATIONS, FormulaIntegrityError, Valuation
from fibval.formulas import (
    BOUNDARY_LABEL,
    INDEX_CAP,
    BranchTrace,
    DivReason,
    Theorem,
    check_index,
    divides_p_central,
    is_odd_2n,
    is_odd_4n,
    is_odd_8n,
    nu2_central,
    nu5_central,
    nu_central,
    nu_central_rows,
    nu_fibonomial_formula,
    nu_ratio_prime_powers,
    nup_central,
)
from fibval.oracle import OracleTier, nu_fibonomial_oracle
from fibval.rank import Mod5Class, rank_of_apparition
from fibval.verify import VerifyConfig

GRID_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def oracle(p, m, k):
    return nu_fibonomial_oracle(p, m, k, OracleTier.MODULAR).value


def legendre(p, n):
    # nu_p(n!) as the sum of n // p^i (Legendre), independent of the digit sums
    total, q = 0, p
    while q <= n:
        total += n // q
        q *= p
    return total


# --- general (m, k) ---------------------------------------------------------

def test_general_examples():
    val, trace = nu_fibonomial_formula(2, 6, 2)
    assert val.value == 3
    assert trace.theorem is Theorem.T2ADIC_GENERAL
    assert trace.describe() == "r<s, (0,2)"
    val, trace = nu_fibonomial_formula(7, 8, 1)
    assert val.value == 1
    assert trace.branch_label == "r<s"
    val, trace = nu_fibonomial_formula(5, 12, 0)
    assert val.value == 0
    assert trace.branch_label == BOUNDARY_LABEL


def test_general_boundaries():
    for p in (2, 5, 7):
        assert nu_fibonomial_formula(p, 9, 0)[0].value == 0
        assert nu_fibonomial_formula(p, 9, 9)[0].value == 0


def test_general_rejects_bad_k():
    with pytest.raises(ValueError):
        nu_fibonomial_formula(3, 5, 6)
    with pytest.raises(ValueError):
        nu_fibonomial_formula(3, 5, -1)


def test_general_index_cap():
    with pytest.raises(ValueError):
        nu_fibonomial_formula(3, INDEX_CAP + 1, 1)


def test_general_matches_oracle_small_grid():
    for p in (2, 3, 5, 7, 13):
        for m in range(1, 61):
            for k in range(0, m + 1):
                assert nu_fibonomial_formula(p, m, k)[0].value == oracle(p, m, k), (p, m, k)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GRID_PRIMES), st.integers(min_value=1, max_value=2000), st.data())
def test_general_matches_oracle_random(p, m, data):
    k = data.draw(st.integers(min_value=0, max_value=m))
    assert nu_fibonomial_formula(p, m, k)[0].value == oracle(p, m, k)


def test_general_matches_oracle_at_every_bit_length():
    # Hypothesis draws most m far below the bound 2000, so m is sampled here:
    # 20 per bit length and the top m = 2000 for every prime, k uniform in [0, m]
    rng = random.Random(2000)
    for p in GRID_PRIMES:
        ms = [rng.randint(1 << (bits - 1), min((1 << bits) - 1, 2000))
              for bits in range(1, 12) for _ in range(20)]
        for m in ms + [2000]:
            k = rng.randint(0, m)
            assert nu_fibonomial_formula(p, m, k)[0].value == oracle(p, m, k), (p, m, k)


def test_exceptional_pair_dispatch_is_disjoint():
    # the two exceptional residue lists must sit strictly inside their
    # respective r-vs-s sides, so the case chain matches exactly one row
    from fibval.formulas import _EXC_GE, _EXC_LT
    assert all(r > s for r, s in _EXC_GE)
    assert all(r < s for r, s in _EXC_LT)
    assert not (_EXC_GE & _EXC_LT)


# --- prime-power ratio ------------------------------------------------------

def test_ratio_examples():
    val, trace = nu_ratio_prime_powers(3, 2, 1, 1, 1)
    assert val.value == 1
    assert trace.theorem is Theorem.TRATIO
    val, trace = nu_ratio_prime_powers(2, 1, 3, 1, 1)
    assert val.value == 0


def test_ratio_guards():
    with pytest.raises(ValueError):
        nu_ratio_prime_powers(7, 1, 1, 1, 1)  # equal indices
    with pytest.raises(ValueError):
        nu_ratio_prime_powers(7, 1, 1, 2, 2)  # b < a
    with pytest.raises(ValueError):
        nu_ratio_prime_powers(5, 2, 2, 1, 1)  # p = 5 excluded
    with pytest.raises(ValueError):
        nu_ratio_prime_powers(7, 0, 1, 1, 1)


def test_ratio_agrees_with_general_full_grid():
    # cofactors <= 30, exponents <= 5, index <= 1e5
    for p in (2, 3, 7, 11, 13, 17, 19, 23, 29, 31):
        for b in range(1, 6):
            for a in range(1, b + 1):
                pb, pa = p**b, p**a
                for l1 in range(1, 31):
                    if l1 * pb > 10**5:
                        break
                    for l2 in range(1, 31):
                        if l1 * pb <= l2 * pa:
                            break
                        got = nu_ratio_prime_powers(p, l1, b, l2, a)[0].value
                        want = nu_fibonomial_formula(p, l1 * pb, l2 * pa)[0].value
                        assert got == want, (p, l1, b, l2, a)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 7, 11, 13, 17, 19)),
       st.integers(min_value=1, max_value=25), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=25), st.integers(min_value=1, max_value=4))
def test_ratio_matches_oracle_random(p, l1, b, l2, a):
    if b < a or l1 * p**b <= l2 * p**a or l1 * p**b > 3 * 10**4:
        return
    assert nu_ratio_prime_powers(p, l1, b, l2, a)[0].value == oracle(p, l1 * p**b, l2 * p**a)


# --- central 2-adic ---------------------------------------------------------

def test_nu2_central_examples():
    assert nu2_central(1, 2)[0].value == 1
    assert nu2_central(2, 2)[0].value == 0
    assert nu2_central(3, 1)[0].value == 0


def test_nu2_central_trace_fields():
    val, trace = nu2_central(1, 4)
    assert val.value == 2
    assert trace.theorem is Theorem.C2ADIC
    assert trace.branch_label == "a odd, n%6=4"
    assert (trace.r, trace.s) == (8 % 6, 4)
    assert trace.A == ((2 - 1) * 4) // (3 * 4)
    assert trace.delta == 2
    assert trace.epsilon == 1
    assert (trace.z, trace.nu_fz, trace.b) == (3, 1, 2)


def test_nu2_central_legendre_cross_form():
    for a in range(1, 6):
        for n in range(1, 400):
            val, trace = nu2_central(a, n)
            coeff = a // 2 if a % 2 == 0 else (a - 1) // 2
            factorial_form = (trace.delta + trace.A - coeff * trace.epsilon
                              - legendre(2, trace.A))
            assert val.value == factorial_form, (a, n)


def check_nu2_central_trace(a, n):
    trace = nu2_central(a, n)[1]
    b = (n & -n).bit_length() - 1
    assert trace.b == b
    assert trace.r == (n << a) % 6
    assert trace.s == n % 6
    assert trace.epsilon == (1 if n % 3 else 0)
    assert trace.A == (2**a - 1) * n // (3 * 2**b)
    assert trace.delta is not None and trace.delta >= 0


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=10**6))
def test_nu2_central_trace_recomputable(a, n):
    check_nu2_central_trace(a, n)


def test_nu2_central_trace_recomputable_at_every_bit_length():
    # Hypothesis draws most n far below the bound 10^6, so n is sampled here:
    # 20 per bit length for every a, and the top n = 10^6
    rng = random.Random(10**6)
    for a in range(1, 13):
        ns = [rng.randint(1 << (bits - 1), min((1 << bits) - 1, 10**6))
              for bits in range(1, 21) for _ in range(20)]
        for n in ns + [10**6]:
            check_nu2_central_trace(a, n)


def test_nu2_central_rejects_bad_args():
    with pytest.raises(ValueError):
        nu2_central(0, 3)
    with pytest.raises(ValueError):
        nu2_central(1, 0)
    with pytest.raises(ValueError):
        nu2_central(64, 1)  # blows the index cap


def test_delta_table_mutation_trips_integrity_check(monkeypatch):
    monkeypatch.setitem(formulas.DELTA2_EVEN_A, 3, 0)
    with pytest.raises(FormulaIntegrityError):
        nu2_central(2, 3)


# The general formula at (5, 12, 3) returns the bare binomial term of (12, 3),
# at (7, 20, 9) that of (20 // 8, 9 // 8) = (2, 1), and at (2, 12, 6) the
# branch r>=s with A = nu_2(2!) - nu_2(1!) - nu_2(1!).  A binomial term of -1,
# or a negative nu_2(2!), makes each value negative, which must raise rather
# than read _VALUATIONS[-1].
@pytest.mark.parametrize("p, m, k, name, fake", [
    (5, 12, 3, "_binom_val", lambda q, mp, kp: -1),
    (7, 20, 9, "_binom_val", lambda q, mp, kp: -1),
    (2, 12, 6, "_nu2_factorial", lambda x: -1 if x == 2 else 0),
], ids=["5-12-3", "7-20-9", "2-12-6"])
def test_negative_general_value_trips_integrity_check(p, m, k, name, fake, monkeypatch):
    monkeypatch.setattr(formulas, name, fake)
    with pytest.raises(FormulaIntegrityError, match="negative valuation"):
        nu_fibonomial_formula(p, m, k)


def legendre_binom(p, mp, kp):
    return legendre(p, mp) - legendre(p, kp) - legendre(p, mp - kp)


# The bit lengths are drawn first and then values of those lengths: from a
# wide bound alone, Hypothesis draws most integers far below it.
@given(st.sampled_from(SMALL_PRIMES + (2**61 - 1,)), st.integers(min_value=0, max_value=63),
       st.data())
def test_binom_val_counts_what_legendre_counts(p, bits, data):
    mp = data.draw(st.integers(min_value=(1 << bits) >> 1, max_value=(1 << bits) - 1))
    kbits = data.draw(st.integers(min_value=0, max_value=bits))
    kp = data.draw(st.integers(min_value=(1 << kbits) >> 1, max_value=min((1 << kbits) - 1, mp)))
    assert formulas._binom_val(p, mp, kp) == legendre_binom(p, mp, kp)


@pytest.mark.parametrize("p", [2, 3])  # the popcount and the digit walk
@pytest.mark.parametrize("mp, kp", [(5, -1), (5, 6), (0, 1)])
def test_binom_val_rejects_kp_outside_0_to_mp(p, mp, kp):
    with pytest.raises(FormulaIntegrityError, match="0 <= kp <= mp"):
        formulas._binom_val(p, mp, kp)


# One cell per prime class whose branch returns the bare binomial term, so a
# binomial of -1 makes the value -1: it must raise, not read _VALUATIONS[-1]
# (which is Valuation(127)).
@pytest.mark.parametrize("p, l1, b, l2, a, label", [
    (2, 4, 1, 1, 1, "p2 a=b (eq or l2=0)"),
    (11, 1, 2, 1, 1, "pm1 r>=s"),
    (3, 8, 1, 4, 1, "pm2 r=s or l2=0"),
])
def test_negative_ratio_value_trips_integrity_check(p, l1, b, l2, a, label, monkeypatch):
    assert nu_ratio_prime_powers(p, l1, b, l2, a)[1].branch_label == label
    monkeypatch.setattr(formulas, "_binom_val", lambda q, mp, kp: -1)
    with pytest.raises(FormulaIntegrityError, match="negative ratio valuation"):
        nu_ratio_prime_powers(p, l1, b, l2, a)


# --- central 5-adic ---------------------------------------------------------

def test_nu5_central_examples():
    assert nu5_central(1, 1)[0].value == 1
    assert nu5_central(1, 5)[0].value == 1
    assert nu5_central(2, 1)[0].value == 2


def test_nu5_central_always_positive_and_matches_binomial():
    for a in range(1, 4):
        for n in range(1, 500):
            value = nu5_central(a, n)[0].value
            assert value >= 1
            assert value == legendre_binom(5, 5**a * n, n), (a, n)


# --- central odd p ----------------------------------------------------------

def test_nup_central_examples():
    assert nup_central(3, 1, 1)[0].value == 0
    assert nup_central(3, 1, 3)[0].value == 1
    assert nup_central(11, 1, 1)[0].value == 0


def test_nup_central_rejects_2_and_5():
    with pytest.raises(ValueError):
        nup_central(2, 1, 1)
    with pytest.raises(ValueError):
        nup_central(5, 1, 1)


def test_nup_central_trace_recomputable():
    for p in (3, 7, 11, 13, 19, 23, 29):
        rec = rank_of_apparition(p)
        for a in (1, 2, 3):
            for n in range(1, 120):
                val, trace = nup_central(p, a, n)
                b = 0
                x = n
                while x % p == 0:
                    x //= p
                    b += 1
                assert trace.b == b
                assert trace.r == p**a * n % rec.z
                assert trace.s == n % rec.z
                assert trace.A == n * (p**a - 1) // (p**b * rec.z)
                assert trace.z == rec.z and trace.nu_fz == rec.nu_fz


def test_nup_central_legendre_cross_form():
    # the digit-sum evaluation must equal the factorial-valuation form
    for p in (3, 7, 11, 13, 19):
        z = rank_of_apparition(p).z
        for a in (1, 2, 3):
            for n in range(1, 200):
                val, trace = nup_central(p, a, n)
                A, s, b = trace.A, trace.s, trace.b
                nuA = legendre(p, A)
                if p % 5 in (1, 4):
                    ell = n // p**b
                    expected = Fraction(A, p - 1) - a * Fraction(ell % z, z) - nuA
                elif a % 2 == 0:
                    expected = Fraction(A, p - 1) - Fraction(a, 2) * (1 if s else 0) - nuA
                else:
                    expected = (A // (p - 1) - (a - 1) // 2 * (1 if s else 0)
                                - nuA + trace.delta)
                assert expected == val.value, (p, a, n)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GRID_PRIMES), st.integers(min_value=1, max_value=3), st.data())
def test_central_matches_oracle_random(p, a, data):
    n = data.draw(st.integers(min_value=1, max_value=max(1, 3 * 10**4 // p**a)))
    val, trace = nu_central(p, a, n)
    assert val.value == oracle(p, p**a * n, n)


def test_central_consistent_with_general_route():
    for p in GRID_PRIMES:
        for a in (1, 2):
            for n in range(1, 80):
                central = nu_central(p, a, n)[0].value
                general = nu_fibonomial_formula(p, p**a * n, n)[0].value
                assert central == general, (p, a, n)


@pytest.mark.parametrize("p, a, n_max", [
    *[(2, a, 40) for a in range(1, 5)],
    (5, 1, 30), (5, 2, 30),
    (11, 1, 30), (11, 2, 30),  # +-1 mod 5, z = 10
    (3, 1, 30), (3, 2, 30), (7, 1, 30), (7, 2, 30), (7, 3, 30),  # +-2 mod 5, z = 4 and 8
])
def test_nu_central_rows_equal_nu_central(p, a, n_max):
    rows = list(nu_central_rows(p, a, n_max))
    assert rows == [nu_central(p, a, n) for n in range(1, n_max + 1)]
    assert all(type(trace) is BranchTrace for _, trace in rows)


def test_nu_central_rows_fire_the_rows_at_rank():
    labels = {trace.branch_label for p in (3, 7) for a in (1, 3)
              for _, trace in nu_central_rows(p, a, 30)}
    at_rank = {row[1] for row in formulas.BRANCH_REACH if row[4] == formulas.AT_RANK}
    assert len(at_rank) == 3
    assert at_rank <= labels


@pytest.mark.parametrize("p, a, n_max", [
    (1, 1, 5), (4, 1, 5), (91, 1, 5), (2**64, 1, 5),
    (2, 0, 5), (3, 0, 5), (5, 0, 5),
    (2, 63, 2), (3, 40, 1), (5, 28, 1), (7, 1, 2**62),  # index past 2^63
])
def test_nu_central_rows_gate_before_the_first_row(p, a, n_max):
    with pytest.raises(ValueError) as expected:
        nu_central(p, a, n_max)
    with pytest.raises(ValueError) as raised:
        nu_central_rows(p, a, n_max)  # not iterated
    assert str(raised.value) == str(expected.value)


def count_gates(monkeypatch):
    """Wrap the prime gate and the index gate in counters; returns the counts."""
    calls = {"check_index": 0, "rank_of_apparition": 0}
    for name in calls:
        gate = getattr(formulas, name)

        def counted(*args, _gate=gate, _name=name):
            calls[_name] += 1
            return _gate(*args)
        monkeypatch.setattr(formulas, name, counted)
    return calls


@pytest.mark.parametrize("call, checks, ranks", [
    # the fallback to the full valuation at p = 2 and at p = +-1 (mod 5), a >= 2
    pytest.param(lambda: divides_p_central(2, 1, 1), 1, 1, id="divides-p2"),
    pytest.param(lambda: divides_p_central(11, 2, 1), 1, 1, id="divides-pm1-a2"),
    # p = 2 and p = 5 need no rank record
    pytest.param(lambda: nu_central(2, 3, 7), 1, 0, id="central-p2"),
    pytest.param(lambda: nu_central(5, 2, 7), 1, 0, id="central-p5"),
    # the per-class entries leave the gates to nu_central
    pytest.param(lambda: nup_central(7, 2, 3), 1, 1, id="nup-p7"),
    pytest.param(lambda: nu5_central(2, 7), 1, 0, id="nu5"),
    # one of each for the whole table, not one per row
    pytest.param(lambda: list(nu_central_rows(7, 2, 30)), 1, 1, id="rows-p7"),
])
def test_central_entries_run_each_gate_once(monkeypatch, call, checks, ranks):
    calls = count_gates(monkeypatch)
    call()
    assert calls == {"check_index": checks, "rank_of_apparition": ranks}


# --- oddness predicates -----------------------------------------------------

def test_is_odd_2n_examples():
    assert is_odd_2n(1)
    assert not is_odd_2n(2)
    assert not is_odd_2n(1000)


def test_is_odd_4n_examples():
    assert is_odd_4n(8)
    assert not is_odd_4n(3)
    assert is_odd_4n(1)


def test_is_odd_8n_examples():
    assert is_odd_8n(1)
    assert is_odd_8n(7)
    assert not is_odd_8n(2)


@pytest.mark.parametrize("is_odd", [is_odd_2n, is_odd_4n, is_odd_8n])
@pytest.mark.parametrize("n", [0, -1])
def test_oddness_rejects_n_below_one(is_odd, n):
    with pytest.raises(ValueError):
        is_odd(n)


def test_oddness_sets_to_2e4():
    limit = 2 * 10**4
    assert [n for n in range(1, limit) if is_odd_2n(n)] == [1]
    assert [n for n in range(1, limit) if is_odd_4n(n)] == \
        [1 << k for k in range(15) if 1 << k < limit]
    assert [n for n in range(1, limit) if is_odd_8n(n)] == [1, 7, 55, 439, 3511]


# --- divisibility predicate -------------------------------------------------

def test_divides_examples():
    assert divides_p_central(3, 1, 4) == (True, DivReason.Z_DIVIDES_N)
    assert divides_p_central(5, 1, 1) == (True, DivReason.P_EQUALS_5)
    assert divides_p_central(3, 1, 1) == (False, DivReason.FORMULA_ZERO)


def test_divides_reason_variety():
    assert divides_p_central(3, 1, 7) == (True, DivReason.R_LESS_S)  # 3 does not divide 7, r < s
    assert divides_p_central(3, 1, 3) == (True, DivReason.R_NEQ_S)   # 3 | 3, r != s
    assert divides_p_central(3, 2, 2)[1] in (DivReason.THRESHOLD_EVEN_A,
                                             DivReason.FORMULA_ZERO)
    got = divides_p_central(11, 1, 10)
    assert got == (True, DivReason.Z_DIVIDES_N)
    assert divides_p_central(2, 1, 3) == (True, DivReason.Z_DIVIDES_N)
    assert divides_p_central(2, 1, 1) == (False, DivReason.FORMULA_ZERO)
    assert divides_p_central(2, 1, 2) == (True, DivReason.FORMULA_POSITIVE)


def test_divides_agrees_with_valuation_sign():
    for p in (2, 3, 7, 11, 13, 19):
        for a in (1, 2, 3):
            for n in range(1, 150):
                divisible, reason = divides_p_central(p, a, n)
                assert divisible == (nu_central(p, a, n)[0].value > 0), (p, a, n)
                if p == 2:  # z(2) = 3
                    assert (reason is DivReason.Z_DIVIDES_N) == (n % 3 == 0), (a, n)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((3, 7, 13, 17, 23)), st.integers(min_value=1, max_value=4), st.data())
def test_divides_pm2_matches_oracle_sign(p, a, data):
    n = data.draw(st.integers(min_value=1, max_value=max(1, 3 * 10**4 // p**a)))
    divisible = divides_p_central(p, a, n)[0]
    assert divisible == (oracle(p, p**a * n, n) > 0)


# --- input gates --------------------------------------------------------------
# Every central-style entry as f(p, a, n); nu2_central and nu5_central fix
# their own prime, and the ratio entry evaluates (p^a*(n+1), p^a*n).

GATED = {
    "nu_central": nu_central,
    "nup_central": nup_central,
    "nu2_central": lambda p, a, n: nu2_central(a, n),
    "nu5_central": lambda p, a, n: nu5_central(a, n),
    "divides_p_central": divides_p_central,
    "nu_ratio_prime_powers": lambda p, a, n: nu_ratio_prime_powers(p, n + 1, a, n, a),
}
TAKES_P = ("nu_central", "nup_central", "divides_p_central", "nu_ratio_prime_powers")


def test_check_index_is_exact_at_the_cap():
    for p in (2, 3, 7, 31, 1000003, 2**31 - 1, 2**63 - 25, 2**64 - 59):
        for a in range(1, 70):
            for n in (1, 2, 3, 5, 2**20 - 1, 2**31, 2**62 + 1):
                index = p**a * n
                if index <= INDEX_CAP:
                    assert check_index(p, a, n) == index
                else:
                    with pytest.raises(ValueError, match="cap"):
                        check_index(p, a, n)
    assert check_index(2, 63, 1) == INDEX_CAP
    for a, n in ((0, 1), (1, 0), (-1, 5), (3, -2)):
        with pytest.raises(ValueError):
            check_index(3, a, n)


HUGE = 10**5000  # past Python's 4,300-digit int-to-str limit; 16,610 bits


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: check_index(3, 1, HUGE),
                 r"index 3\^1\*<16610-bit integer> exceeds the 2\^63 cap", id="check_index"),
    pytest.param(lambda: nu_fibonomial_formula(3, HUGE, 1),
                 r"m=<16610-bit integer> exceeds the 2\^63 cap", id="nu_fibonomial_formula"),
    pytest.param(lambda: nu_central(3, HUGE, 1),
                 r"index 3\^<16610-bit integer>\*1 exceeds the 2\^63 cap", id="nu_central"),
    pytest.param(lambda: VerifyConfig(primes=(2,), a_max=-HUGE, n_max=1),
                 r"VerifyConfig\.a_max must be >= 1, got -<16610-bit integer>", id="a_max"),
    pytest.param(lambda: VerifyConfig(primes=(2,), a_max=1, n_max=1, index_cap=2**30000),
                 r"VerifyConfig\.index_cap <30001-bit integer> exceeds 2\^63",
                 id="index_cap"),
    pytest.param(lambda: check_index(3, -HUGE, 1),
                 r"index 3\^-<16610-bit integer>\*1 needs a >= 1", id="negative_a"),
    pytest.param(lambda: nu_fibonomial_formula(3, 5, HUGE),
                 r"need 0 <= k <= m, got m=5, k=<16610-bit integer>", id="k_past_m"),
    pytest.param(lambda: rank_of_apparition(HUGE),
                 r"n < 2\^64 only, got <16610-bit integer>", id="huge_p"),
    pytest.param(lambda: rank_of_apparition(-HUGE),
                 r"expected a prime, got -<16610-bit integer>", id="negative_p"),
    pytest.param(lambda: nu_fibonomial_oracle(3, HUGE, 1),
                 r"capped at m <= \d+, got m=<16610-bit integer>", id="oracle"),
])
def test_gate_messages_show_a_huge_value_by_its_bit_length(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("name", TAKES_P)
@pytest.mark.parametrize("p", [1, 9, 91, 2**64 + 1, 2**65 - 49])
def test_gate_rejects_composite_and_huge_p(name, p):
    with pytest.raises(ValueError):
        GATED[name](p, 1, 1)


@pytest.mark.parametrize("name", list(GATED))
def test_gate_rejects_huge_exponent_in_under_1ms(name):
    GATED[name](3, 1, 1)  # the rank record of 3 is cached from here on
    # counted beside the clock: a rejected call builds no power of p.  p**a at
    # a = 10^5 has 12-20 KiB, so a gate that builds it fails here in
    # milliseconds, before a = 10^9 would make it build a 200 MB integer
    for a in (10**5, 10**9):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                GATED[name](3, a, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**10, (a, peak)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cap"):
            GATED[name](3, 10**9, 1)
        best = min(best, time.perf_counter() - start)
    assert best < 1e-3


@pytest.mark.parametrize("name", list(GATED))
def test_warm_evaluation_makes_no_primality_test(name, monkeypatch):
    import fibval.arith as arith

    p = 1000003  # = 3 (mod 5); one is_prime call costs about 15 us here
    expected = GATED[name](p, 2, 7)  # warms the rank cache
    calls = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
    assert GATED[name](p, 2, 7) == expected
    assert calls == []



# --- branch traces ----------------------------------------------------------

TRACE_FIELDS = ("theorem", "branch_label", "modulus", "r", "s", "A", "delta", "epsilon",
                "z", "nu_fz", "b", "m_prime", "k_prime")

# One cell per construction site in formulas.py (each builds its trace
# positionally): (entry, args, value, every trace field in order).
GOLDEN_TRACES = [
    pytest.param(nu_fibonomial_formula, (2, 6, 2), 3,
                 (Theorem.T2ADIC_GENERAL, "r<s", 6, 0, 2, 0, None, None, 3, 1, None, None, None),
                 id="T2adic_general"),
    pytest.param(nu_fibonomial_formula, (5, 12, 3), 1,
                 (Theorem.T5ADIC, "binomial", 5, None, None, None, None, None, 5, 1, None, None,
                  None),
                 id="T5adic"),
    pytest.param(nu_fibonomial_formula, (7, 20, 9), 0,
                 (Theorem.TP_GENERAL_MK, "r>=s", 8, 4, 1, None, None, None, 8, 1, None, 2, 1),
                 id="Tp_general_mk"),
    pytest.param(nu_fibonomial_formula, (7, 9, 0), 0,
                 (Theorem.TP_GENERAL_MK, BOUNDARY_LABEL, None, None, None, None, None, None,
                  None, None, None, None, None),
                 id="boundary"),
    pytest.param(nu_ratio_prime_powers, (3, 2, 1, 1, 1), 1,
                 (Theorem.TRATIO, "pm2 a odd r<s", 4, 2, 3, None, None, None, 4, 1, None, 0, 0),
                 id="Tratio"),
    pytest.param(nu_ratio_prime_powers, (2, 3, 2, 1, 1), 4,
                 (Theorem.TRATIO, "p2 a!=b (l1=0)", 3, 0, 2, None, None, None, 3, 1, None, 2, 0),
                 id="Tratio_p2"),
    pytest.param(nu2_central, (3, 6), 3,
                 (Theorem.C2ADIC, "a odd, n%6=0", 6, 0, 0, 7, 0, 0, 3, 1, 1, None, None),
                 id="C2adic"),
    pytest.param(nu5_central, (2, 7), 2,
                 (Theorem.C5ADIC, "s5 digit sum", 5, 0, 2, 168, None, None, 5, 1, 0, None, None),
                 id="C5adic"),
    pytest.param(nup_central, (11, 1, 12), 0,
                 (Theorem.CP, "pm1", 10, 2, 2, 12, None, None, 10, 1, 0, None, None),
                 id="Cp"),
]


def test_trace_field_order():
    assert BranchTrace._fields == TRACE_FIELDS


def test_hot_path_enum_names_are_bound_to_their_members():
    # the formula, oracle and verify bodies read members through these
    # private names; every member of each enum must be bound to itself, and
    # of Mod5Class the two members the formulas and verify compare against
    for module, enum in ((formulas, Theorem), (formulas, DivReason),
                         (oracle_module, OracleTier)):
        for member in enum:
            assert getattr(module, "_" + member.name) is member, (module.__name__, member)
    for module in (rank, formulas):
        assert module._PLUS_MINUS_1 is Mod5Class.PLUS_MINUS_1
        assert module._PLUS_MINUS_2 is Mod5Class.PLUS_MINUS_2
    assert verify._MODULAR is OracleTier.MODULAR


@pytest.mark.parametrize("fn, args, value, fields", GOLDEN_TRACES)
def test_golden_trace_fields(fn, args, value, fields):
    val, trace = fn(*args)
    assert type(val) is Valuation
    assert val.value == value
    assert type(trace) is BranchTrace
    assert len(trace) == len(BranchTrace._fields)
    assert tuple(trace) == fields
    assert trace == BranchTrace(*fields)


# --- shared results ---------------------------------------------------------

def _every_result_site():
    """(value, result) from every formula site and both oracle tiers."""
    for fn, args, value, _ in (param.values for param in GOLDEN_TRACES):
        yield value, fn(*args)[0]
    for p, a, n in ((2, 1, 5), (3, 2, 4), (5, 1, 7), (7, 1, 8), (11, 1, 12)):
        m = p**a * n
        for result in (nu_central(p, a, n)[0], nu_fibonomial_formula(p, m, n)[0],
                       nu_fibonomial_oracle(p, m, n, OracleTier.MODULAR),
                       nu_fibonomial_oracle(p, m, n, OracleTier.EXACT)):
            yield oracle(p, m, n), result
    for p, l1, b, l2, a in ((2, 3, 2, 1, 1), (3, 2, 1, 1, 1), (7, 3, 2, 2, 1)):
        value = oracle(p, l1 * p**b, l2 * p**a)
        yield value, nu_ratio_prime_powers(p, l1, b, l2, a)[0]


def test_small_results_are_the_shared_table_entries():
    results = list(_every_result_site())
    assert {value for value, _ in results} >= {0, 1, 2}
    for value, result in results:
        assert type(result) is Valuation
        assert result is _VALUATIONS[value]


def test_results_past_the_table_are_built_valuations(monkeypatch):
    # no workload or known input reaches a value of 128, so the bound is
    # lowered to 0 to send every result through the construction past it
    for module in (formulas, oracle_module):
        monkeypatch.setattr(module, "_VALUATION_BOUND", 0)
    for value, result in _every_result_site():
        assert type(result) is Valuation
        assert result.value == value and result == (value,)
        assert value == 0 or result is not _VALUATIONS[value]
    big = Valuation(200)
    assert type(big) is Valuation and big.value == 200 and big == (200,)
