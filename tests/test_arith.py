import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibval import arith
from fibval.arith import (
    FormulaIntegrityError,
    _index_valuation,
    _nu_factorial_int,
    _nu_int,
    digit_sum,
    fib,
    fib_mod,
    is_prime,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def legendre_sum(p: int, n: int) -> int:
    # independent partial-sum form of the factorial valuation
    total, q = 0, p
    while q <= n:
        total += n // q
        q *= p
    return total


@pytest.fixture(scope="module")
def fib_seq():
    # recurrence-built reference sequence, independent of fast doubling
    seq = [0, 1]
    for _ in range(10**4 - 1):
        seq.append(seq[-1] + seq[-2])
    return seq


def test_fib_seed_values():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(2) == 1
    assert fib(10) == 55
    assert fib(12) == 144


def test_fib_matches_recurrence_up_to_1e4(fib_seq):
    for n, expected in enumerate(fib_seq):
        assert fib(n) == expected


def test_fib_rejects_negative():
    with pytest.raises(ValueError):
        fib(-1)
    with pytest.raises(ValueError):
        fib_mod(-1, 7)


def test_fib_mod_examples():
    assert fib_mod(10, 7) == 6
    assert fib_mod(0, 5) == 0
    assert fib_mod(12, 144) == 0


def test_fib_mod_matches_fib_up_to_1e4(fib_seq):
    moduli = (2, 3, 7, 144, 1000, 999983, 10**6)
    for n, value in enumerate(fib_seq):
        for modulus in moduli:
            assert fib_mod(n, modulus) == value % modulus


def test_fib_mod_rejects_bad_modulus():
    with pytest.raises(ValueError):
        fib_mod(10, 0)


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**9))
def test_fib_mod_modulus_one_and_range(n, modulus):
    value = fib_mod(n, modulus)
    assert 0 <= value < modulus or modulus == 1 and value == 0


def test_nu_examples():
    assert _nu_int(2, 40) == 3
    assert _nu_int(7, 21) == 1
    assert _nu_int(3, 4641) == 1


@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=0, max_value=12),
       st.integers(min_value=1, max_value=10**6))
def test_nu_strips_exact_power(p, e, m):
    while m % p == 0:
        m //= p
    assert _nu_int(p, p**e * m) == e


def test_index_valuation_matches_exact_fibonacci(fib_seq):
    for p in (2, 3, 5, 7, 11, 47):
        for i in range(1, 1001):
            assert _index_valuation(p, i) == _nu_int(p, fib_seq[i]), (p, i)


def test_index_valuation_stops_at_the_exponent_cap(monkeypatch):
    # nu_2(F_24) = nu_2(46368) = 5 runs past a cap of 3
    monkeypatch.setattr(arith, "_EXPONENT_CAP", 3)
    with pytest.raises(FormulaIntegrityError, match="reached the hard cap"):
        _index_valuation(2, 24)


def test_digit_sum_examples():
    assert digit_sum(2, 10) == 2
    assert digit_sum(5, 24) == 8
    assert digit_sum(7, 0) == 0


def test_digit_sum_rejects_bad_args():
    with pytest.raises(ValueError):
        digit_sum(1, 5)
    with pytest.raises(ValueError):
        digit_sum(2, -1)


@given(st.integers(min_value=2, max_value=50), st.integers(min_value=0, max_value=10**12))
def test_digit_sum_congruence(q, n):
    # casting out (q-1)s
    assert (n - digit_sum(q, n)) % (q - 1) == 0


@given(st.integers(min_value=2, max_value=50), st.integers(min_value=0, max_value=10**9))
def test_digit_sum_rebuild(q, n):
    digits = []
    x = n
    while x:
        x, r = divmod(x, q)
        digits.append(r)
    assert digit_sum(q, n) == sum(digits)


def test_nu_factorial_examples():
    assert _nu_factorial_int(2, 10) == 8
    assert _nu_factorial_int(5, 25) == 6
    assert _nu_factorial_int(3, 1) == 0


def test_nu_factorial_both_forms_up_to_1e5():
    for p in SMALL_PRIMES:
        for n in range(0, 10**5 + 1, 1):
            expected = legendre_sum(p, n)
            assert (n - digit_sum(p, n)) // (p - 1) == expected
            assert _nu_factorial_int(p, n) == expected


@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=0, max_value=2**63))
def test_nu_factorial_matches_legendre_sum(p, n):
    assert _nu_factorial_int(p, n) == legendre_sum(p, n)


def test_nu_factorial_matches_legendre_sum_at_every_bit_length():
    # Hypothesis draws most integers below 2^20 even with a 2^63 bound, so
    # large n are sampled here: 20 per bit length, p^k - 1 (every digit p - 1)
    # and the top index 2^63
    rng = random.Random(63)
    for p in SMALL_PRIMES:
        ns = [rng.getrandbits(bits) | 1 << (bits - 1) for bits in range(1, 64) for _ in range(20)]
        pk = p
        while pk <= 2**63:
            ns.append(pk - 1)
            pk *= p
        ns.append(2**63)
        for n in ns:
            assert _nu_factorial_int(p, n) == legendre_sum(p, n), (p, n)


@pytest.mark.parametrize("p", [2, 3])
def test_nu_factorial_rejects_negative_n(p):
    # a negative n would never end the digit loop
    with pytest.raises(FormulaIntegrityError, match="n >= 0"):
        _nu_factorial_int(p, -1)


def test_is_prime_spot_checks():
    assert [n for n in range(2, 40) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 + 1)
    with pytest.raises(ValueError):
        is_prime(2**64)


# --- floor/fraction bookkeeping -------------------------------------------
# Exact rationals as (num, den) pairs with den >= 1; floor is Python's //.

exact_pair = st.tuples(st.integers(min_value=-10**9, max_value=10**9),
                       st.integers(min_value=1, max_value=10**6))


@given(st.integers(min_value=-10**6, max_value=10**6), exact_pair)
def test_floor_shift_by_integer(k, pair):
    num, den = pair
    assert (k * den + num) // den == k + num // den
    assert (k * den + num) % den == num % den


@given(exact_pair)
def test_floor_of_negation(pair):
    num, den = pair
    total = num // den + (-num) // den
    assert total == (0 if num % den == 0 else -1)


@given(exact_pair, exact_pair)
def test_floor_of_sum(a, b):
    n1, d1 = a
    n2, d2 = b
    num, den = n1 * d2 + n2 * d1, d1 * d2
    carry = 1 if (n1 % d1) * d2 + (n2 % d2) * d1 >= den else 0
    assert num // den == n1 // d1 + n2 // d2 + carry


@given(exact_pair, st.integers(min_value=1, max_value=10**4))
def test_nested_floor_collapses(pair, k):
    num, den = pair
    assert (num // den) // k == num // (den * k)
