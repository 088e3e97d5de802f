import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fibval import arith
from fibval.arith import (
    FormulaIntegrityError,
    _index_valuation,
    _nu2_factorial,
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
@example(0, 1)
@example(10**9, 1)  # modulus 1 takes the doubling loop, which reduces everything to 0
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


def test_index_valuation_reaches_63_below_the_exponent_cap():
    # the bound arith's _EXPONENT_CAP comment states: nu_2(F_i) = nu_2(i) + 2
    # for 6 | i, so i = 3*2^61 < 2^63 gives 63, one below the cap
    assert _index_valuation(2, 3 * 2**61) == 63
    assert _index_valuation(2, 3 * 2**60) == 62


@pytest.mark.parametrize("p, i", [
    (2, 1), (2, 3), (2, 6), (2, 24), (3, 4), (3, 12), (5, 25), (7, 8), (11, 9), (47, 16),
])
def test_index_valuation_doubles_once_unless_p_squared_divides(monkeypatch, fib_seq, p, i):
    # nu <= 1 in one fast doubling mod p^2; nu >= 2 in nu doublings, mod p^2 .. p^(nu+1)
    calls = []
    monkeypatch.setattr(arith, "fib_mod",
                        lambda m, modulus: calls.append(modulus) or fib_mod(m, modulus))
    nu = _nu_int(p, fib_seq[i])
    assert _index_valuation(p, i) == nu
    assert calls == [p**e for e in range(2, max(nu, 1) + 2)]
    if (p, i) == (2, 24):
        assert (nu, len(calls)) == (5, 5)


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
    assert _nu2_factorial(10) == 8
    assert _nu2_factorial(1) == 0
    assert _nu2_factorial(0) == 0


def test_nu_factorial_both_forms_up_to_1e5():
    # the digit-sum form that the central closed forms use, at every small prime
    for p in SMALL_PRIMES:
        for n in range(0, 10**5 + 1, 1):
            expected = legendre_sum(p, n)
            assert (n - digit_sum(p, n)) // (p - 1) == expected
            if p == 2:
                assert _nu2_factorial(n) == expected


@given(st.integers(min_value=0, max_value=2**63))
def test_nu_factorial_matches_legendre_sum(n):
    assert _nu2_factorial(n) == legendre_sum(2, n)


def test_nu_factorial_matches_legendre_sum_at_every_bit_length():
    # Hypothesis draws most integers below 2^20 even with a 2^63 bound, so
    # large n are sampled here: 20 per bit length, 2^k - 1 (every bit set)
    # and the top index 2^63
    rng = random.Random(63)
    ns = [rng.getrandbits(bits) | 1 << (bits - 1) for bits in range(1, 64) for _ in range(20)]
    ns += [2**k - 1 for k in range(1, 64)] + [2**63]
    for n in ns:
        assert _nu2_factorial(n) == legendre_sum(2, n), n


def test_nu_factorial_rejects_negative_n():
    with pytest.raises(FormulaIntegrityError, match="n >= 0"):
        _nu2_factorial(-1)


def test_is_prime_spot_checks():
    assert [n for n in range(2, 40) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 + 1)
    with pytest.raises(ValueError):
        is_prime(2**64)


def test_is_prime_agrees_with_a_sieve_below_1e5():
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def strong_probable_prime(n: int, base: int) -> bool:
    """Does odd n pass one Miller-Rabin round to this base?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# The least strong pseudoprime to the first t prime bases, with t.  Below each
# bound is_prime runs t bases; at the bound it must run more.
MR_TIER_BOUNDS = [
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
    (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
]


@pytest.mark.parametrize("bound, t", MR_TIER_BOUNDS)
def test_is_prime_rejects_each_tier_bound(bound, t):
    # each bound fools the first t bases, so an is_prime that picked its tier
    # by n <= bound would call it prime (2047 = 23 * 89 falls to trial
    # division first, so only the seven larger bounds catch that)
    assert all(strong_probable_prime(bound, base) for base in (2, 3, 5, 7, 11, 13, 17, 19, 23)[:t])
    assert not is_prime(bound)


def test_is_prime_below_1373653_runs_two_bases(monkeypatch):
    calls = []
    monkeypatch.setattr(arith, "pow", lambda *args: calls.append(args) or pow(*args),
                        raising=False)
    assert is_prime(1000003)
    assert [base for base, _, _ in calls] == [2, 3]


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
