import math
import random
import time

import pytest

from fibval import rank
from fibval.rank import Mod5Class, rank_of_apparition
from fibval.arith import _nu_int, fib, fib_mod, is_prime


def sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i:: i] = bytearray(len(flags[i * i:: i]))
    return [i for i, f in enumerate(flags) if f]


def side(p: int) -> int:
    """p - (5/p): the number z(p) divides, for p != 5."""
    return p + 1 if p % 5 in (2, 3) else p - 1


def random_prime(rng: random.Random, bits: int) -> int:
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(p):
            return p


def half_side_prime(rng: random.Random, bits: int) -> int:
    """A prime p whose (p -+ 1)/2 is prime too: N = 2 * prime, the worst
    case for trial division."""
    while True:
        p = random_prime(rng, bits)
        if is_prime(side(p) // 2):
            return p


def test_examples():
    rec = rank_of_apparition(2)
    assert (rec.z, rec.nu_fz) == (3, 1)
    rec = rank_of_apparition(7)
    assert (rec.z, rec.nu_fz) == (8, 1)
    rec = rank_of_apparition(13)
    assert (rec.z, rec.nu_fz) == (7, 1)
    rec = rank_of_apparition(5)
    assert (rec.z, rec.nu_fz) == (5, 1)


def test_rejects_composite():
    with pytest.raises(ValueError):
        rank_of_apparition(9)


def test_congruence_class_examples():
    assert rank_of_apparition(11).mod5 is Mod5Class.PLUS_MINUS_1
    assert rank_of_apparition(3).mod5 is Mod5Class.PLUS_MINUS_2
    assert rank_of_apparition(5).mod5 is Mod5Class.IS_5
    assert rank_of_apparition(2).mod5 is Mod5Class.PLUS_MINUS_2
    assert rank_of_apparition(19).mod5 is Mod5Class.PLUS_MINUS_1


def test_congruence_class_matches_p_mod_5_below_1e4():
    classes = {0: Mod5Class.IS_5, 1: Mod5Class.PLUS_MINUS_1, 4: Mod5Class.PLUS_MINUS_1,
               2: Mod5Class.PLUS_MINUS_2, 3: Mod5Class.PLUS_MINUS_2}
    for p in sieve(10**4):  # 2 and 5 included
        assert rank_of_apparition(p).mod5 is classes[p % 5], p


def test_side_divisibility_up_to_1e4():
    for p in sieve(10**4):
        rec = rank_of_apparition(p)
        if p == 5:
            assert rec.z == 5
            continue
        assert side(p) % rec.z == 0, p
        assert math.gcd(rec.z, p) == 1
        assert rec.nu_fz >= 1


def test_divisibility_iff_rank_divides_index():
    # p | F_m exactly at the multiples of z(p), checked through 5 periods
    for p in sieve(10**4):
        z = rank_of_apparition(p).z
        zeros = []
        a, b = 1, 1
        for m in range(1, 5 * z + 1):
            if not a:
                zeros.append(m)
            a, b = b, (a + b) % p
        assert zeros == list(range(z, 5 * z + 1, z)), p


def test_nu_fz_matches_exact_fibonacci():
    for p in sieve(200):
        rec = rank_of_apparition(p)
        assert rec.nu_fz == _nu_int(p, fib(rec.z))


def test_large_primes_rank():
    rng = random.Random(2019)
    primes = [random_prime(rng, bits) for bits in (20, 32, 48, 62, 63, 64) for _ in range(3)]
    primes += [half_side_prime(rng, bits) for bits in (32, 48, 62)]
    primes.append((1 << 64) - 59)  # the largest prime below 2^64
    rank.clear_cache()
    for p in primes:
        start = time.perf_counter()
        rec = rank_of_apparition(p)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1, (p, elapsed)
        assert side(p) % rec.z == 0, p
        assert fib_mod(rec.z, p) == 0, p
        for q in rank._prime_factors(rec.z):
            assert fib_mod(rec.z // q, p) != 0, (p, q)
        assert rec.nu_fz >= 1


def test_prime_factors_random_below_2_64():
    rng = random.Random(1908)
    samples = [rng.randrange(1, 1 << 64) for _ in range(100)]
    # a square and a product of two primes near 2^32: the slowest cases for rho
    samples += [4294967291**2, 4294967279 * 4294967291, 1, 2, 1023**2, 1 << 63]
    for n in samples:
        factors = rank._prime_factors(n)
        assert factors == sorted(set(factors)), n
        rest = n
        for q in factors:
            assert is_prime(q), (n, q)
            assert rest % q == 0, (n, q)
            while rest % q == 0:
                rest //= q
        assert rest == 1, n
