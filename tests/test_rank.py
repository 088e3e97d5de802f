import copy
import math
import pickle
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from fibval import arith, rank
from fibval.rank import Mod5Class, RankRecord, rank_of_apparition
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


def test_record_is_read_only_with_a_dataclass_repr():
    rec = rank_of_apparition(7)
    assert repr(rec) == "RankRecord(p=7, z=8, nu_fz=1, mod5=<Mod5Class.PLUS_MINUS_2: 'plus_minus_2'>)"
    with pytest.raises(AttributeError):
        rec.z = 1
    with pytest.raises(AttributeError):
        del rec.p
    assert (rec.p, rec.z, rec.nu_fz, rec.mod5) == (7, 8, 1, Mod5Class.PLUS_MINUS_2)


def test_record_equality_and_hash_follow_the_fields():
    rec = rank_of_apparition(7)
    same = RankRecord(p=7, z=8, nu_fz=1, mod5=Mod5Class.PLUS_MINUS_2)
    assert same == rec and hash(same) == hash(rec) and same is not rec
    assert RankRecord(7, 8, 1, Mod5Class.PLUS_MINUS_2) == same
    for other in (RankRecord(7, 8, 2, Mod5Class.PLUS_MINUS_2),
                  RankRecord(7, 8, 1, Mod5Class.PLUS_MINUS_1),
                  RankRecord(11, 8, 1, Mod5Class.PLUS_MINUS_2)):
        assert other != rec
    assert tuple(rec) == (7, 8, 1, Mod5Class.PLUS_MINUS_2)
    assert len({rec, same, rank_of_apparition(11)}) == 2
    assert copy.copy(rec) == rec and pickle.loads(pickle.dumps(rec)) == rec


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


def test_large_primes_rank(monkeypatch):
    rng = random.Random(2019)
    primes = [random_prime(rng, bits) for bits in (20, 32, 48, 62, 63, 64) for _ in range(3)]
    primes += [half_side_prime(rng, bits) for bits in (32, 48, 62)]
    primes.append((1 << 64) - 59)  # the largest prime below 2^64
    calls = []
    monkeypatch.setattr(rank, "fib_mod", lambda m, modulus: calls.append(m) or fib_mod(m, modulus))
    for p in primes:
        best = math.inf
        for _ in range(3):  # the best of three cold calls, so host load does not count
            rank.clear_cache()
            calls.clear()
            start = time.perf_counter()
            rec = rank_of_apparition(p)
            best = min(best, time.perf_counter() - start)
        assert best < 0.1, (p, best)
        assert len(calls) <= 9, (p, calls)  # the descent, not a scan of the divisors of p -+ 1
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


def brute_prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return factors + ([n] if n > 1 else [])


# 1021 is the largest prime below the trial bound 2^10; 1031 and 1033 are
# the first above it, left to the cofactor rule and Pollard rho
@pytest.mark.parametrize("n", [1021**2, 2**10 * 1021, 1031**2, 1031 * 1033, 1, 2])
def test_prime_factors_at_the_trial_bound(n):
    assert rank._prime_factors(n) == brute_prime_factors(n)


def test_trial_primes_are_the_primes_below_the_bound():
    expected = [q for q in range(2, rank._TRIAL_BOUND)
                if all(q % d for d in range(2, math.isqrt(q) + 1))]
    assert rank._TRIAL_PRIMES == tuple(expected)
    assert (len(expected), expected[-1]) == (172, 1021)


@pytest.mark.parametrize("p", [2, 3, 7, 11, 29, 1000003, 9223372036854775783])
def test_cold_rank_reads_nu_fz_in_one_fast_doubling(monkeypatch, p):
    calls = []
    monkeypatch.setattr(arith, "fib_mod",
                        lambda m, modulus: calls.append((m, modulus)) or fib_mod(m, modulus))
    rank.clear_cache()
    rec = rank_of_apparition(p)
    assert rec.nu_fz == 1
    assert calls == [(rec.z, p * p)]


def test_cache_keeps_at_most_its_bound_and_drops_the_oldest(monkeypatch):
    rank.clear_cache()
    monkeypatch.setattr(rank, "_CACHE_BOUND", 4)
    primes = sieve(30)
    records = [rank_of_apparition(p) for p in primes]
    assert list(rank._cache) == primes[-4:]
    assert rank_of_apparition(2) == records[0]  # dropped, so built again
    assert list(rank._cache) == primes[-3:] + [2]
    kept = dict(rank._cache)
    rank.clear_cache()
    assert kept == {p: rank_of_apparition(p) for p in kept}
    rank.clear_cache()


def test_bounded_cache_under_threads(monkeypatch):
    # the bound check, the eviction and the insertion share _cache_lock, so
    # no interleaving of misses leaves more than the bound
    primes = sieve(100)
    expected = [rank_of_apparition(p) for p in primes] * 8
    rank.clear_cache()
    monkeypatch.setattr(rank, "_CACHE_BOUND", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(rank_of_apparition, p) for p in primes * 8]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert len(rank._cache) <= 4
    rank.clear_cache()
