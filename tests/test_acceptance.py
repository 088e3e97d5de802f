"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines as
they complete; the slow grids share the module-scoped report below.
"""

import random
import time

import pytest

import fibval.formulas as formulas
from fibval import oracle
from fibval.arith import _nu_int, fib, is_prime
from fibval.formulas import (
    all_qualified_labels,
    divides_p_central,
    is_odd_2n,
    is_odd_4n,
    is_odd_8n,
    nu5_central,
    nu_fibonomial_formula,
)
from fibval.oracle import OracleTier, nu_fibonomial_oracle
from fibval.rank import rank_of_apparition
from fibval.verify import VerifyConfig, _general_rows, run_verify

from fibonomial_rows import fibonomial_exact, fibonomial_row

GRID_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
EXACT_PRIMES = (2, 3, 5, 7, 11, 13)
PM2_PRIMES = (3, 7, 13, 17, 23)
PM1_PRIMES = (11, 19, 29, 31)
INDEX_LIMIT = 10**5
MILLION = 10**6
# primes of small rank of apparition z, as (p, z): p | F_z, so p | F_i at every
# multiple of z on the tier-B prefix
SMALL_RANK_PRIMES = (
    # +-1 (mod 5)
    (230_686_501, 75),
    (370_248_451, 82),
    (3_415_914_041, 85),
    (14_736_206_161, 65),
    (1_665_088_321_800_481, 89),
    # +-2 (mod 5): F_43, F_47 and F_83 themselves
    (433_494_437, 43),
    (2_971_215_073, 47),
    (2_710_260_697, 59),
    (46_165_371_073, 71),
    (99_194_853_094_755_497, 83),
)


def record(num: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def grid_report():
    config = VerifyConfig(primes=GRID_PRIMES, a_max=4, n_max=INDEX_LIMIT,
                          index_cap=INDEX_LIMIT, tier=OracleTier.MODULAR)
    return run_verify(config)


def test_criterion_1_grid_equivalence(grid_report):
    ok = (grid_report.mismatches == []
          and grid_report.cells_checked > 200_000
          and grid_report.elapsed_seconds < 300)
    record(1, f"central formulas match the modular oracle on "
              f"{grid_report.cells_checked} cells "
              f"({grid_report.elapsed_seconds:.0f}s)", ok)


def test_criterion_2_exact_tier_spot_grid():
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for m in range(0, 301):
        row = fibonomial_row(m)
        if m % 20 == 0 and row != [fibonomial_exact(m, k) for k in range(m + 1)]:
            mismatches += 1  # the single-query path, pinned on every twentieth row
        for k, value in enumerate(row):
            for p in EXACT_PRIMES:
                checked += 1
                if nu_fibonomial_formula(p, m, k)[0].value != _nu_int(p, value):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120
    record(2, f"general formula matches the exact oracle on {checked} "
              f"(p, m, k) cells ({elapsed:.0f}s)", ok)


def test_criterion_3_2n_always_even():
    exceptions = [n for n in range(2, MILLION + 1) if is_odd_2n(n)]
    record(3, f"(2n, n) Fibonomial even for all 2 <= n <= 1e6 "
              f"({len(exceptions)} exceptions)", exceptions == [])


def test_criterion_4_4n_odd_iff_power_of_two():
    found = [n for n in range(1, MILLION + 1) if is_odd_4n(n)]
    expected = [1 << k for k in range(20)]
    record(4, f"odd (4n, n) at exactly the {len(expected)} powers of 2 up to 1e6",
           found == expected)


def test_criterion_5_8n_odd_membership():
    found = [n for n in range(1, MILLION + 1) if is_odd_8n(n)]
    frozen = [1, 7, 55, 439, 3511, 28087, 224695]
    derived = []
    k = 1
    while (n := (1 + 3 * 2**k) // 7) <= MILLION:
        assert (1 + 3 * 2**k) % 7 == 0
        derived.append(n)
        k += 3
    record(5, f"odd (8n, n) at exactly {frozen} up to 1e6",
           found == frozen == derived)


def test_criterion_6_5adic_binomial_reduction():
    def legendre(n: int) -> int:
        total, q = 0, 5
        while q <= n:
            total += n // q
            q *= 5
        return total

    bad = 0
    for a in range(1, 5):
        big_factor = 5**a
        for n in range(1, 10**4 + 1):
            value = nu5_central(a, n)[0].value
            big = big_factor * n
            if value < 1 or value != legendre(big) - legendre(n) - legendre(big - n):
                bad += 1
    record(6, "5-adic central value equals the factorial-sum binomial valuation "
              "and is >= 1 for a <= 4, n <= 1e4", bad == 0)


def test_criterion_7_divisibility_predicates():
    bad = 0
    checked = 0

    def check(p: int, a: int, n: int) -> None:
        nonlocal bad, checked
        checked += 1
        divisible = divides_p_central(p, a, n)[0]
        oracle_sign = nu_fibonomial_oracle(p, p**a * n, n).value > 0
        if divisible != oracle_sign:
            bad += 1

    for p in PM2_PRIMES:
        a = 1
        while p**a <= INDEX_LIMIT:
            for n in range(1, INDEX_LIMIT // p**a + 1):
                check(p, a, n)
            a += 1
    for p in PM1_PRIMES:
        for n in range(1, INDEX_LIMIT // p + 1):
            check(p, 1, n)
        z = rank_of_apparition(p).z
        a = 2
        while p**a <= INDEX_LIMIT:
            for n in range(z, INDEX_LIMIT // p**a + 1, z):
                check(p, a, n)
            a += 1
    record(7, f"divisibility predicate agrees with the oracle sign on "
              f"{checked} criterion-applicable cells", bad == 0)


def test_criterion_8_branch_coverage(grid_report):
    declared = set(all_qualified_labels())
    ok = (set(grid_report.expected) == declared
          and grid_report.uncovered == ()
          and min(grid_report.branch_coverage.values()) >= 1)
    record(8, "the verification grid drives every branch of every formula", ok)


def test_criterion_9_mutation_sensitivity(monkeypatch):
    slice_config = VerifyConfig(primes=(2,), a_max=4, n_max=300, index_cap=5000)
    assert run_verify(slice_config).exit_code == 0
    mutations = [
        (formulas.DELTA2_EVEN_A, 3, 0),
        (formulas.DELTA2_EVEN_A, 5, 0),
        (formulas.DELTA2_ODD_A_CONST, 5, 1),
        (formulas.DELTA2_ODD_A_CONST, 3, 0),
        (formulas.DELTA2_ODD_A_CEIL, 4, (0, 0)),
    ]
    caught = 0
    for table, key, wrong in mutations:
        with monkeypatch.context() as patch:
            patch.setitem(table, key, wrong)
            if run_verify(slice_config).exit_code != 0:
                caught += 1
    record(9, f"{caught}/{len(mutations)} seeded delta-table mutations break "
              "the verification grid", caught == len(mutations))


def _is_3n_exception(n: int) -> bool:
    """n = 1 or n = 2*3^j: the paper's set of n with 3 not dividing C(3n, n)_F."""
    if n == 1:
        return True
    if n % 2:
        return False
    n //= 2
    while n % 3 == 0:
        n //= 3
    return n == 1


def test_criterion_10_3n_not_divisible_membership():
    found = [n for n in range(1, MILLION + 1) if not divides_p_central(3, 1, n)[0]]
    expected = [n for n in range(1, MILLION + 1) if _is_3n_exception(n)]
    record(10, f"3 does not divide (3n, n) at exactly the {len(expected)} n = 1 or 2*3^j "
               "up to 1e6", found == expected)


def test_criterion_11_large_primes_of_small_rank():
    # above about 2^31.5 the tier-B sweep modulus is p itself, so every multiple
    # of z takes the _index_valuation fallback; a closed form checks it here
    config = VerifyConfig(primes=tuple(p for p, _ in SMALL_RANK_PRIMES), a_max=1, n_max=1,
                          index_cap=INDEX_LIMIT)
    rng = random.Random(11)
    checked = nonzero = mismatches = 0
    for p, z in SMALL_RANK_PRIMES:
        assert is_prime(p) and fib(z) % p == 0 and rank_of_apparition(p).z == z, p
        cells = [(m, k) for m, ks in _general_rows(config, p) for k in ks]
        for _ in range(1000):
            m = rng.randint(1, INDEX_LIMIT)
            cells.append((m, rng.randint(0, m)))
        for m, k in cells:
            ora = nu_fibonomial_oracle(p, m, k).value
            checked += 1
            nonzero += ora > 0
            mismatches += nu_fibonomial_formula(p, m, k)[0].value != ora
    fallback = sum(oracle._sweep_modulus(p) == p for p, _ in SMALL_RANK_PRIMES)
    record(11, f"general formula matches the modular oracle on {checked} cells "
               f"({nonzero} nonzero) at {len(SMALL_RANK_PRIMES)} primes of small rank, "
               f"{fallback} of them on the index-valuation fallback",
           mismatches == 0 and fallback == 5 and checked == 117_331)
