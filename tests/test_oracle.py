import random
import tracemalloc
from array import array
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibval.arith as arith
from fibval import oracle
from fibval.arith import FormulaIntegrityError, _nu_int, fib, fib_mod
from fibval.oracle import (
    EXACT_CAP_DEFAULT,
    EXACT_CAP_MAX,
    MODULAR_CAP,
    OracleTier,
    nu_fibonomial_oracle,
)

import fibonomial_rows
from fibonomial_rows import fibonomial_exact, fibonomial_row

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def fibonomial_by_definition(m: int, k: int) -> int:
    # the defining quotient, with fib called at every index rather than
    # stepping a Fibonacci pair as fibonomial_exact does
    num = den = 1
    for i in range(m - k + 1, m + 1):
        num *= fib(i)
    for i in range(1, k + 1):
        den *= fib(i)
    assert num % den == 0
    return num // den


def test_exact_examples():
    assert fibonomial_exact(5, 2) == 15
    assert fibonomial_exact(6, 2) == 40
    assert fibonomial_exact(9, 0) == 1
    assert fibonomial_exact(8, 2) == 273
    assert fibonomial_exact(8, 4) == 1820


def test_exact_matches_definition_small_grid():
    for m in range(0, 41):
        for k in range(0, m + 1):
            assert fibonomial_exact(m, k) == fibonomial_by_definition(m, k)


def test_primitive_parts_multiply_to_fib(cold_prefixes):
    # F_n is the product of P_d over the divisors d of n: a divisor loop, not the sieve
    fibonomial_exact(300, 1, cap=300)
    parts = oracle._parts
    for n in range(1, 301):
        assert prod(parts[d] for d in range(1, n + 1) if n % d == 0) == fib(n), n


def test_exact_is_the_product_over_the_carry_set():
    # e_d = floor(m/d) - floor(k/d) - floor((m-k)/d) is 0 or 1, and 1 exactly where
    # k mod d > m mod d (Knuth and Wilf's carry count, for Fibonacci primitive parts)
    fibonomial_exact(120, 1, cap=120)
    parts = oracle._parts
    for m in range(0, 121):
        row = fibonomial_row(m)
        for k in range(0, m + 1):
            exponents = [m // d - k // d - (m - k) // d for d in range(1, m + 1)]
            assert set(exponents) <= {0, 1}
            assert prod(parts[d] ** e for d, e in enumerate(exponents, 1)) == row[k], (m, k)


def test_carry_parts_is_the_carry_rule_over_every_d():
    # the rule runs for d <= m/2 and the d above are one slice, those above
    # max(k, m - k): the same parts in the same order as the rule over every d <= m
    fibonomial_exact(480, 1, cap=480)
    parts = oracle._parts
    for m in (*range(201), *range(200, 481, 7)):
        for k in range(m + 1):
            expected = [parts[d] for d in range(1, m + 1) if k % d > m % d]
            assert oracle._carry_parts(m, k, 480) == expected, (m, k)


@pytest.mark.parametrize("p", [*SMALL_PRIMES, 2**31 - 1, 2**61 - 1])
def test_exact_valuation_matches_nu_int(p):
    # tier A reads nu_p of its carry set's parts by this one rule, a sum over
    # the factors p divides; p = 2 reads the lowest set bit of each even factor.
    # The Fibonacci numbers add runs of factors that p does and does not divide.
    cofactors = (1, p - 1, p + 1, fib(480), fib(481) * (p - 1))
    factors = [p**v * t for v in (0, 1, 2, 5, 40) for t in cofactors]
    factors += [fib(i) for i in range(1, 50)]
    for x in factors:
        assert oracle._nu_factors(p, [x]) == _nu_int(p, x), x
    assert oracle._nu_factors(p, factors) == _nu_int(p, prod(factors))
    assert oracle._nu_factors(p, []) == 0


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=120), st.data())
def test_exact_symmetry(m, data):
    k = data.draw(st.integers(min_value=0, max_value=m))
    assert fibonomial_exact(m, k) == fibonomial_exact(m, m - k)


def peak_and_kept_bytes(fn):
    tracemalloc.start()
    try:
        value = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak, kept


def test_exact_peak_memory_stays_small(cold_prefixes):
    # a build steps every F_n into one list and sieves it in place: about 270 KiB
    # at its peak to EXACT_CAP_MAX, and the table it keeps holds about 176 KiB;
    # a query on it then holds only the list of its carry set's 824 parts, about
    # 11 KiB at its peak, never their product
    _, peak, kept = peak_and_kept_bytes(lambda: oracle._grow_parts(EXACT_CAP_MAX))
    assert peak < 384 * 2**10, peak
    assert kept < 192 * 2**10, kept
    value, peak, _ = peak_and_kept_bytes(
        lambda: nu_fibonomial_oracle(2, 1200, 600, OracleTier.EXACT, cap=1200))
    assert peak < 13 * 2**10, peak
    assert value.value == _nu_int(2, fibonomial_by_definition(1200, 600))


def patch_a_seed(monkeypatch, index, seed):
    """Make F_index wrong for the next build, which starts there; return the table."""
    oracle.clear_caches()
    if index > 1:
        oracle._grow_parts(index - 1)
    monkeypatch.setattr(oracle, "fib", lambda i: seed if i == index else fib(i))
    return oracle._parts


def test_exact_non_integral_quotient_raises(cold_prefixes, monkeypatch):
    # a wrong seed F_11 = 90 carries into every stepped factor F_12..F_22, and
    # what the sieve leaves of F_12 = 145 is odd, so P_3 = 2 does not divide it
    table = patch_a_seed(monkeypatch, 11, 90)
    with pytest.raises(FormulaIntegrityError, match="not an integer"):
        fibonomial_exact(20, 10)
    assert oracle._parts is table  # a failed build keeps nothing


@pytest.mark.parametrize("k", [31, 32, 33, 63, 64, 65, 97])  # either side of each run boundary
@pytest.mark.parametrize("extra", [0, 7])
def test_exact_matches_definition_across_run_boundaries(k, extra):
    m = 2 * k + extra
    assert fibonomial_exact(m, k, cap=m) == fibonomial_by_definition(m, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=400), st.data())
def test_exact_matches_the_row(m, data):
    # the two tier-A routes: products of factors, and the row recurrence
    k = data.draw(st.integers(min_value=0, max_value=m))
    assert fibonomial_exact(m, k) == fibonomial_row(m)[k]


def test_exact_non_integral_quotient_raises_past_the_first_run(cold_prefixes, monkeypatch):
    # a wrong seed fib(51) + 1, past the first run of parts: it is odd, and the
    # sieve divides it by P_3 = 2, since 3 divides 51
    table = patch_a_seed(monkeypatch, 51, fib(51) + 1)
    with pytest.raises(FormulaIntegrityError, match="not an integer"):
        fibonomial_exact(100, 50)
    assert oracle._parts is table


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("m, k, index, seed", [(20, 10, 11, 90), (100, 50, 51, fib(51) + 1)],
                         ids=["F_11=90", "F_51+1"])
def test_exact_oracle_non_integral_quotient_raises(cold_prefixes, monkeypatch, p, m, k, index,
                                                   seed):
    # the oracle reads the same table, whose every division is checked by its remainder
    table = patch_a_seed(monkeypatch, index, seed)
    with pytest.raises(FormulaIntegrityError, match="not an integer"):
        nu_fibonomial_oracle(p, m, k, OracleTier.EXACT)
    assert oracle._parts is table


@pytest.mark.parametrize("p", [2, 3])
def test_exact_scaled_seeds_fail_the_end_of_build_check(cold_prefixes, monkeypatch, p):
    # F_1 = 2 doubles every stepped F_n; every division of the sieve still holds,
    # since P_1 = 2 takes the factor 2 out, so only the end check sees it
    table = patch_a_seed(monkeypatch, 1, 2)
    with pytest.raises(FormulaIntegrityError, match="drifted from fast doubling"):
        nu_fibonomial_oracle(p, 20, 10, OracleTier.EXACT)
    assert oracle._parts is table == []


@pytest.mark.parametrize("warm", [False, True])
def test_exact_build_rejects_a_factor_below_1(cold_prefixes, monkeypatch, warm):
    # zero seeds step every F_n to 0, and the end check's fib agrees; unguarded,
    # the sieve divides by P_1 = 0 (or by a P_d = 0 past a warm table's end)
    if warm:
        oracle._grow_parts(10)
    table = oracle._parts
    monkeypatch.setattr(oracle, "fib", lambda i: 0)
    for p in (2, 3):
        with pytest.raises(FormulaIntegrityError, match="below 1"):
            nu_fibonomial_oracle(p, 20, 10, OracleTier.EXACT)
    with pytest.raises(FormulaIntegrityError, match="below 1"):
        fibonomial_exact(20, 10)
    assert oracle._parts is table
    assert len(table) == (11 if warm else 0)


def test_modular_oracle_negative_sum_raises(cold_prefixes):
    # a corrupt prefix: sums[5] - sums[3] - sums[2] = -1
    oracle._val_sums[7] = array("q", [0, 0, 1, 1, 1, 1, 1])
    with pytest.raises(FormulaIntegrityError, match="negative valuation"):
        nu_fibonomial_oracle(7, 5, 2)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_exact_oracle_is_0_at_k_0_and_k_m(p):
    for m in (0, 1, 2, 7, 400):
        assert nu_fibonomial_oracle(p, m, 0, OracleTier.EXACT).value == 0
        assert nu_fibonomial_oracle(p, m, m, OracleTier.EXACT).value == 0


def test_exact_oracle_peak_memory_stays_under_the_quotient(cold_prefixes):
    # counted: with the table built, a query holds only the list of its carry
    # set's parts, about 11 KiB at its peak here; C(1200, 600)_F alone is about 31 KiB
    oracle._grow_parts(1200)
    value, peak, _ = peak_and_kept_bytes(
        lambda: nu_fibonomial_oracle(3, 1200, 600, OracleTier.EXACT, cap=1200))
    assert peak < 16 * 2**10, peak
    assert value == nu_fibonomial_oracle(3, 1200, 600, OracleTier.MODULAR)


def test_exact_seeds_through_two_fib_calls(cold_prefixes, monkeypatch):
    # the tracer counts tier A's fib calls by patching the module-global name fib:
    # a build seeds through two calls and checks its last pair through two more
    calls = []
    monkeypatch.setattr(oracle, "fib", lambda i: calls.append(i) or fib(i))
    fibonomial_exact(20, 10)
    assert calls == [0, 1, 20, 21]
    del calls[:]
    fibonomial_exact(30, 7)  # a build runs to at least twice the table's length
    assert calls == [20, 21, 42, 43]
    del calls[:]
    for m, k in [(9, 0), (20, 10), (42, 21), (30, 29)]:
        fibonomial_exact(m, k)
    nu_fibonomial_oracle(3, 40, 13, OracleTier.EXACT)
    assert calls == []  # a warm query calls fib zero times


def test_parts_table_is_bounded_and_cleared(cold_prefixes):
    fibonomial_exact(300, 7, cap=300)
    assert len(oracle._parts) == 301
    fibonomial_exact(350, 7, cap=350)  # doubling stops at the call's cap
    assert len(oracle._parts) == 351
    nu_fibonomial_oracle(5, 600, 300, OracleTier.EXACT, cap=EXACT_CAP_MAX)
    assert len(oracle._parts) == 703  # to twice 351, within EXACT_CAP_MAX
    nu_fibonomial_oracle(5, EXACT_CAP_MAX, 300, OracleTier.EXACT, cap=EXACT_CAP_MAX)
    assert len(oracle._parts) == EXACT_CAP_MAX + 1
    oracle.clear_caches()
    assert oracle._parts == []


def test_exact_cap_enforced():
    with pytest.raises(ValueError):
        fibonomial_exact(EXACT_CAP_DEFAULT + 1, 3)
    with pytest.raises(ValueError):
        fibonomial_exact(50, 3, cap=40)
    assert fibonomial_exact(420, 1, cap=450) == fib(420)
    # a cap argument is bounded by EXACT_CAP_MAX
    with pytest.raises(ValueError, match=f"cap must be <= {EXACT_CAP_MAX}"):
        fibonomial_exact(5, 2, cap=EXACT_CAP_MAX + 1)
    with pytest.raises(ValueError, match=f"cap must be <= {EXACT_CAP_MAX}"):
        nu_fibonomial_oracle(2, 5, 2, OracleTier.EXACT, cap=10**9)
    assert fibonomial_exact(5, 2, cap=EXACT_CAP_MAX) == 15
    # a cap below 1 is blamed itself, not the index, even where m fits under it
    with pytest.raises(ValueError, match="exact tier cap must be >= 1, got -3"):
        fibonomial_exact(5, 2, cap=-3)
    with pytest.raises(ValueError, match="exact tier cap must be >= 1, got 0"):
        fibonomial_exact(0, 0, cap=0)
    assert fibonomial_exact(1, 1, cap=1) == 1


def test_exact_rejects_bad_indices():
    with pytest.raises(ValueError):
        fibonomial_exact(5, 6)
    with pytest.raises(ValueError):
        fibonomial_exact(5, -1)


def test_row_matches_definition_small_grid():
    for m in range(0, 26):
        assert fibonomial_row(m) == [fibonomial_by_definition(m, k) for k in range(m + 1)]


def test_row_non_integral_step_raises(monkeypatch):
    # a wrong seed F_20 = 6766 carries into every factor stepped down from it
    monkeypatch.setattr(fibonomial_rows, "fib", lambda i: 6766 if i == 20 else fib(i))
    with pytest.raises(FormulaIntegrityError, match="not an integer"):
        fibonomial_row(20)


def test_oracle_examples():
    val = nu_fibonomial_oracle(2, 6, 2, OracleTier.EXACT)
    assert val == (3,)
    val = nu_fibonomial_oracle(3, 9, 3, OracleTier.MODULAR)
    assert val == (1,)
    assert nu_fibonomial_oracle(7, 8, 0, OracleTier.EXACT).value == 0


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("k", [-1, 501, 700])
def test_modular_tier_rejects_k_outside_0_to_m(cold_prefixes, warm, k):
    # unguarded, a cold prefix ends at m and raises IndexError; a warm one
    # reads entries past m or from the end and can sum to a negative valuation
    if warm:
        nu_fibonomial_oracle(3, 2000, 1)
    with pytest.raises(ValueError, match="need 0 <= k <= m"):
        nu_fibonomial_oracle(3, 500, k, OracleTier.MODULAR)


@pytest.mark.parametrize("tier", ["exact", "modular", None])
def test_oracle_rejects_a_tier_that_is_not_an_oracle_tier(tier):
    # a string tier once fell through to tier B, whatever it named
    with pytest.raises(ValueError, match="tier must be an OracleTier"):
        nu_fibonomial_oracle(3, 10, 5, tier)


def test_modular_cap_enforced():
    with pytest.raises(ValueError):
        nu_fibonomial_oracle(2, MODULAR_CAP + 1, 1, OracleTier.MODULAR)
    # the cap argument is tier A's; the modular tier refuses one
    for cap in (10**9, EXACT_CAP_DEFAULT, 0):
        with pytest.raises(ValueError, match="modular tier takes no cap"):
            nu_fibonomial_oracle(2, 5, 2, OracleTier.MODULAR, cap=cap)


def test_tiers_agree_up_to_300():
    for m in range(0, 301):
        row = fibonomial_row(m)
        if m % 20 == 0:  # pins the single-query path on every twentieth row
            assert row == [fibonomial_exact(m, k) for k in range(m + 1)], m
        for k, value in enumerate(row):
            for p in SMALL_PRIMES:
                expected = 0
                x = value
                while x % p == 0:
                    x //= p
                    expected += 1
                assert nu_fibonomial_oracle(p, m, k, OracleTier.MODULAR).value == expected, \
                    (p, m, k)


@settings(max_examples=100)
@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=0, max_value=350), st.data())
def test_modular_tier_nonnegative(p, m, data):
    k = data.draw(st.integers(min_value=0, max_value=m))
    assert nu_fibonomial_oracle(p, m, k, OracleTier.MODULAR).value >= 0


def test_oracle_never_imports_the_formula_layer():
    # ground truth must stay independent of what it is checking
    import ast
    import pathlib

    import fibval.oracle as oracle_module

    tree = ast.parse(pathlib.Path(oracle_module.__file__).read_text())
    imported = [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    assert not any("formulas" in mod or "rank" in mod for mod in imported), imported


# --- tier-B recurrence sweep --------------------------------------------------

F_83 = 99194853094755497  # a Fibonacci prime: z(F_83) = 83, and F_83^2 > 2^63, so E = 1
SWEEP_PRIMES = (2, 3, 5, 7, 11, 13, 999983, 2**64 - 59, F_83)


@pytest.fixture
def cold_prefixes():
    oracle.clear_caches()
    yield
    oracle.clear_caches()


def running_sums(p: int, top: int) -> list[int]:
    sums = [0]
    for i in range(1, top + 1):
        sums.append(sums[-1] + oracle._index_valuation(p, i))
    return sums


def test_sweep_modulus_is_the_largest_power_below_2_30_or_else_2_63():
    assert oracle._sweep_modulus(2) == 2**29
    assert oracle._sweep_modulus(3) == 3**18
    assert 3**19 > 2**30
    assert oracle._sweep_modulus(31) == 31**6
    assert 31**7 > 2**30
    # 32771^2 > 2^30, so the power is the largest below 2^63
    assert oracle._sweep_modulus(32771) == 32771**4
    assert 32771**2 > 2**30 and 32771**5 > 2**63
    assert oracle._sweep_modulus(F_83) == F_83
    assert oracle._sweep_modulus(2**64 - 59) == 2**64 - 59


def test_sweep_falls_back_where_the_modulus_divides_f_i(cold_prefixes, monkeypatch):
    # 1597 = F_17, so z = 17 and nu_p(F_17) = 1, and M = 1597^2 divides F_i
    # exactly at the multiples of 17 * 1597 = 27149
    p = 1597
    assert oracle._sweep_modulus(p) == p**2
    expected = running_sums(p, 60000)
    fallbacks = []
    real = oracle._index_valuation
    monkeypatch.setattr(oracle, "_index_valuation", lambda p, i: fallbacks.append(i) or real(p, i))
    assert list(oracle._valuation_prefix(p, 60000)) == expected
    assert fallbacks == [27149, 54298]


@pytest.mark.parametrize("p, z", [(2, 3), (3, 4), (31, 30)])
def test_deep_prefix_steps_match_index_valuation(cold_prefixes, p, z):
    # half the indices are multiples of z(p), the only ones with nu_p(F_j) > 0
    top = 10**6
    sums = oracle._valuation_prefix(p, top)
    rng = random.Random(p)
    js = [rng.randint(1, top) for _ in range(150)] + [z * rng.randint(1, top // z) for _ in range(150)]
    assert [sums[j] - sums[j - 1] for j in js] == [oracle._index_valuation(p, j) for j in js]


@pytest.mark.parametrize("p", SWEEP_PRIMES)
def test_sweep_matches_index_valuation(cold_prefixes, monkeypatch, p):
    expected = running_sums(p, 3000)
    fallbacks = []
    real = oracle._index_valuation
    monkeypatch.setattr(oracle, "_index_valuation", lambda p, i: fallbacks.append(i) or real(p, i))
    assert list(oracle._valuation_prefix(p, 3000)) == expected
    # only F_83 reaches a residue of 0 mod p^E below index 3000, at each multiple of 83
    assert fallbacks == (list(range(83, 3001, 83)) if p == F_83 else [])


@pytest.mark.parametrize("p", (2, 7, F_83))
def test_incremental_builds_match_cold_build(cold_prefixes, p):
    for top in (1000, 1500, 3000):
        oracle._valuation_prefix(p, top)
    warm = list(oracle._val_sums[p])
    assert len(warm) == 4007  # built to 1000, then at least doubled: 2002, 4006
    oracle.clear_caches()
    assert warm == list(oracle._valuation_prefix(p, 4006))


@pytest.mark.parametrize("wrong_index", [0, 500])  # the seed, then the end-of-build check
def test_wrong_fib_mod_fails_the_end_of_build_check(cold_prefixes, monkeypatch, wrong_index):
    def corrupted(m, modulus):
        value = fib_mod(m, modulus)
        return (value + 1) % modulus if m == wrong_index else value

    monkeypatch.setattr(oracle, "fib_mod", corrupted)
    with pytest.raises(FormulaIntegrityError):
        nu_fibonomial_oracle(7, 500, 3)
    assert list(oracle._val_sums[7]) == [0]  # nothing unchecked is kept
    monkeypatch.setattr(oracle, "fib_mod", fib_mod)
    assert list(oracle._valuation_prefix(7, 500)) == running_sums(7, 500)


def test_warm_modular_call_makes_no_primality_test(cold_prefixes, monkeypatch):
    p = 1000003
    expected = nu_fibonomial_oracle(p, 3000, 1000)  # checks p and builds its prefix
    calls = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
    assert nu_fibonomial_oracle(p, 3000, 1000) == expected
    assert nu_fibonomial_oracle(p, 4000, 7) == nu_fibonomial_oracle(p, 4000, 7)
    assert calls == []
    nu_fibonomial_oracle(p, 30, 7, OracleTier.EXACT)  # tier A keeps its per-call check
    assert calls == [p]


@pytest.mark.parametrize("tier", list(OracleTier))
@pytest.mark.parametrize("p", [1, 9, 91, 2**64 + 1])
def test_oracle_rejects_composite_and_huge_p_before_the_index_check(p, tier):
    expected = "expected a prime" if p < 2**64 else "n < 2\\^64"
    with pytest.raises(ValueError, match=expected):
        nu_fibonomial_oracle(p, 5, 9, tier)  # k > m would fail next
    assert p not in oracle._val_sums


def test_prefix_table_evicts_the_oldest_built_primes_past_its_cap(cold_prefixes, monkeypatch):
    primes = SMALL_PRIMES + (999983,)
    rounds = ((40, primes), (700, primes), (3000, primes[::-1]))  # the last builds reversed
    queries = [(p, m, k) for m, order in rounds for p in order for k in (1, m // 3)]
    expected = [nu_fibonomial_oracle(*query) for query in queries]  # evicts nothing
    oracle.clear_caches()
    monkeypatch.setattr(oracle, "MODULAR_CAP", 3000)
    monkeypatch.setattr(oracle, "PREFIX_ENTRY_CAP", 7000)  # two full prefixes and then some
    got = []
    for p, m, k in queries:
        got.append(nu_fibonomial_oracle(p, m, k))
        assert sum(map(len, oracle._val_sums.values())) <= 7000
        assert list(oracle._val_sums)[-1] == p  # the prime just built is kept
    assert got == expected
    kept = list(oracle._val_sums)
    assert kept == list(primes[len(kept) - 1::-1])  # the last built survive, in build order
    evicted = primes[-1]
    assert evicted not in kept
    checked = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: checked.append(n) or real(n))
    query = (evicted, 3000, 1000)
    assert nu_fibonomial_oracle(*query) == expected[queries.index(query)]
    assert checked == [evicted]
