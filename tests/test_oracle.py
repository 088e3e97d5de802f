import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibval.arith as arith
from fibval import oracle
from fibval.arith import FormulaIntegrityError, fib, fib_mod
from fibval.oracle import (
    EXACT_CAP_DEFAULT,
    EXACT_CAP_MAX,
    MODULAR_CAP,
    OracleTier,
    exact_cap,
    fibonomial_exact,
    fibonomial_row,
    nu_fibonomial_oracle,
)

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
    for m in range(0, 26):
        for k in range(0, m + 1):
            assert fibonomial_exact(m, k) == fibonomial_by_definition(m, k)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=120), st.data())
def test_exact_symmetry(m, data):
    k = data.draw(st.integers(min_value=0, max_value=m))
    assert fibonomial_exact(m, k) == fibonomial_exact(m, m - k)


def test_exact_peak_memory_stays_small():
    # the quotient is built afresh each call: no product table grows with m
    tracemalloc.start()
    try:
        value = fibonomial_exact(1200, 600, cap=1200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    assert value == fibonomial_by_definition(1200, 600)


def test_exact_non_integral_quotient_raises(monkeypatch):
    # a wrong seed F_11 = 90 carries into every stepped factor F_12..F_20,
    # and the quotient by F_1...F_10 is then not an integer
    monkeypatch.setattr(oracle, "fib", lambda i: 90 if i == 11 else fib(i))
    with pytest.raises(FormulaIntegrityError, match="not an integer"):
        fibonomial_exact(20, 10)


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


def test_exact_non_integral_quotient_raises_past_the_first_run(monkeypatch):
    # k = 50 spans two runs; a wrong seed F_51 carries into F_52..F_100
    monkeypatch.setattr(oracle, "fib", lambda i: fib(51) + 1 if i == 51 else fib(i))
    with pytest.raises(FormulaIntegrityError, match="not an integer"):
        fibonomial_exact(100, 50)


def test_exact_seeds_through_two_fib_calls(monkeypatch):
    # the tracer counts tier A's seeds by patching the module-global name fib
    calls = []
    monkeypatch.setattr(oracle, "fib", lambda i: calls.append(i) or fib(i))
    queries = [(9, 0), (20, 10), (100, 50), (300, 97), (400, 399)]
    for m, k in queries:
        fibonomial_exact(m, k)
    nu_fibonomial_oracle(3, 200, 70, OracleTier.EXACT)
    assert len(calls) == 2 * (len(queries) + 1)


def test_exact_cap_enforced():
    with pytest.raises(ValueError):
        fibonomial_exact(EXACT_CAP_DEFAULT + 1, 3)
    with pytest.raises(ValueError):
        fibonomial_exact(50, 3, cap=40)
    # a cap argument is bounded as the environment variable is
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


def test_exact_cap_env_override(monkeypatch):
    monkeypatch.setenv("FIBVAL_EXACT_CAP", "10")
    assert exact_cap() == 10
    with pytest.raises(ValueError):
        fibonomial_exact(12, 3)
    monkeypatch.setenv("FIBVAL_EXACT_CAP", "450")
    assert fibonomial_exact(420, 1) == fib(420)
    monkeypatch.setenv("FIBVAL_EXACT_CAP", "garbage")
    with pytest.raises(ValueError):
        exact_cap()
    monkeypatch.setenv("FIBVAL_EXACT_CAP", str(EXACT_CAP_MAX))
    assert exact_cap() == EXACT_CAP_MAX
    for raw in (str(EXACT_CAP_MAX + 1), "1000000000", "0"):
        monkeypatch.setenv("FIBVAL_EXACT_CAP", raw)
        with pytest.raises(ValueError, match=f"between 1 and {EXACT_CAP_MAX}"):
            exact_cap()


def test_exact_cap_too_many_digits_is_too_large(monkeypatch):
    # int() refuses past 4300 digits with a ValueError of its own
    raw = "9" * 5001
    monkeypatch.setenv("FIBVAL_EXACT_CAP", raw)
    with pytest.raises(ValueError, match="is too large") as info:
        exact_cap()
    assert "must be an integer" not in str(info.value)
    assert "9" * 41 not in str(info.value)


def test_exact_cap_error_echoes_at_most_40_characters(monkeypatch):
    monkeypatch.setenv("FIBVAL_EXACT_CAP", "garbage" * 1000)
    with pytest.raises(ValueError, match="must be an integer") as info:
        exact_cap()
    assert len(str(info.value)) < 120
    assert "7000 characters" in str(info.value)


def test_exact_rejects_bad_indices():
    with pytest.raises(ValueError):
        fibonomial_exact(5, 6)
    with pytest.raises(ValueError):
        fibonomial_exact(5, -1)


def test_row_matches_definition_small_grid():
    for m in range(0, 26):
        assert fibonomial_row(m) == [fibonomial_by_definition(m, k) for k in range(m + 1)]


def test_row_rejects_bad_m_and_enforces_the_cap(monkeypatch):
    with pytest.raises(ValueError, match="m >= 0"):
        fibonomial_row(-1)
    with pytest.raises(ValueError, match="capped"):
        fibonomial_row(EXACT_CAP_DEFAULT + 1)
    monkeypatch.setenv("FIBVAL_EXACT_CAP", "50")
    assert len(fibonomial_row(50)) == 51
    with pytest.raises(ValueError, match="capped"):
        fibonomial_row(51)


def test_row_non_integral_step_raises(monkeypatch):
    # a wrong seed F_20 = 6766 carries into every factor stepped down from it
    monkeypatch.setattr(oracle, "fib", lambda i: 6766 if i == 20 else fib(i))
    with pytest.raises(FormulaIntegrityError, match="not an integer"):
        fibonomial_row(20)


def test_oracle_examples():
    val = nu_fibonomial_oracle(2, 6, 2, OracleTier.EXACT)
    assert val == (3,)
    val = nu_fibonomial_oracle(3, 9, 3, OracleTier.MODULAR)
    assert val == (1,)
    assert nu_fibonomial_oracle(7, 8, 0, OracleTier.EXACT).value == 0


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


def test_sweep_modulus_is_the_largest_power_below_2_63():
    assert oracle._sweep_modulus(2) == 2**62
    assert oracle._sweep_modulus(3) == 3**39
    assert 3**40 > 2**63
    assert oracle._sweep_modulus(F_83) == F_83
    assert oracle._sweep_modulus(2**64 - 59) == 2**64 - 59


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
        entries = sum(map(len, oracle._val_sums.values()))
        assert entries == oracle._entries <= 7000
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
