import dataclasses
import json
import time
import tracemalloc

import pytest

import fibval.formulas as formulas
import fibval.oracle as oracle
import fibval.verify as verify
from fibval.formulas import all_qualified_labels
from fibval.oracle import OracleTier
from fibval.verify import VerifyConfig, expected_labels, run_verify


def small_config(**overrides):
    defaults = dict(primes=(2, 3, 5, 11), a_max=2, n_max=60, index_cap=10**4)
    defaults.update(overrides)
    return VerifyConfig(**defaults)


@pytest.fixture(scope="module")
def small_report():
    return run_verify(small_config())


def test_clean_grid_passes(small_report):
    assert small_report.mismatches == []
    assert small_report.uncovered == ()
    assert small_report.exit_code == 0
    assert small_report.cells_checked > 0


def test_every_declared_label_is_a_key(small_report):
    assert set(small_report.branch_coverage) == set(all_qualified_labels())


def test_coverage_counts_are_pinned(small_report):
    # every count of small_config(), in declaration order
    assert list(small_report.branch_coverage.items()) == list({
        "T2adic_general:r>=s": 117, "T2adic_general:r>=s exceptional": 28,
        "T2adic_general:r<s exceptional": 58, "T2adic_general:r<s": 37,
        "T5adic:binomial": 211, "Tp_general_mk:r>=s": 425, "Tp_general_mk:r<s": 157,
        "Tratio:p2 a=b (eq or l2=0)": 38, "Tratio:p2 a=b (l1=0)": 4,
        "Tratio:p2 a=b (1,2)": 2, "Tratio:p2 a=b (2,1)": 6,
        "Tratio:p2 a!=b (neg or l2=0)": 19, "Tratio:p2 a!=b (l1=0)": 4,
        "Tratio:p2 a!=b (1,1)": 15, "Tratio:p2 a!=b (2,2)": 11,
        "Tratio:pm1 r>=s": 173, "Tratio:pm1 r<s": 111, "Tratio:pm2 r=s or l2=0": 49,
        "Tratio:pm2 l1=0": 11, "Tratio:pm2 a even r>s": 7, "Tratio:pm2 a even r<s": 3,
        "Tratio:pm2 a odd r>s": 11, "Tratio:pm2 a odd r<s": 20,
        "C2adic:a even, n%6 in {3,5}": 20, "C2adic:a even, n%6 in {0,1,2,4}": 40,
        "C2adic:a odd, n odd": 30, "C2adic:a odd, n%6=0": 10, "C2adic:a odd, n%6=2": 10,
        "C2adic:a odd, n%6=4": 10, "C5adic:s5 digit sum": 120, "Cp:pm1": 120,
        "Cp:pm2 a even": 60, "Cp:pm2 a odd r=s": 30, "Cp:pm2 a odd r<s": 15,
        "Cp:pm2 a odd r>s": 15,
    }.items())
    assert type(small_report.branch_coverage) is dict


def test_expected_labels_scoping():
    # no +-1 (mod 5) prime: the pm1 rows are out of scope
    no_pm1 = expected_labels(small_config(primes=(2, 3, 5, 7)))
    assert not any("pm1" in lab for lab in no_pm1)
    with_pm1 = expected_labels(small_config(primes=(2, 3, 5, 11)))
    assert "Cp:pm1" in with_pm1
    assert "Tratio:pm1 r<s" in with_pm1
    # a_max = 1 leaves every even-exponent case out of scope
    odd_only = expected_labels(small_config(primes=(2, 3, 5, 11), a_max=1))
    assert not any("a even" in lab for lab in odd_only)


ACCEPTANCE_GRID = VerifyConfig(primes=(2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31), a_max=4,
                               n_max=10**5, index_cap=10**5)


@pytest.mark.parametrize("config, expected", [
    # the acceptance grid reaches every declared label
    (ACCEPTANCE_GRID, all_qualified_labels()),
    # n_limit(3, 1) = 3 < z(3) = 4: no central pm2 a-odd row, only sweep rows
    (VerifyConfig(primes=(3,), a_max=1, n_max=50, index_cap=10),
     ("Tp_general_mk:r>=s", "Tp_general_mk:r<s", "Tratio:pm2 r=s or l2=0",
      "Tratio:pm2 l1=0", "Tratio:pm2 a odd r>s", "Tratio:pm2 a odd r<s")),
    # a_max = 1: every label but the five even-exponent ones
    (small_config(a_max=1),
     tuple(lab for lab in all_qualified_labels()
           if lab not in ("Tratio:pm2 a even r>s", "Tratio:pm2 a even r<s",
                          "C2adic:a even, n%6 in {3,5}", "C2adic:a even, n%6 in {0,1,2,4}",
                          "Cp:pm2 a even"))),
])
def test_expected_labels_exact_sets(config, expected):
    # exact sets, in declaration order (the order of branch_coverage keys)
    assert expected_labels(config) == expected


def test_acceptance_grid_expects_all_35_labels():
    assert len(set(expected_labels(ACCEPTANCE_GRID))) == 35


def test_report_json_shape(small_report):
    doc = json.loads(small_report.to_json())
    assert list(doc) == ["grid", "cells_checked", "mismatches", "branch_coverage",
                         "uncovered", "elapsed_seconds"]
    assert list(doc["grid"]) == ["primes", "a_max", "n_max", "index_cap", "tier"]
    assert doc["grid"]["tier"] == "modular"
    assert doc["mismatches"] == []


def test_exact_tier_small_grid():
    report = run_verify(small_config(primes=(2, 3), n_max=20, index_cap=200,
                                     tier=OracleTier.EXACT))
    assert report.mismatches == []
    assert report.exit_code == 0


def test_exact_tier_beyond_cap_rejected():
    with pytest.raises(ValueError):
        run_verify(small_config(tier=OracleTier.EXACT, index_cap=10**4))
    # the cap must account for higher exponents when n_max is the binder
    with pytest.raises(ValueError):
        run_verify(VerifyConfig(primes=(13,), a_max=2, n_max=50, index_cap=10**5,
                                tier=OracleTier.EXACT))


@pytest.mark.parametrize("field", ["a_max", "n_max", "index_cap"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_a_bound_below_one(field, value):
    with pytest.raises(ValueError, match=f"VerifyConfig.{field} must be >= 1"):
        small_config(**{field: value})


@pytest.mark.parametrize("index_cap", [2**63 + 1, 2**64, 2**30000],
                         ids=["2^63+1", "2^64", "2^30000"])
def test_config_rejects_an_index_cap_past_2_63_at_once(index_cap):
    # without this bound, run_verify on the 2^30000 config ran 10-12 s on 2 cores
    # and then failed while formatting its own error message
    # counted beside the clock: the rejection builds nothing that grows with
    # index_cap.  Walking the exponents of 2 before the check, up to 2^30000,
    # peaks at about 9 KiB; the rejection itself at about 2 KiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="VerifyConfig.index_cap"):
            VerifyConfig(primes=(2,), a_max=10**9, n_max=1, index_cap=index_cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**10, peak
    start = time.perf_counter()
    with pytest.raises(ValueError, match="VerifyConfig.index_cap"):
        VerifyConfig(primes=(2,), a_max=10**9, n_max=1, index_cap=index_cap)
    assert time.perf_counter() - start < 0.1
    assert VerifyConfig(primes=(2,), a_max=10**9, n_max=1, index_cap=2**63).index_cap == 2**63


@pytest.mark.parametrize("primes", [(), (2, 2, 3), (3, 2, 3)])
def test_config_rejects_empty_or_repeated_primes(primes):
    with pytest.raises(ValueError, match="VerifyConfig.primes"):
        small_config(primes=primes)


@pytest.mark.parametrize("tier", ["exact", "modular", None])
def test_config_rejects_a_tier_that_is_not_an_oracle_tier(tier):
    # a string tier once ran tier B and then broke the report's to_json()
    with pytest.raises(ValueError, match="VerifyConfig.tier must be an OracleTier"):
        small_config(tier=tier)


@pytest.mark.parametrize("record", [
    small_config(),
    verify.Mismatch(p=3, a=1, n=1, formula=0, oracle=1, branch="Cp:pm2 a odd r=s", m=3, k=1,
                    check="central"),
], ids=["VerifyConfig", "Mismatch"])
def test_config_and_mismatch_are_read_only(record):
    # as frozen slots=True dataclasses, an unknown name raised TypeError on Python 3.11
    with pytest.raises(AttributeError):
        setattr(record, dataclasses.fields(record)[0].name, 5)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_composite_prime_rejected():
    with pytest.raises(ValueError):
        run_verify(small_config(primes=(2, 4)))


def test_coverage_gap_detected():
    # index_cap 10 starves the ratio sweep of the cells that reach the
    # cofactor-divisible rows, so the run must flag uncovered branches
    report = run_verify(VerifyConfig(primes=(3,), a_max=1, n_max=50, index_cap=10))
    assert report.mismatches == []
    assert report.uncovered
    assert report.exit_code == 4


def test_mutation_is_caught(monkeypatch):
    monkeypatch.setitem(formulas.DELTA2_EVEN_A, 3, 0)
    report = run_verify(VerifyConfig(primes=(2,), a_max=2, n_max=60, index_cap=10**4))
    assert report.exit_code == 1
    assert any(mis.formula is None for mis in report.mismatches)


def test_concurrent_evaluation_is_consistent():
    # cells are the intended parallelization axis: hammer the lazily
    # populated rank/oracle caches from many threads at once
    from concurrent.futures import ThreadPoolExecutor

    import fibval.rank as rank
    from fibval.formulas import nu_central
    from fibval.oracle import nu_fibonomial_oracle

    rank.clear_cache()
    oracle.clear_caches()
    cells = [(p, a, n) for p in (2, 3, 5, 7, 11, 13) for a in (1, 2)
             for n in range(1, 40)]

    def work(cell):
        p, a, n = cell
        return (nu_central(p, a, n)[0].value,
                nu_fibonomial_oracle(p, p**a * n, n).value)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, cells * 3))
    assert all(f == o for f, o in results)
    sequential = [work(cell) for cell in cells]
    assert results[:len(cells)] == sequential


def test_mismatch_rows_sorted_and_serializable(monkeypatch):
    monkeypatch.setitem(formulas.DELTA2_ODD_A_CONST, 5, 1)
    report = run_verify(VerifyConfig(primes=(2,), a_max=1, n_max=40, index_cap=10**4))
    assert report.exit_code == 1
    rows = json.loads(report.to_json())["mismatches"]
    ns = [r["n"] for r in rows if r["n"] is not None]
    assert ns == sorted(ns)
    assert list(rows[0]) == ["p", "a", "n", "formula", "oracle", "branch", "m", "k", "check"]


def digit_count(p: int, n: int) -> int:
    """floor(log_p(n)) + 1 for n >= 1: the number of base-p digits of n."""
    count = 0
    while n:
        n //= p
        count += 1
    return count


def test_exponents_beyond_the_index_cap_cost_nothing(monkeypatch):
    # counted beside the clock: run_verify reads n_limit in three passes over
    # the exponents (the reach pre-flight, the central grid and the expected
    # labels), each at most once per a with p^a <= index_cap, that is fewer
    # than log_p(index_cap) + 1 times; a walk over every a <= a_max fails at
    # the first call past that bound
    bound = 3 * sum(digit_count(p, 200) for p in (2, 3))
    calls = []
    real = VerifyConfig.n_limit

    def counted(self, p, a):
        calls.append((p, a))
        if len(calls) > bound:
            raise AssertionError(f"n_limit called more than {bound} times")
        return real(self, p, a)

    monkeypatch.setattr(VerifyConfig, "n_limit", counted)
    start = time.perf_counter()
    huge = run_verify(VerifyConfig(primes=(2, 3), a_max=10**9, n_max=5, index_cap=200))
    assert time.perf_counter() - start < 1.0
    monkeypatch.undo()
    small = run_verify(VerifyConfig(primes=(2, 3), a_max=8, n_max=5, index_cap=200))
    assert huge.cells_checked == small.cells_checked
    assert huge.branch_coverage == small.branch_coverage
    assert huge.expected == small.expected
    assert json.loads(huge.to_json())["grid"]["a_max"] == 10**9


def test_sweep_extent_is_pinned():
    # the acceptance grid's sweeps; n_max = 1 leaves 40 central cells
    config = VerifyConfig(primes=ACCEPTANCE_GRID.primes, a_max=4, n_max=1, index_cap=10**5)
    assert verify._general_sweep(config, lambda *args: None) == 5_745
    assert verify._ratio_sweep(config, lambda *args: None) == 5_554
    report = run_verify(config)
    assert report.cells_checked == 11_339
    assert report.mismatches == []


def test_sweep_preflight_bounds_are_exact(monkeypatch):
    # these sweeps ask for 1,212 cells and reach index 12 * 11^2 = 1,452:
    # each cap passes at that value and fails one below it
    config = VerifyConfig(primes=(2, 3, 7, 11), a_max=2, n_max=5, index_cap=10**4)
    monkeypatch.setattr(verify, "SWEEP_CELL_CAP", 1_212)
    assert run_verify(config).cells_checked == 1_252  # 40 central cells
    monkeypatch.setattr(verify, "SWEEP_CELL_CAP", 1_211)
    with pytest.raises(ValueError, match="cap 1211"):
        run_verify(config)
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "MODULAR_CAP", 1_452)
    assert run_verify(config).cells_checked == 1_252
    monkeypatch.setattr(oracle, "MODULAR_CAP", 1_451)
    with pytest.raises(ValueError, match="modular-tier cap 1451"):
        run_verify(config)


def test_each_prime_builds_its_prefix_in_one_sweep(monkeypatch):
    # the benchmark's verify_grid shape: each prime's first query is at its top
    # index, so the central cells and both sweeps read one prefix per prime,
    # built once and to that index; the oracle runs once per checked cell
    config = VerifyConfig(primes=(2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31), a_max=4,
                          n_max=5_000, index_cap=5_000)
    builds = []
    extend = oracle._extend_prefix

    def counted_build(p, sums, j):
        builds.append(p)
        extend(p, sums, j)

    queries = []
    query = verify.nu_fibonomial_oracle

    def counted_query(*args):
        queries.append(args)
        return query(*args)

    oracle.clear_caches()
    monkeypatch.setattr(oracle, "_extend_prefix", counted_build)
    monkeypatch.setattr(verify, "nu_fibonomial_oracle", counted_query)
    report = run_verify(config)
    assert sorted(builds) == sorted(config.primes)
    for p in config.primes:
        top = max(p**a * config.n_limit(p, a) for a in config.exponents(p))
        assert len(oracle._val_sums[p]) == top + 1, p
    assert len(queries) == report.cells_checked == 19_984
    assert report.exit_code == 0
