import contextlib
import csv
import io
import json
import os
import string
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibval.formulas as formulas
from fibval import cli, oracle, rank, verify
from fibval.arith import _index_valuation, fib_mod
from fibval.cli import N_MAX_CAP, _parse_argv, _parser, _read_argv, console_main, main
from fibval.oracle import OracleTier, nu_fibonomial_oracle
from fibval.verify import SWEEP_CELL_CAP


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_calls(monkeypatch, module, *names):
    """Make each named function of module raise on its first call: beside a
    fast-usage-error test's clock, a bound of zero calls past the guard, which
    fails at once where a missing guard would walk the whole range."""
    for name in names:
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"{module.__name__}.{name} ran past the guard")
        monkeypatch.setattr(module, name, refuse)


# --- eval -------------------------------------------------------------------

def test_eval_central(capsys):
    code, out, _ = run(capsys, "eval", "--p", "5", "--a", "1", "--n", "1")
    assert code == 0
    assert out == "nu (formula) = 1\n"


def test_eval_both_agreement(capsys):
    code, out, _ = run(capsys, "eval", "--p", "7", "--a", "1", "--n", "1",
                       "--method", "both")
    assert code == 0
    assert "nu (formula) = 0" in out
    assert "nu (oracle/exact) = 0" in out
    assert out.endswith("agreement: ok\n")


def test_eval_general_explain(capsys):
    code, out, _ = run(capsys, "eval", "--p", "2", "--m", "6", "--k", "2", "--explain")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nu (formula) = 3"
    assert "theorem = T2adic_general" in lines
    assert 'branch = r<s, (0,2)' in lines
    assert "r = 0" in lines
    assert "s = 2" in lines


def test_eval_central_explain_prints_fields_in_trace_order(capsys):
    code, out, _ = run(capsys, "eval", "--p", "7", "--a", "2", "--n", "7", "--explain")
    assert code == 0
    assert out == ("nu (formula) = 0\ntheorem = Cp\nbranch = pm2 a even\n"
                   "modulus = 8\nr = 7\ns = 7\nA = 6\nz = 8\nnu_fz = 1\nb = 1\n")


GOLDEN_EXPLAIN = {
    ("--p", "2", "--a", "3", "--n", "6"):
        "nu (formula) = 3\ntheorem = C2adic\nbranch = a odd, n%6=0\nmodulus = 6\nr = 0\n"
        "s = 0\nA = 7\ndelta = 0\nepsilon = 0\nz = 3\nnu_fz = 1\nb = 1\n",
    ("--p", "5", "--a", "2", "--n", "7"):
        "nu (formula) = 2\ntheorem = C5adic\nbranch = s5 digit sum\nmodulus = 5\nr = 0\n"
        "s = 2\nA = 168\nz = 5\nnu_fz = 1\nb = 0\n",
    ("--p", "11", "--a", "1", "--n", "12"):
        "nu (formula) = 0\ntheorem = Cp\nbranch = pm1\nmodulus = 10\nr = 2\ns = 2\n"
        "A = 12\nz = 10\nnu_fz = 1\nb = 0\n",
    ("--p", "2", "--m", "6", "--k", "2"):
        "nu (formula) = 3\ntheorem = T2adic_general\nbranch = r<s, (0,2)\nmodulus = 6\n"
        "r = 0\ns = 2\nA = 0\nz = 3\nnu_fz = 1\n",
    ("--p", "5", "--m", "12", "--k", "3"):
        "nu (formula) = 1\ntheorem = T5adic\nbranch = binomial\nmodulus = 5\nz = 5\n"
        "nu_fz = 1\n",
    ("--p", "7", "--m", "20", "--k", "9"):
        "nu (formula) = 0\ntheorem = Tp_general_mk\nbranch = r>=s\nmodulus = 8\nr = 4\n"
        "s = 1\nz = 8\nnu_fz = 1\nm_prime = 2\nk_prime = 1\n",
}


@pytest.mark.parametrize("argv", GOLDEN_EXPLAIN)
def test_eval_explain_golden(capsys, argv):
    code, out, _ = run(capsys, "eval", *argv, "--explain")
    assert code == 0
    assert out == GOLDEN_EXPLAIN[argv]


@pytest.mark.parametrize("argv", [
    ("eval", "--p", "3", "--a", "1000000000", "--n", "1"),
    ("scan", "--p", "3", "--a", "1000000000", "--n-max", "5", "--predicate", "divisible"),
    ("table", "--p", "3", "--a", "1000000000", "--n-max", "5"),
])
def test_huge_exponent_is_a_fast_usage_error(capsys, monkeypatch, argv):
    refuse_calls(monkeypatch, cli, "divides_p_central", "nu_central")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize("n_max", [N_MAX_CAP + 1, 4611686018427387903])
@pytest.mark.parametrize("argv", [
    ("scan", "--p", "2", "--a", "1", "--predicate", "divisible"),
    ("table", "--p", "2", "--a", "1", "--format", "json"),
])
def test_n_max_beyond_the_row_cap_is_a_fast_usage_error(capsys, monkeypatch, argv, n_max):
    # n_max = 2^62 - 1 passes the 2^63 index check; without the row cap,
    # table buffered rows without end and printed nothing
    refuse_calls(monkeypatch, cli, "divides_p_central", "nu_central")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--n-max", str(n_max))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert f"cap {N_MAX_CAP}" in err


def test_eval_modular_tier_for_large_index(capsys):
    code, out, _ = run(capsys, "eval", "--p", "3", "--a", "1", "--n", "200",
                       "--method", "oracle")
    assert code == 0
    assert out.startswith("nu (oracle/modular) = ")


def test_an_exported_fibval_exact_cap_changes_nothing(capsys, monkeypatch):
    # fibval reads no environment: tier A's cap comes from its argument alone
    monkeypatch.setenv("FIBVAL_EXACT_CAP", "2000")
    code, out, _ = run(capsys, "eval", "--p", "3", "--a", "1", "--n", "200",
                       "--method", "oracle")
    assert code == 0
    assert out.startswith("nu (oracle/modular) = ")
    with pytest.raises(ValueError):
        nu_fibonomial_oracle(3, 401, 3, OracleTier.EXACT)


def test_one_binding_of_the_exact_cap_moves_every_reader(capsys, monkeypatch):
    # eval's tier choice, verify's pre-flight and the oracle all read tier A's
    # default cap through oracle.reach, so lowering its one binding moves all three
    monkeypatch.setattr(oracle, "EXACT_CAP_DEFAULT", 100)
    code, out, _ = run(capsys, "eval", "--p", "3", "--m", "150", "--k", "3", "--method", "oracle")
    assert code == 0
    assert out.startswith("nu (oracle/modular) = ")
    code, out, err = run(capsys, "verify", "--p-set", "3", "--a-max", "1", "--n-max", "50",
                         "--tier", "exact")
    assert (code, out) == (2, "")
    assert "exact-tier grid reaches index 150 beyond the cap 100" in err
    with pytest.raises(ValueError, match="exact tier capped at m <= 100, got m=150"):
        nu_fibonomial_oracle(3, 150, 3, OracleTier.EXACT)


def test_eval_oracle_beyond_the_modular_cap_is_a_fast_usage_error(capsys, monkeypatch):
    refuse_calls(monkeypatch, oracle, "_extend_prefix")
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--p", "3", "--m", "20000000", "--k", "1",
                         "--method", "oracle")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "cap" in err


def test_eval_both_beyond_the_modular_cap_prints_nothing(capsys, monkeypatch):
    # the formula value is known before the oracle rejects the index; it must not be printed
    refuse_calls(monkeypatch, oracle, "_extend_prefix")
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--p", "3", "--m", "20000000", "--k", "1",
                         "--method", "both")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "cap" in err


def test_eval_usage_errors(capsys):
    assert run(capsys, "eval", "--p", "4", "--a", "1", "--n", "1")[0] == 2
    assert run(capsys, "eval", "--p", "3")[0] == 2
    assert run(capsys, "eval", "--p", "3", "--a", "1", "--n", "1", "--m", "9")[0] == 2
    assert run(capsys, "eval", "--p", "3", "--a", "1")[0] == 2
    assert run(capsys, "eval", "--p", "3", "--m", "5", "--k", "9")[0] == 2


@pytest.mark.parametrize("warm", [False, True])
def test_eval_oracle_rejects_k_above_m_on_the_modular_tier(capsys, warm):
    oracle.clear_caches()
    if warm:
        oracle.nu_fibonomial_oracle(3, 2000, 1)
    code, out, err = run(capsys, "eval", "--p", "3", "--m", "500", "--k", "700",
                         "--method", "oracle")
    oracle.clear_caches()
    assert code == 2
    assert out == ""
    assert "need 0 <= k <= m, got m=500, k=700" in err


def test_eval_general_past_the_index_cap_names_m(capsys):
    code, out, err = run(capsys, "eval", "--p", "3", "--m", str(2**64), "--k", "1")
    assert code == 2
    assert out == ""
    assert f"m={2**64} exceeds the 2^63 cap" in err


def test_eval_disagreement_exits_3(capsys, monkeypatch):
    # consistent double mutation: wrong delta flows through the cross-check
    monkeypatch.setitem(formulas.DELTA2_EVEN_A, 3, 0)
    monkeypatch.setattr(formulas, "_delta2_iverson",
                        lambda a, n, res6, b: formulas.DELTA2_EVEN_A[res6] if a % 2 == 0 else 0)
    code, out, _ = run(capsys, "eval", "--p", "2", "--a", "2", "--n", "3",
                       "--method", "both")
    assert code == 3
    assert out.endswith("agreement: MISMATCH\n")


def test_eval_integrity_error_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(formulas.DELTA2_EVEN_A, 3, 0)
    code, _, err = run(capsys, "eval", "--p", "2", "--a", "2", "--n", "3")
    assert code == 1
    assert "integrity" in err


def test_eval_large_prime_general(capsys):
    code, out, _ = run(capsys, "eval", "--p", "1000000007", "--m", "10", "--k", "3")
    assert code == 0
    assert out == "nu (formula) = 0\n"


def test_eval_prime_near_2_63_explain(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(rank, "fib_mod", lambda m, modulus: calls.append(m) or fib_mod(m, modulus))
    rank.clear_cache()
    start = time.perf_counter()
    code, out, _ = run(capsys, "eval", "--p", "9223372036854775783", "--a", "1", "--n", "1",
                       "--explain")
    elapsed = time.perf_counter() - start
    # a cold rank descends from p + 1 = 2^3 * 1177067 * 979486728119: F_(p+1),
    # then one call a prime factor; a scan of the divisors of p + 1 makes more
    assert len(calls) <= 4, calls
    assert elapsed < 1.0
    assert code == 0
    assert "z = 9223372036854775784" in out.splitlines()


def test_eval_both_at_index_3e6_is_fast(capsys, monkeypatch):
    # tier B builds the prefix of p = 999983 to m = 2,999,949 in one sweep
    doublings, fallbacks = [], []
    monkeypatch.setattr(oracle, "fib_mod",
                        lambda m, modulus: doublings.append(m) or fib_mod(m, modulus))
    monkeypatch.setattr(oracle, "_index_valuation",
                        lambda p, i: fallbacks.append(i) or _index_valuation(p, i))
    rank.clear_cache()
    oracle.clear_caches()
    start = time.perf_counter()
    try:
        code, out, _ = run(capsys, "eval", "--p", "999983", "--a", "1", "--n", "3",
                           "--method", "both")
    finally:
        oracle.clear_caches()
    elapsed = time.perf_counter() - start
    # two seeds and two end checks by fast doubling; no index has p^3 | F_i
    assert len(doublings) <= 4, len(doublings)
    assert not fallbacks, fallbacks[:10]
    assert elapsed < 5.0
    assert code == 0
    assert out.endswith("agreement: ok\n")


# --- scan -------------------------------------------------------------------

def test_scan_odd_4n(capsys):
    code, out, _ = run(capsys, "scan", "--p", "2", "--a", "2", "--n-max", "20",
                       "--predicate", "odd_fibonomial")
    assert code == 0
    assert out == "1\n2\n4\n8\n16\n"


def test_scan_odd_8n_json(capsys):
    code, out, _ = run(capsys, "scan", "--p", "2", "--a", "3", "--n-max", "60",
                       "--predicate", "odd_fibonomial", "--format", "json")
    assert code == 0
    assert json.loads(out) == [1, 7, 55]


@pytest.mark.parametrize("a", [1, 4, 5])
def test_scan_odd_fibonomial_at_p2_matches_the_oracle(capsys, a):
    # a = 1 reads is_odd_2n and a >= 4 reads nu2_central; tier B checks both
    code, out, _ = run(capsys, "scan", "--p", "2", "--a", str(a), "--n-max", "60",
                       "--predicate", "odd_fibonomial")
    assert code == 0
    expected = [n for n in range(1, 61)
                if oracle.nu_fibonomial_oracle(2, 2**a * n, n).value == 0]
    assert expected
    assert [int(line) for line in out.splitlines()] == expected


def test_scan_divisible(capsys):
    code, out, _ = run(capsys, "scan", "--p", "3", "--a", "1", "--n-max", "8",
                       "--predicate", "divisible")
    assert code == 0
    hits = [int(line) for line in out.splitlines()]
    assert hits == [3, 4, 5, 7, 8]
    assert {3, 4, 8} <= set(hits)


def test_scan_not_divisible(capsys):
    code, out, _ = run(capsys, "scan", "--p", "3", "--a", "1", "--n-max", "8",
                       "--predicate", "not_divisible")
    assert code == 0
    assert [int(line) for line in out.splitlines()] == [1, 2, 6]


def test_scan_odd_fibonomial_odd_p(capsys):
    # 2-adic valuation of the (3n, 3) coefficients via the general formula
    code, out, _ = run(capsys, "scan", "--p", "3", "--a", "1", "--n-max", "6",
                       "--predicate", "odd_fibonomial")
    assert code == 0
    from fibval.oracle import nu_fibonomial_oracle
    expected = [n for n in range(1, 7)
                if nu_fibonomial_oracle(2, 3 * n, n).value == 0]
    assert [int(line) for line in out.splitlines()] == expected


def test_scan_lines_with_no_hits_prints_nothing(capsys):
    # p = 5 divides every central coefficient, so nothing is not divisible
    assert run(capsys, "scan", "--p", "5", "--a", "1", "--n-max", "9",
               "--predicate", "not_divisible") == (0, "", "")


@pytest.mark.parametrize("p, a, predicate", [
    (3, 1, "divisible"), (7, 2, "not_divisible"), (2, 3, "odd_fibonomial"),
    (5, 1, "not_divisible"),  # no hits: "[]"
])
def test_scan_json_is_one_dump(capsys, p, a, predicate):
    argv = ["scan", "--p", str(p), "--a", str(a), "--n-max", "60", "--predicate", predicate]
    code, lines, _ = run(capsys, *argv)
    assert code == 0
    hits = [int(line) for line in lines.splitlines()]
    assert run(capsys, *argv, "--format", "json") == (0, json.dumps(hits) + "\n", "")


def test_scan_cap_exceeded(capsys):
    code, _, err = run(capsys, "scan", "--p", "2", "--a", "62", "--n-max", "100",
                       "--predicate", "divisible")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("p", ["1", "4", "9", "91"])
@pytest.mark.parametrize("argv", [
    ("scan", "--predicate", "divisible"),
    ("scan", "--predicate", "not_divisible"),
    ("scan", "--predicate", "odd_fibonomial", "--format", "json"),
    ("table", "--format", "csv"),
    ("table", "--format", "json"),
])
def test_scan_and_table_reject_a_non_prime(capsys, argv, p):
    code, out, err = run(capsys, *argv, "--p", p, "--a", "1", "--n-max", "20")
    assert code == 2
    assert out == ""
    assert "prime" in err


@pytest.mark.parametrize("argv, message", [
    (("eval", "--p", "3", "--a", "0", "--n", "1"), "needs a >= 1"),
    (("eval", "--p", "3", "--a", "1", "--n", "0"), "needs a >= 1"),
    (("scan", "--p", "3", "--a", "0", "--n-max", "5", "--predicate", "divisible"),
     "needs a >= 1"),
    (("scan", "--p", "3", "--a", "1", "--n-max", "0", "--predicate", "odd_fibonomial"),
     "needs a >= 1"),
    (("scan", "--p", "3", "--a", "1", "--n-max", "-1", "--predicate", "not_divisible"),
     "needs a >= 1"),
    (("table", "--p", "3", "--a", "0", "--n-max", "5"), "needs a >= 1"),
    (("table", "--p", "3", "--a", "1", "--n-max", "0", "--format", "json"), "needs a >= 1"),
    (("table", "--p", "3", "--a", "1", "--n-max", "-1"), "needs a >= 1"),
    (("verify", "--p-set", "2", "--a-max", "0", "--n-max", "5"), "VerifyConfig.a_max"),
    (("verify", "--p-set", "2", "--a-max", "1", "--n-max", "0"), "VerifyConfig.n_max"),
    (("verify", "--p-set", "2", "--a-max", "1", "--n-max", "5", "--index-cap", "0"),
     "VerifyConfig.index_cap"),
    (("verify", "--p-set", "2", "--a-max", "1", "--n-max", "5",
      "--index-cap", "9223372036854775809"), "VerifyConfig.index_cap"),
])
def test_library_gates_reject_out_of_range_flags(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_scan_bad_predicate(capsys):
    assert run(capsys, "scan", "--p", "2", "--a", "1", "--n-max", "5",
               "--predicate", "nope")[0] == 2


# --- table ------------------------------------------------------------------

def test_table_csv_5adic(capsys):
    code, out, _ = run(capsys, "table", "--p", "5", "--a", "1", "--n-max", "3")
    assert code == 0
    assert out == ("p,a,n,nu,branch\n"
                   "5,1,1,1,s5 digit sum\n"
                   "5,1,2,1,s5 digit sum\n"
                   "5,1,3,1,s5 digit sum\n")


def test_table_csv_trivial_row(capsys):
    code, out, _ = run(capsys, "table", "--p", "2", "--a", "1", "--n-max", "1")
    assert code == 0
    assert out == ("p,a,n,nu,branch\n"
                   '2,1,1,0,"a odd, n odd"\n')


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--p", "7", "--a", "2", "--n-max", "2",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [list(row) for row in rows] == [["p", "a", "n", "nu", "branch"]] * 2
    assert [row["nu"] for row in rows] == [0, 0]


@pytest.mark.parametrize("p, a, n_max", [
    pytest.param(3, 2, 513, id="513_rows"),
    pytest.param(3, 2, 1, id="one_row"),  # no separator
    # the labels hold "{", "}" and "%", which the row template must pass through
    pytest.param(2, 2, 12, id="braces_in_labels"),
])
def test_table_json_is_one_dump(capsys, p, a, n_max):
    code, out, _ = run(capsys, "table", "--p", str(p), "--a", str(a), "--n-max", str(n_max),
                       "--format", "json")
    assert code == 0
    rows = []
    for n in range(1, n_max + 1):
        val, trace = formulas.nu_central(p, a, n)
        rows.append({"p": p, "a": a, "n": n, "nu": val.value, "branch": trace.branch_label})
    assert out == json.dumps(rows, indent=2) + "\n"


def test_table_csv_is_one_writer_pass(capsys):
    # the (2, a odd) labels hold a comma, which csv.writer must quote
    code, out, _ = run(capsys, "table", "--p", "2", "--a", "1", "--n-max", "40")
    assert code == 0
    rows = [["p", "a", "n", "nu", "branch"]]
    for n in range(1, 41):
        val, trace = formulas.nu_central(2, 1, n)
        rows.append([2, 1, n, val.value, trace.branch_label])
    assert any("," in row[4] for row in rows[1:])
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(rows)
    assert out == expected.getvalue()


def test_table_streams_its_rows():
    # at 5000 rows, holding every row and then the whole string peaks near 6 MiB
    argv = ["table", "--p", "2", "--a", "1", "--format", "json", "--n-max"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        main(argv + ["1"])  # warm the rank cache
        tracemalloc.start()
        try:
            code = main(argv + ["5000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20


def test_table_bad_format(capsys):
    assert run(capsys, "table", "--p", "2", "--a", "1", "--n-max", "3",
               "--format", "xml")[0] == 2


def test_table_rows_roundtrip_through_eval(capsys):
    code, out, _ = run(capsys, "table", "--p", "3", "--a", "1", "--n-max", "12",
                       "--format", "json")
    assert code == 0
    for row in json.loads(out):
        code, out2, _ = run(capsys, "eval", "--p", str(row["p"]), "--a", str(row["a"]),
                            "--n", str(row["n"]), "--method", "both")
        assert code == 0
        assert f"nu (formula) = {row['nu']}" in out2


# --- verify -----------------------------------------------------------------

def test_verify_small_grid_ok(capsys):
    code, out, err = run(capsys, "verify", "--p-set", "2,3,5,7", "--a-max", "2",
                         "--n-max", "40", "--index-cap", "2000")
    assert code == 0
    doc = json.loads(out)
    assert doc["mismatches"] == []
    assert doc["uncovered"] == []
    assert doc["cells_checked"] > 0
    assert "mismatches" in err  # summary goes to stderr


def test_verify_rejects_composite(capsys):
    code, _, err = run(capsys, "verify", "--p-set", "4", "--a-max", "1",
                       "--n-max", "10")
    assert code == 2
    assert "prime" in err


@pytest.mark.parametrize("p_set, message", [
    (",", "VerifyConfig.primes"),
    ("2,2,3", "VerifyConfig.primes"),
])
def test_verify_rejects_empty_or_repeated_primes(capsys, p_set, message):
    code, out, err = run(capsys, "verify", "--p-set", p_set, "--a-max", "2",
                         "--n-max", "50")
    assert code == 2
    assert out == ""
    assert message in err


def test_verify_rejects_a_non_integer_prime(capsys):
    code, out, err = run(capsys, "verify", "--p-set", "2,x", "--a-max", "1",
                         "--n-max", "10")
    assert code == 2
    assert out == ""
    assert "bad --p-set" in err


def test_verify_mutation_fails(capsys, monkeypatch):
    monkeypatch.setitem(formulas.DELTA2_ODD_A_CEIL, 4, (0, 0))
    code, out, _ = run(capsys, "verify", "--p-set", "2", "--a-max", "1",
                       "--n-max", "40", "--index-cap", "2000")
    assert code == 1
    assert json.loads(out)["mismatches"]


def test_verify_coverage_gap_exit_4(capsys):
    code, out, _ = run(capsys, "verify", "--p-set", "3", "--a-max", "1",
                       "--n-max", "50", "--index-cap", "10")
    assert code == 4
    assert json.loads(out)["uncovered"]


def test_verify_exact_tier_beyond_cap(capsys):
    code, _, err = run(capsys, "verify", "--p-set", "13", "--a-max", "1",
                       "--n-max", "50", "--tier", "exact")
    assert code == 2
    assert "reaches index 650 beyond the cap 400; shrink the grid" in err


@pytest.mark.parametrize("argv", [
    # the central grid reaches 2 * 5000001, past the modular cap
    ("--p-set", "2", "--a-max", "1", "--n-max", "5000001", "--index-cap", "10000002"),
    # the ratio sweep reaches 226 * 223^2, past the modular cap
    ("--p-set", "223", "--a-max", "1", "--n-max", "10", "--index-cap", "20000000"),
])
def test_verify_beyond_the_modular_cap_is_a_fast_usage_error(capsys, monkeypatch, argv):
    refuse_calls(monkeypatch, verify, "nu_fibonomial_oracle")
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize("p_set", [
    "999983",  # the general sweep alone asks for about 5e9 cells
    "10007",  # about 2e8 cells
])
def test_verify_beyond_the_sweep_cell_cap_is_a_fast_usage_error(capsys, monkeypatch, p_set):
    refuse_calls(monkeypatch, verify, "nu_fibonomial_oracle")
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--p-set", p_set, "--a-max", "1", "--n-max", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert f"cap {SWEEP_CELL_CAP}" in err


def test_verify_exact_tier_with_raised_cap(capsys):
    # 13 * 30 = 390: the grid fits under the default cap 400
    code, out, _ = run(capsys, "verify", "--p-set", "13", "--a-max", "1",
                       "--n-max", "30", "--tier", "exact")
    assert code == 0
    assert json.loads(out)["mismatches"] == []


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert _parser() is _parser()
    explain = ("eval", "--p", "2", "--m", "6", "--k", "2")
    assert run(capsys, *explain, "--explain") == (0, GOLDEN_EXPLAIN[explain[1:]], "")
    assert run(capsys, *explain) == (0, "nu (formula) = 3\n", "")
    scan = ("scan", "--p", "2", "--a", "2", "--n-max", "20", "--predicate", "odd_fibonomial")
    assert run(capsys, *scan, "--format", "json") == (0, "[1, 2, 4, 8, 16]\n", "")
    assert run(capsys, *scan) == (0, "1\n2\n4\n8\n16\n", "")
    code, out, err = run(capsys, "table", "--p", "5", "--a", "1", "--n-max", "1", "--format", "xml")
    assert (code, out) == (2, "")
    assert "invalid choice" in err
    assert run(capsys, "table", "--p", "5", "--a", "1", "--n-max", "1") == (
        0, "p,a,n,nu,branch\n5,1,1,1,s5 digit sum\n", "")


def test_a_known_command_skips_the_top_level_parser(capsys, monkeypatch):
    # a well-formed command of each kind is read without building argparse at all
    def refuse():
        raise AssertionError("the argparse parser was built")

    monkeypatch.setattr(cli, "_parser", refuse)
    assert run(capsys, "scan", "--p", "2", "--a", "2", "--n-max", "20",
               "--predicate", "odd_fibonomial") == (0, "1\n2\n4\n8\n16\n", "")
    assert run(capsys, "table", "--p", "5", "--a", "1", "--n-max", "1") == (
        0, "p,a,n,nu,branch\n5,1,1,1,s5 digit sum\n", "")
    explain = ("eval", "--p", "2", "--m", "6", "--k", "2")
    assert run(capsys, *explain, "--explain") == (0, GOLDEN_EXPLAIN[explain[1:]], "")
    code, out, err = run(capsys, "verify", "--p-set", "3", "--a-max", "1", "--n-max", "5",
                         "--tier", "exact")
    assert (code, json.loads(out)["mismatches"]) == (0, [])
    assert "mismatches" in err


@pytest.mark.parametrize("argv, code, out", [
    (["fibval", "table", "--p", "5", "--a", "1", "--n-max", "1"], 0,
     "p,a,n,nu,branch\n5,1,1,1,s5 digit sum\n"),
    (["fibval"], 2, ""),
])
def test_console_entry_point_reads_sys_argv(capsys, monkeypatch, argv, code, out):
    monkeypatch.setattr("sys.argv", argv)
    assert main(None) == code
    assert capsys.readouterr().out == out
    with pytest.raises(SystemExit) as exc:
        console_main()
    assert exc.value.code == code
    assert capsys.readouterr().out == out


# A fresh process, since this one has imported verify and argparse already.  It
# checks which modules load, not how long that takes, so a loaded host cannot fail it.
STARTUP_SET = """
import contextlib, io, sys
from fibval.cli import main
heavy = ("argparse", "dataclasses", "inspect", "fibval.verify")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["scan", "--p", "7", "--a", "2", "--n-max", "20", "--predicate", "divisible"]),
             main(["table", "--p", "7", "--a", "1", "--n-max", "5", "--format", "json"]),
             main(["eval", "--p", "7", "--a", "1", "--n", "3", "--method", "both", "--explain"])]
print(codes, [name for name in heavy if name in sys.modules])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(["verify", "--p-set", "3", "--a-max", "1", "--n-max", "5"])
print(code, "fibval.verify" in sys.modules)
"""


def test_only_the_verify_command_loads_verify_and_dataclasses():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", STARTUP_SET], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0] []\n0 True\n"


def _fibval_process(argv: list[str], **kwargs) -> subprocess.Popen:
    """A fresh `fibval` process with the interpreter's default block-buffered
    stdout, as in a shell pipeline (PYTHONUNBUFFERED would write each line at once)."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "fibval.cli", *argv], env=env, **kwargs)


def test_table_into_a_pipe_closed_early_exits_0_without_a_traceback(tmp_path):
    # `fibval table ... | head -1`: the reader closes the pipe after one line,
    # while the command has most of its 100,000 rows still to write
    with open(tmp_path / "stderr", "w+b") as err:
        proc = _fibval_process(["table", "--p", "2", "--a", "1", "--n-max", "100000"],
                               stdout=subprocess.PIPE, stderr=err)
        assert proc.stdout.readline() == b"p,a,n,nu,branch\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err.seek(0)
        stderr = err.read().decode()
    assert "Traceback" not in stderr and "Error" not in stderr, stderr
    assert code == cli.EXIT_OK


@pytest.mark.parametrize("argv", [
    ["eval", "--p", "2", "--a", "1", "--n", "5"],  # a few bytes, still buffered when main returns
    ["scan", "--p", "2", "--a", "2", "--n-max", "100000", "--predicate", "not_divisible"],
], ids=["eval", "scan"])
def test_output_into_a_closed_pipe_exits_0_quietly(argv, tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with open(tmp_path / "stderr", "w+b") as err:
            code = _fibval_process(argv, stdout=write_end, stderr=err).wait(timeout=60)
            err.seek(0)
            stderr = err.read().decode()
    finally:
        os.close(write_end)
    assert stderr == "" and code == cli.EXIT_OK, (code, stderr)


MISMATCHING_VERIFY = """
import sys
import fibval.formulas as formulas
from fibval.cli import main
formulas.DELTA2_EVEN_A[3] = 0  # criterion 9's first mutation: 2 mismatches on this grid
sys.exit(main(["verify", "--p-set", "2", "--a-max", "2", "--n-max", "12", "--index-cap", "100"]))
"""


@pytest.mark.parametrize("closed", [False, True], ids=["read", "closed"])
def test_a_mismatching_verify_keeps_its_exit_code_into_a_pipe(closed, tmp_path):
    # the short report is still buffered when the command returns, so a reader
    # that has already gone shows only at main's flush: it must not hide the
    # mismatch code
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    if closed:
        os.close(read_end)
    with open(tmp_path / "stderr", "w+b") as err:
        try:
            proc = subprocess.Popen([sys.executable, "-c", MISMATCHING_VERIFY], env=env,
                                    stdout=write_end, stderr=err)
        finally:
            os.close(write_end)
        if not closed:
            with os.fdopen(read_end, "rb") as reader:
                assert len(json.loads(reader.read())["mismatches"]) == 2
        code = proc.wait(timeout=60)
        err.seek(0)
        stderr = err.read().decode()
    assert code == cli.EXIT_MISMATCH
    assert "Traceback" not in stderr
    assert "2 mismatches" in stderr and stderr.count("\n") == 1, stderr


# --- fuzz -------------------------------------------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 2**64 - 59)
# Well-formed values stay small so that an example costs milliseconds: scan,
# table and verify do work in proportion to their ranges.
GOOD = {
    "--p": st.sampled_from(SMALL_PRIMES),
    "--p-set": st.lists(st.sampled_from(SMALL_PRIMES[:-1]), min_size=1, max_size=3).map(
        lambda ps: ",".join(map(str, ps))),
    "--a": st.integers(1, 3), "--a-max": st.integers(1, 3),
    "--n": st.integers(1, 12), "--n-max": st.integers(1, 12),
    "--m": st.integers(0, 40), "--k": st.integers(0, 40),
    "--index-cap": st.integers(1, 2000),
}
FORMS = {  # flag -> its choices, () for a number from GOOD, None for a switch
    "eval-central": ("eval", {"--p": (), "--a": (), "--n": (),
                              "--method": ("formula", "oracle", "both"), "--explain": None}),
    "eval-general": ("eval", {"--p": (), "--m": (), "--k": (),
                              "--method": ("formula", "oracle", "both"), "--explain": None}),
    "scan": ("scan", {"--p": (), "--a": (), "--n-max": (),
                      "--predicate": ("divisible", "not_divisible", "odd_fibonomial"),
                      "--format": ("lines", "json")}),
    "verify": ("verify", {"--p-set": (), "--a-max": (), "--n-max": (), "--index-cap": (),
                          "--tier": ("modular", "exact")}),
    "table": ("table", {"--p": (), "--a": (), "--n-max": (), "--format": ("csv", "json")}),
}
ALL_FLAGS = sorted({flag for _, flags in FORMS.values() for flag in flags})
# A broken value: negative down to -2^70, zero, up to 100, past the 2^63 index
# cap up to 2^70, or not a number.  Values from 101 to 2^62 are left out: they
# are well formed and only ask for a longer scan or table.
BAD = st.one_of(st.integers(-2**70, 0), st.integers(2**62, 2**70), st.integers(1, 100)).map(str) \
    | st.sampled_from(["", "x", "1.5", "1e3", "-", "2,,3", "oracle", "csv"]) \
    | st.text(alphabet=string.ascii_letters + " .,-", max_size=6)


@st.composite
def argvs(draw):
    """A well-formed command, or one with a few flags dropped, added or given bad values."""
    command, flags = FORMS[draw(st.sampled_from(sorted(FORMS)))]
    faults = draw(st.lists(st.sampled_from(["drop", "add", "value", "trailing"]), max_size=3))
    chosen = list(flags)
    for fault in faults:
        if fault == "drop" and chosen:
            chosen.remove(draw(st.sampled_from(chosen)))
        elif fault == "add":
            chosen.append(draw(st.sampled_from(ALL_FLAGS)))
    argv = [command]
    for flag in draw(st.permutations(chosen)):
        argv.append(flag)
        if flags.get(flag, ()) is None:
            continue
        if "value" in faults and draw(st.booleans()):
            argv.append(draw(BAD))
        elif flags.get(flag):
            argv.append(draw(st.sampled_from(flags[flag])))
        elif flag in GOOD:
            argv.append(str(draw(GOOD[flag])))
        else:
            argv.append(draw(BAD))
    if "trailing" in faults:
        argv.append(draw(BAD))
    return argv


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_fuzz_main_returns_a_documented_exit_code(argv):
    try:
        assert main(argv) in (0, 1, 2, 3, 4), argv
    finally:
        oracle.clear_caches()


# Help, no command, an unknown or misspelt command, an option before the
# command, "--", and trailing or unrecognized arguments.
EDGE_ARGVS = [
    [], ["-h"], ["--help"], ["--he"], ["nope"], ["Scan"], ["--"], ["--", "scan"], ["-x", "scan"],
    ["scan"], ["verify", "-h"], ["table", "--help"], ["eval", "--he"], ["scan", "--"],
    ["table", "--", "--p", "5"], ["table", "--p=5", "--a=1", "--n-max=2"],
    ["table", "--p", "5", "--a", "1", "--n-max", "2", "extra"],
    ["table", "--p", "5", "--a", "1", "--n-max", "2", "--bogus", "x", "y"],
    ["table", "--p", "5", "--a", "1", "--n-max", "2", "--", "x"],
    ["scan", "--p", "5", "--a", "1", "--n-max", "3", "--pred", "divisible"],
    ["eval", "--p", "2", "--a", "1", "--n", "1", "--p", "3"],
    # the edges of the reader that skips argparse: each must match argparse either
    # way, whether the reader takes the argv or hands it on
    ["scan", "--p", "5", "--a", "-1", "--n-max", "3", "--predicate", "divisible"],
    ["verify", "--p-set", "--", "--a-max", "1", "--n-max", "2"],
    ["eval", "--p", "5", "--a", "1", "--n", "1", "--explain", "--explain"],
    ["eval", "--p", "5", "--a", "1", "--n", "1", "--explain", "yes"],
    ["verify", "--p-set", "", "--a-max", "1", "--n-max", "2"],
    ["table", "--p", " 7", "--a", "1_0", "--n-max", "\u0663"],
    ["scan", "--p", "5", "--a", "1", "--n-max", "3", "--predicate", "divisible", "--format", "--p"],
    ["table", "--p", "5", "--a", "1", "--n-max"],
    ["eval", "--p", "9" * 5000, "--a", "1", "--n", "1"],
]


def parse_outcome(parse, argv):
    """The parsed flags, less the command attribute, or the exit code; then stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
            result.pop("command", None)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(EDGE_ARGVS) | argvs())
def test_parse_matches_the_top_level_parse(argv):
    assert parse_outcome(_parse_argv, argv) == parse_outcome(_parser().parse_args, argv), argv


@pytest.mark.parametrize("argv", EDGE_ARGVS)
def test_each_edge_parses_as_the_top_level_parse(argv):
    # every edge, each run: a draw of 300 from the test above may miss one
    assert parse_outcome(_parse_argv, argv) == parse_outcome(_parser().parse_args, argv)


@pytest.mark.parametrize("argv", [
    ["eval", "--p", "2", "--a", "1", "--n", "1", "--p", "3"],
    ["eval", "--p", "5", "--a", "1", "--n", "1", "--explain", "--explain"],
    ["scan", "--p", "5", "--a", "1", "--n-max", "3", "--predicate", "divisible",
     "--format", "json", "--predicate", "not_divisible", "--format", "lines"],
    ["table", "--n-max", "1", "--p", "5", "--a", "1", "--n-max", "2"],
    ["verify", "--p-set", "2", "--a-max", "1", "--n-max", "2", "--p-set", "3,5"],
])
def test_a_repeated_flag_keeps_its_last_value_as_in_argparse(argv):
    # the reader takes these itself; argparse's last-one-wins is the reference
    expected = vars(_parser().parse_args(argv))
    del expected["command"]
    assert vars(_read_argv(argv)) == expected


# `fibval -h` and `fibval <command> -h` at 80 columns, as argparse printed them
# before the flags moved into one table.  The parse test above cannot see help
# drift, since both of its sides are built from that table.
HELP = {
    (): """\
usage: fibval [-h] {eval,scan,verify,table} ...

p-adic valuations of Fibonomial coefficients: closed forms, brute-force cross-
checks, scans and tables.

positional arguments:
  {eval,scan,verify,table}
    eval                evaluate one valuation
    scan                list n <= n-max satisfying a predicate
    verify              run the formula-vs-oracle grid
    table               emit p,a,n,nu,branch rows

options:
  -h, --help            show this help message and exit
""",
    ("eval",): """\
usage: fibval eval [-h] --p P [--a A] [--n N] [--m M] [--k K]
                   [--method {formula,oracle,both}] [--explain]

options:
  -h, --help            show this help message and exit
  --p P                 prime
  --a A                 exponent in the central form (p^a*n, n)
  --n N                 cofactor in the central form
  --m M                 upper index in the general form (m, k)
  --k K                 lower index in the general form
  --method {formula,oracle,both}
  --explain             print the branch trace
""",
    ("scan",): """\
usage: fibval scan [-h] --p P --a A --n-max N_MAX --predicate
                   {divisible,not_divisible,odd_fibonomial}
                   [--format {lines,json}]

options:
  -h, --help            show this help message and exit
  --p P
  --a A
  --n-max N_MAX
  --predicate {divisible,not_divisible,odd_fibonomial}
  --format {lines,json}
""",
    ("verify",): """\
usage: fibval verify [-h] --p-set P_SET --a-max A_MAX --n-max N_MAX
                     [--index-cap INDEX_CAP] [--tier {exact,modular}]

options:
  -h, --help            show this help message and exit
  --p-set P_SET         comma-separated primes, e.g. 2,3,5,7
  --a-max A_MAX
  --n-max N_MAX
  --index-cap INDEX_CAP
                        skip cells with p^a*n beyond this (default 100000)
  --tier {exact,modular}
                        oracle tier for the central grid (sweeps always use
                        modular)
""",
    ("table",): """\
usage: fibval table [-h] --p P --a A --n-max N_MAX [--format {csv,json}]

options:
  -h, --help           show this help message and exit
  --p P
  --a A
  --n-max N_MAX
  --format {csv,json}
""",
}


@pytest.mark.parametrize("command", HELP, ids=lambda command: " ".join(command) or "top")
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *command, "-h") == (0, HELP[command], "")
