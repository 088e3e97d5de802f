"""Tests of the benchmark itself: seeded inputs, output checks, tracing and its spec.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import workloads as wl
from fibval import verify
from fibval.formulas import all_qualified_labels
from fibval.rank import rank_of_apparition
from tracer import SPANS, Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    make = wl.WORKLOADS[name].make_inputs
    assert make(7) == make(7)


@pytest.mark.parametrize("name", ["scan_cli", "exact_tier"])
def test_another_seed_changes_the_inputs(name):
    make = wl.WORKLOADS[name].make_inputs
    assert make(7) != make(8)


def test_scan_inputs_have_the_declared_mix():
    commands = wl.scan_inputs(3)
    big = [int(c[2]) for c in commands if int(c[2]) >= wl.SCAN_BIG[0]]
    assert len(commands) == wl.SCAN_COMMANDS
    assert len(set(big)) == wl.SCAN_BIG_PRIMES
    assert len(big) == wl.SCAN_BIG_PRIMES * (1 + wl.SCAN_REPEATS)
    n_max_uses = Counter(int(c[c.index("--n-max") + 1]) for c in commands)
    assert max(n_max_uses.values()) - min(n_max_uses.values()) <= 1


def test_maximal_rank_agrees_with_the_rank_of_apparition():
    for p in range(3, 3000):
        if p != 5 and wl._is_prime_small(p):
            assert wl.has_maximal_rank(p) == (rank_of_apparition(p).z in (p - 1, p + 1)), p


def _grid_report(**changes):
    coverage = {label: 1 for label in all_qualified_labels()}
    report = verify.VerifyReport(wl.GRID, wl.GRID_CELLS, [], coverage, tuple(coverage))
    return dataclasses.replace(report, **changes)


def test_grid_checker_rejects_a_corrupted_report():
    assert wl.grid_check(wl.GRID, _grid_report()) == (wl.GRID_CELLS, 0)
    mismatch = verify.Mismatch(3, 1, 4, 2, 1, "pm2 a odd r<s", 12, 4, "central")
    assert wl.grid_check(wl.GRID, _grid_report(mismatches=[mismatch]))[1] == 1
    assert wl.grid_check(wl.GRID, _grid_report(cells_checked=wl.GRID_CELLS - 1))[1] > 0
    uncovered = {label: 0 for label in all_qualified_labels()}
    assert wl.grid_check(wl.GRID, _grid_report(branch_coverage=uncovered))[1] > 0


def _small_commands():
    return [
        ["scan", "--p", "7", "--a", "2", "--n-max", "20", "--predicate", "divisible",
         "--format", "lines"],
        ["scan", "--p", "3", "--a", "1", "--n-max", "30", "--predicate", "odd_fibonomial",
         "--format", "json"],
        ["scan", "--p", "2", "--a", "3", "--n-max", "60", "--predicate", "not_divisible",
         "--format", "json"],
        ["table", "--p", "11", "--a", "2", "--n-max", "12", "--format", "csv"],
        ["table", "--p", "5", "--a", "1", "--n-max", "9", "--format", "json"],
    ]


def test_scan_checker_rejects_corrupted_output():
    commands = _small_commands()
    results, _ = wl.scan_pass(commands)
    assert wl.scan_check(commands, results) == (len(commands), 0)
    (rc, hits), (_, table) = results[0], results[3]
    assert not wl.check_command(commands[0], 1, hits)
    assert not wl.check_command(commands[0], rc, "\n".join(hits.split()[1:]))
    header, first, *rest = table.splitlines()
    p, a, n, nu, branch = first.split(",")
    corrupted = "\n".join([header, f"{p},{a},{n},{int(nu) + 1},{branch}", *rest])
    assert not wl.check_command(commands[3], rc, corrupted)


def test_exact_checker_rejects_a_corrupted_value():
    queries = wl.exact_inputs(5)[:40]
    values, latencies = wl.exact_pass(queries)
    assert len(latencies) == len(queries)
    assert wl.exact_check(queries, values) == (len(queries), 0)
    values[3] += 1
    assert wl.exact_check(queries, values) == (len(queries), 1)


def _patched_names():
    return {(target, func): getattr(importlib.import_module(target), func)
            for _, _, func, targets in SPANS for target in targets}


def test_traced_pass_restores_every_patched_name():
    before = _patched_names()
    tracer = Tracer()
    wl.clear_caches()
    with tracer.traced_pass():
        inside = _patched_names()
        results, _ = wl.scan_pass(_small_commands())
        wl.exact_pass(wl.exact_inputs(1)[:10])
    assert all(inside[key] is not before[key] for key in before)
    assert _patched_names() == before
    assert all(after is before[key] for key, after in _patched_names().items())
    metrics = tracer.metrics(overhead_s=0.0)
    assert metrics["cli.main.calls"] == len(_small_commands())
    assert metrics["oracle.exact.calls"] == 10
    assert metrics["arith.is_prime.calls"] > 0
    assert wl.scan_check(_small_commands(), results)[1] == 0


def test_traced_pass_restores_names_when_the_pass_raises():
    before = _patched_names()
    with pytest.raises(RuntimeError):
        with Tracer().traced_pass():
            raise RuntimeError("pass failed")
    assert all(after is before[key] for key, after in _patched_names().items())


def test_spec_names_every_metric_the_benchmark_reports():
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert per_layer == list(Tracer().metrics(overhead_s=0.0))
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    mapped = json.loads((BENCH / "metric_map.json").read_text())
    assert set(mapped["workloads"]) == set(wl.WORKLOADS)
    assert {m for row in mapped["per_layer"] for m in row["metrics"]} == set(per_layer)


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_tier", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
