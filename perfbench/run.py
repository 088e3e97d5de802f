#!/usr/bin/env python3
"""The fibval benchmark.

One workload, in this process, from a checkout's root:

    python3 perfbench/run.py --workload verify_grid --seed 1 --seconds 40 --trace 0

prints each metric with its unit and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` its
per-layer ones.  The run repeats cold-cache passes of the workload until
``--seconds`` of passes are spent, checks every output outside the timed
region, and exits 1 if any operation failed.

Every pass replays the same operations in the same order, and each
operation's latency is taken as its fastest replay.  ``wall_s`` is the sum
of these over a pass: the pass's time to a checked answer, less what the
host's interference added.  ``op_p50_us`` and ``op_p99_us`` are their
percentiles and ``setup_s`` is the fastest of the set-up samples taken
between passes.  The host's speed changes by a quarter or more for seconds
to minutes at a time; a pass rarely runs whole at full speed, but each
short operation does in some replay, so these figures stay put where the
median or the fastest whole pass do not.

Every workload, each in a fresh process, untraced and then traced:

    python3 perfbench/run.py --all [--seed 1] [--seconds S] [--record FILE]

prints every end-to-end metric of every workload, the failed fraction and
the tracing overhead, writes both runs of each workload to FILE if given,
and exits 1 if any run failed.  S defaults to BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 9

sys.path.insert(0, str(ROOT / "src"))
try:
    from tracer import Tracer
    from workloads import WORKLOADS, clear_caches
except ImportError as exc:
    sys.exit(f"error: cannot import the fibval package from {ROOT / 'src'}: {exc}")


class Pass(NamedTuple):
    wall: float  # seconds
    ops: int
    failed: int


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quantile(values: array, q: float) -> int:
    """Nearest-rank q-quantile: at least (1 - q) of the values lie at or above it."""
    return sorted(values)[math.ceil(q * len(values)) - 1]


def src_env() -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def time_setup() -> float:
    """Seconds to start an interpreter that imports fibval.cli, as every CLI call does."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fibval.cli"], env=src_env(), cwd=ROOT,
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_passes(workload, inputs, seconds: float, tracer=None, before_pass=None
               ) -> tuple[list[Pass], array]:
    """Cold-cache passes until the next one would overrun ``seconds`` (at least one).

    Every pass replays the same operations in the same order; with the
    passes, returns each operation's lowest latency over them in ns.  A pass
    whose output equals the first pass's output shares its check result;
    any other is checked in full.  ``before_pass`` runs before each pass,
    outside the timed region.
    """
    passes: list[Pass] = []
    best = None
    first = None
    while True:
        if before_pass:
            before_pass()
        clear_caches()
        with tracer.traced_pass() if tracer else nullcontext():
            t0 = time.perf_counter()
            output, latencies = workload.run_pass(inputs)
            wall = time.perf_counter() - t0
        if first is not None and output == first[0]:
            ops, bad = first[1], first[2]
        else:
            ops, bad = workload.check(inputs, output)
            if first is None:
                first = (output, ops, bad)
        passes.append(Pass(wall, ops, bad))
        best = latencies if best is None else array("q", map(min, best, latencies))
        if sum(p.wall for p in passes) + wall > seconds:
            return passes, best


def run_one(args, spec: dict) -> int:
    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    if args.trace:
        # Untraced passes for half the time, traced ones for the rest: the
        # tracing overhead is the difference of their fastest passes.
        plain, _ = run_passes(workload, inputs, args.seconds / 2)
        tracer = Tracer()
        traced, _ = run_passes(workload, inputs, args.seconds / 2, tracer)
        metrics = tracer.metrics(overhead_s=min(p.wall for p in traced) - min(p.wall for p in plain))
        passes = plain + traced
        names = spec["per_layer"]
    else:
        # Set-up samples are spread over the run, between passes.
        setups: list[float] = []
        due = [0.0]

        def sample_setup() -> None:
            if time.perf_counter() >= due[0]:
                setups.append(time_setup())
                due[0] = time.perf_counter() + args.seconds / SETUP_SAMPLES

        passes, best = run_passes(workload, inputs, args.seconds, before_pass=sample_setup)
        while len(setups) < SETUP_SAMPLES:
            setups.append(time_setup())
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"fastest pass {min(p.wall for p in passes)} s")
        metrics = {
            "wall_s": sum(best) / 1e9,
            "op_p50_us": quantile(best, 0.50) / 1e3,
            "op_p99_us": quantile(best, 0.99) / 1e3,
            "setup_s": min(setups),
            "peak_rss_mib": peak_kib / 1024,
        }
        names = spec["end_to_end"]
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"passes {len(passes)}; operations {attempted}")
    for m in names:
        print(f"{m['name']} {metrics[m['name']]} {m['unit']}")
    print(f"failed_frac {failed / attempted} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0 if failed == 0 else 1


def run_all(args, spec: dict) -> int:
    seconds = args.seconds or spec["run_seconds"]
    record = {
        "hardware": {"cpus": os.cpu_count(), "machine": platform.machine(),
                     "system": platform.system(), "python": platform.python_version()},
        "seed": args.seed,
        "seconds": seconds,
        "workloads": {},
    }
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  stdin=subprocess.DEVNULL)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace}: no result (exit {proc.returncode})")
                ok = False
                continue
            ok = ok and proc.returncode == 0 and result["correct"] and result["failed"] == 0
            runs["traced" if trace else "untraced"] = result
        record["workloads"][name] = runs
        untraced = runs.get("untraced")
        if untraced:
            print(f"{name}:")
            for metric, m in untraced["metrics"].items():
                print(f"  {metric} {m['value']:.6g} {m['unit']}")
            frac = untraced["failed"] / untraced["attempted"]
            print(f"  failed_frac {frac} ({untraced['failed']}/{untraced['attempted']})")
        if "traced" in runs:
            overhead = runs["traced"]["metrics"]["trace.overhead_s"]["value"]
            print(f"  tracing overhead {overhead:.6g} s")
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --all: write every run's result to this file")
    args = parser.parse_args()
    spec = load_spec()
    if args.all:
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]} or args.seconds is None:
        parser.error("give --all, or --workload NAME and --seconds")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
