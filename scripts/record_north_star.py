"""Add the north star's three end-to-end runs to a benchmark record.

Usage, from anywhere in a git checkout:

    python3 scripts/record_north_star.py FILE

FILE is a JSON object, such as a ``BENCH_*.json`` written by
``python3 perfbench/run.py --all --record FILE``.  The script runs, from the
repository root and with ``src`` on ``PYTHONPATH``:

* the README's full acceptance grid, ``python -m fibval.cli verify ...``,
  read as the ``elapsed_seconds`` and ``cells_checked`` of its JSON report;
* acceptance criteria 3-5, the oddness census up to 10^6, timed as one
  pytest process (start-up and collection included);
* the tier-1 command, ``python -m pytest -q --continue-on-collection-errors``,
  timed.

It then sets the top-level key ``north_star`` of FILE to those figures and
the commit they ran at (``git describe --always --dirty``), keeping every
other key.  If any run exits non-zero, FILE is left as it was and the script
exits 1.  Times are wall seconds of one run each, on whatever host runs it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRID = ["verify", "--p-set", "2,3,5,7,11,13,17,19,23,29,31", "--a-max", "4",
        "--n-max", "100000", "--index-cap", "100000"]
CENSUS = ["tests/test_acceptance.py::test_criterion_3_2n_always_even",
          "tests/test_acceptance.py::test_criterion_4_4n_odd_iff_power_of_two",
          "tests/test_acceptance.py::test_criterion_5_8n_odd_membership"]


def run(argv: list[str], env: dict[str, str], capture: bool = False) -> tuple[float, str]:
    """Wall seconds and captured stdout of one command; exits 1 if it fails."""
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE if capture else None)
    seconds = time.perf_counter() - start
    if done.returncode:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}; nothing written")
    return seconds, done.stdout or ""


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit("usage: python3 scripts/record_north_star.py FILE")
    path = Path(argv[0])
    record = json.loads(path.read_text())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    python = sys.executable
    _, commit = run(["git", "describe", "--always", "--dirty", "--abbrev=40"], env, capture=True)
    _, out = run([python, "-m", "fibval.cli", *GRID], env, capture=True)
    grid = json.loads(out)
    census_s, _ = run([python, "-m", "pytest", "-q", *CENSUS], env)
    tier1_s, _ = run([python, "-m", "pytest", "-q", "--continue-on-collection-errors"], env)
    record["north_star"] = {
        "commit": commit.strip(),
        "grid_elapsed_seconds": grid["elapsed_seconds"],
        "grid_cells_checked": grid["cells_checked"],
        "census_seconds": round(census_s, 3),
        "tier1_seconds": round(tier1_s, 3),
    }
    path.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
