"""Add the north star's three end-to-end runs to a benchmark record.

Usage, from anywhere in a git checkout:

    python3 scripts/record_north_star.py FILE

FILE is a JSON object, such as a ``BENCH_*.json`` written by
``python3 perfbench/run.py --all --record FILE``.  The script runs, from the
repository root and with ``src`` on ``PYTHONPATH``:

* the README's full acceptance grid, ``python -m fibval.cli verify ...``,
  five times, each read as the ``elapsed_seconds`` and ``cells_checked`` of
  its JSON report;
* acceptance criteria 3-5, the oddness census up to 10^6, five times, each
  timed as one pytest process (start-up and collection included);
* the tier-1 command, ``python -m pytest -q --continue-on-collection-errors``,
  timed once.

It then sets the top-level key ``north_star`` of FILE to those figures and
the commit they ran at (``git describe --always --dirty``), keeping every
other key.  ``grid_elapsed_seconds`` and ``census_seconds`` are the medians
of the five runs, which ``grid_runs_seconds`` and ``census_runs_seconds``
list in the order they ran: one run of the same code can land anywhere in
a spread of nearly 2x.  If any run exits non-zero, or the grid's runs check
different cell counts, FILE is left as it was and the script exits 1.
Times are wall seconds, on whatever host runs it.
"""

from __future__ import annotations

import json
import os
import statistics
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
RUNS = 5  # of the grid and of the census; tier-1 runs once


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
    grids = [json.loads(run([python, "-m", "fibval.cli", *GRID], env, capture=True)[1])
             for _ in range(RUNS)]
    cells = {grid["cells_checked"] for grid in grids}
    if len(cells) != 1:
        sys.exit(f"the grid's runs checked {sorted(cells)} cells; nothing written")
    grid_s = [grid["elapsed_seconds"] for grid in grids]
    census_s = [round(run([python, "-m", "pytest", "-q", *CENSUS], env)[0], 3)
                for _ in range(RUNS)]
    tier1_s, _ = run([python, "-m", "pytest", "-q", "--continue-on-collection-errors"], env)
    record["north_star"] = {
        "commit": commit.strip(),
        "grid_elapsed_seconds": statistics.median(grid_s),
        "grid_cells_checked": cells.pop(),
        "census_seconds": statistics.median(census_s),
        "tier1_seconds": round(tier1_s, 3),
        "grid_runs_seconds": grid_s,
        "census_runs_seconds": census_s,
    }
    path.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
