#!/usr/bin/env python3
"""Run the full formula-vs-oracle verification grid and print the report.

Defaults reproduce the heaviest everyday check: eleven primes, exponents
up to 4, every index p^a*n <= 1e5, modular oracle.  This is ``fibval
verify`` with n-max equal to the index cap, so the report and the exit
code follow the CLI convention (0 ok, 1 mismatch, 2 usage error, 4
coverage gap).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fibval.cli import main as fibval_main

DEFAULT_PRIMES = "2,3,5,7,11,13,17,19,23,29,31"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p-set", default=DEFAULT_PRIMES)
    parser.add_argument("--a-max", type=int, default=4)
    parser.add_argument("--index-cap", type=int, default=10**5)
    parser.add_argument("--tier", choices=["exact", "modular"], default="modular")
    args = parser.parse_args()
    return fibval_main(["verify", "--p-set", args.p_set, "--a-max", str(args.a_max),
                        "--n-max", str(args.index_cap), "--index-cap", str(args.index_cap),
                        "--tier", args.tier])


if __name__ == "__main__":
    sys.exit(main())
