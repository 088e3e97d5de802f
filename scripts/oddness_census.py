#!/usr/bin/env python3
"""Census of the n whose (2^a*n, n) Fibonomial coefficient is odd, a = 1..3.

The three characterizations are sharp: n = 1 only; the powers of 2; and
n = (1 + 3*2^k)/7 with k = 1 (mod 3).  Each predicate call re-proves its
own answer against the matching arithmetic test, so a census run doubles
as a long self-check.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fibval.formulas import is_odd_2n, is_odd_4n, is_odd_8n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10**6)
    args = parser.parse_args()

    for a, predicate in ((1, is_odd_2n), (2, is_odd_4n), (3, is_odd_8n)):
        start = time.perf_counter()
        hits = [n for n in range(1, args.n_max + 1) if predicate(n)]
        elapsed = time.perf_counter() - start
        shown = ", ".join(map(str, hits[:24])) + (", ..." if len(hits) > 24 else "")
        print(f"a={a}: {len(hits)} odd coefficients up to {args.n_max} "
              f"[{elapsed:.1f}s]")
        print(f"  n = {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
