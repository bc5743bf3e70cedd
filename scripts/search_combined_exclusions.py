#!/usr/bin/env python3
"""Scan random presentations for groups only excluded by the combined route.

Looks for presentations where no single test rules out a Kahler group,
but the nonfibered relation-count bound together with the genus
dimension counts does.  Prints each hit as presentation text plus its
key invariants.

Usage: python scripts/search_combined_exclusions.py [count] [seed]
"""

import random
import sys
from pathlib import Path

from kahlercheck.obstructions import CITE_COMBINED, VerdictCode, evaluate
from kahlercheck.presentation import format_presentation

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from randgen import random_presentation  # noqa: E402


def search(count: int, seed: int) -> int:
    rng = random.Random(seed)
    hits = 0
    for _ in range(count):
        pres = random_presentation(rng)
        report = evaluate(pres)
        if report.overall is not VerdictCode.NOT_KAHLER:
            continue
        direct = [
            v for v in report.verdicts
            if v.code is VerdictCode.NOT_KAHLER and v.theorem != CITE_COMBINED
        ]
        if direct:
            continue
        hits += 1
        print(format_presentation(pres).rstrip())
        print(f"  n={report.n} s={report.s} k={report.k} q={report.q} "
              f"dim2={report.dim2} excluded_genera={list(report.excluded_genera)}")
        print()
    print(f"{hits} combined-route exclusions in {count} random presentations")
    return 0


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    sys.exit(search(count, seed))
