#!/usr/bin/env python3
"""Scan maximal-isotropic-subbundle counts over a (genus, rank, ell) grid.

Prints one row per query with the extremal degree e0 and the count N, or the
parity diagnostic when the query is not applicable or not covered.  The
powers of two in the applicable rows are the headline pattern.  Each count
is an exact sum over the affine orbits of the evaluation points, and the
per-rank tables are kept for the rest of the scan.  With --max-rank 40
(genus 2..9, ell 0..2) the whole scan answers every applicable count in
3.14 s of CPU and 43.7 MB peak on a 2-CPU x86-64 VM with Python 3.11
(BENCH_33.json's count_subbundles_rank40): the first count of rank 40 about
0.7 s (the orbit walk and S_rho at the 805 representatives of n = 20), a
staircase power one Pfaffian mod p per representative on top, and a count
whose rank was already seen a few milliseconds.  Those times hold for genus
2-9; the S_rho power grows with the genus, and the first count(400, 40, 0)
took 19.7 s in process (BENCH_33.json's count_400_40_0), nearly all of it
the S_rho powers at the 805 representatives, whose coefficients reach about
8,000 bits, so a large-genus rank-40 row is slow, not hung.
Every staircase factor's sign rests on a check mod a prime, not a proof.
Counts run to rank 40; past it a count is refused before any work and its
row says so.
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
