#!/usr/bin/env python3
"""Write quantum structure-constant tables as JSON into the cache directory.

Runs `ogq table --n k` for each k and prints one summary line per table
instead of the entries, so the files are the CLI's own.  The default range
n = 2..7 takes under half a second from a cold start; n = 8 alone takes
0.33 s and n = 9 2.66 s of CPU on a 2-CPU x86-64 VM (BENCH_33.json's table_n8
and table_n9), most of it the structure-constant sum over the orbit
representatives of the evaluation points.  `ogq table` refuses
n > 9 (its basis budget), and so does this script.
"""

import argparse
import contextlib
import io
import sys
import time

from ogq import cli


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()

    where = ["--cache-dir", args.cache_dir] if args.cache_dir else []
    for n in range(args.min_n, args.max_n + 1):
        start = time.perf_counter()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["table", "--n", str(n), *where])
        if status:
            sys.exit(status)
        # the first line of the text output: "<count> entries -> <path>"
        summary = out.getvalue().split("\n", 1)[0]
        print(f"n={n}: {summary} ({time.perf_counter() - start:.2f}s)")


if __name__ == "__main__":
    main()
