#!/usr/bin/env python3
"""Write quantum structure-constant tables as JSON into the cache directory.

Same artifacts as `ogq table --n k` for each k, without echoing the entries.
The default range n = 2..7 takes under half a second from a cold start; n = 8
alone takes about 2 s, most of it the structure-constant sum over the orbit
representatives of the evaluation points.
"""

import argparse
import time

from ogq import quantum
from ogq.cli import _resolve_cache_dir, _table_bytes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()

    cache_dir = _resolve_cache_dir(args.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    for n in range(args.min_n, args.max_n + 1):
        start = time.perf_counter()
        doc = quantum.table_json_dict(n)
        path = cache_dir / f"table-n{n}.json"
        path.write_bytes(_table_bytes(doc))
        print(
            f"n={n}: {len(doc['entries'])} entries -> {path} "
            f"({time.perf_counter() - start:.2f}s)"
        )


if __name__ == "__main__":
    main()
