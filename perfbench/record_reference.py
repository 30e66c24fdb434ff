"""Record the oracle's reference answers into reference.json.

    python3 perfbench/record_reference.py

Run once, at the commit that defines the benchmark: the SHA-256 of each
`ogq table --n k --format json` output for k = 2..6, and for every
(g, rank, ell) of the count domain either "refused" or the SHA-256 of the
decimal count.  Later commits are checked against these answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from ogq import cli, counting  # noqa: E402


def main() -> int:
    tables = {}
    with tempfile.TemporaryDirectory() as cache:
        for k in range(2, 7):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["table", "--n", str(k), "--format", "json", "--cache-dir", cache])
            if rc != 0:
                raise SystemExit(f"table --n {k} exited with {rc}")
            tables[str(k)] = oracle.digest(buf.getvalue())
    counts = {}
    for g, rank, ell in workloads.count_domain():
        report = counting.count(g, rank, ell)
        counts[workloads.count_key(g, rank, ell)] = (
            oracle.digest(str(report.value)) if report.applicable else "refused"
        )
    refused = sum(v == "refused" for v in counts.values())
    oracle.REFERENCE.write_text(json.dumps({"table_sha256": tables, "counts": counts}, indent=0) + "\n")
    print(f"{len(tables)} tables, {len(counts)} count triples ({refused} refused) -> {oracle.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
