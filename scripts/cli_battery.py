#!/usr/bin/env python3
"""Run one fixed battery of `ogq` commands in two checkouts and report every difference.

    python3 scripts/cli_battery.py PARENT CHANGE

Each checkout runs the whole battery (BATTERY) in one fresh interpreter with
its own src/ on the path, in process through ogq.cli.main: every subcommand
in text and JSON; gw, count and ntilde exact and under --mode float, with
their float notes; gw --trace; refusals (exit 3), bad input and bad
arguments (exit 2) and an I/O failure (exit 4).  `table` writes into a
temporary directory per side, read back after each command and written TMP
in the output.  The top-level --help is left out: it prints the CLI's
module docstring, which a change to the docs alone moves.

A command differs when its stdout, its stderr, its exit code or the bytes of
a table it wrote differ; the traceback field of an internal error's JSON is
left out, as it names each checkout's files.  Prints each difference, then a
total, and exits 1 on any difference.

Standard library only; it writes nothing in either checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
JSON, FLOAT = ["--format", "json"], ["--mode", "float"]
STAIRCASE_GW = ["gw", "--n", "3", "--g", "1", "--d", "3", "--insertions", "2,1;2,1;2,1;2,1"]
NTILDE = ["ntilde", "--g", "2", "--n", "7", "--ell", "1", "--e", "0"]

# argument lists; {tmp} is the side's temporary directory
BATTERY: list[list[str]] = [
    *([*argv, *extra] for argv in (
        ["gw", "--n", "2", "--g", "0", "--d", "1", "--insertions", "1;1;1"],
        STAIRCASE_GW,
        [*STAIRCASE_GW, "--trace"],
        ["gw", "--n", "4", "--g", "2", "--d", "1", "--insertions", "3,2,1;3"],
        ["gw", "--n", "3", "--g", "1", "--d", "0", "--insertions", "2,1;1"],  # off the weight condition
        ["gw", "--n", "2", "--g", "801", "--d", "400"],  # the float route past the double range
        ["count", "--g", "3", "--rank", "4", "--ell", "0"],  # a catalogued form
        ["count", "--g", "3", "--rank", "14", "--ell", "0"],
        ["count", "--g", "3", "--rank", "13", "--ell", "0"],
        ["count", "--g", "2", "--rank", "8", "--ell", "1"],
        ["count", "--g", "3", "--rank", "26", "--ell", "0"],  # past the float route's budget
        ["count", "--g", "101", "--rank", "20", "--ell", "0"],  # past the double range
        ["count", "--g", "3", "--rank", "6", "--ell", "1"],  # not applicable
        ["count", "--g", "2", "--rank", "3", "--ell", "0"],  # not covered
        NTILDE,
        [*NTILDE, "--Q", "a1 + 2*a3*a2"],
        ["ntilde", "--g", "3", "--n", "2", "--ell", "0", "--e", "-4", "--Q", "a1^2"],
        ["ntilde", "--g", "3", "--n", "2", "--ell", "0", "--e", "-4", "--Q", "-3*a1^2"],
        ["ntilde", "--g", "3", "--n", "13", "--ell", "0", "--e", "-2"],  # past the float route's budget
    ) for extra in ([], JSON, FLOAT, [*FLOAT, *JSON])),
    ["table", "--n", "3", "--cache-dir", "{tmp}/cache"],
    ["table", "--n", "4", "--max-d", "1", "--cache-dir", "{tmp}/cache", *JSON],
    ["table", "--n", "5", *JSON],  # into OGQ_CACHE_DIR
    ["table", "--n", "3", "--cache-dir", "{tmp}/blocker/cache"],  # I/O failure: exit 4
    ["qmul", "--n", "4", "--a", "2,1", "--b", "3"],
    ["qmul", "--n", "5", "--a", "4,3,2,1", "--b", "4,1", *JSON],
    ["verify", "--suite", "all"],
    ["verify", "--suite", "all", *JSON],
    ["gw", "--help"],
    # refusals: exit 3
    ["gw", "--n", "11", "--g", "1", "--d", "0"],
    ["gw", "--n", "10", "--g", "1", "--d", "0", "--trace"],
    ["count", "--g", "3", "--rank", "42", "--ell", "0", *JSON],
    ["ntilde", "--g", "3", "--n", "21", "--ell", "0", "--e", "-2"],
    ["ntilde", "--g", "3", "--n", "4", "--ell", "0", "--e", "-3"],
    ["table", "--n", "10", "--cache-dir", "{tmp}/cache"],
    ["qmul", "--n", "10", "--a", "1", "--b", "1"],
    # bad input and bad arguments: exit 2
    ["gw", "--n", "1", "--g", "0", "--d", "0"],
    ["gw", "--n", "3", "--g", "0", "--d", "-1"],
    ["gw", "--n", "3", "--g", "0", "--d", "1", "--insertions", "5"],
    ["gw", "--n", "3", "--g", "0", "--d", "1", "--insertions", "1;1;2", "--trace"],
    ["count", "--g", "1", "--rank", "4", "--ell", "0"],
    ["count", "--g", "3", "--rank", "2", "--ell", "0"],
    ["count", "--g", "3", "--rank", "5", "--ell", "1", *JSON],
    ["ntilde", "--g", "3", "--n", "2", "--ell", "0", "--e", "-2", "--Q", "a1 *"],
    ["ntilde", "--g", "3", "--n", "2", "--ell", "0", "--e", "-2", "--Q", "a1 +"],
    ["ntilde", "--g", "3", "--n", "2", "--ell", "0", "--e", "-2", "--Q", "a1 + + a2"],
    ["ntilde", "--g", "3", "--n", "2", "--ell", "0", "--e", "-2", "--Q", "a25"],  # past every answerable n
    ["ntilde", "--g", "3", "--n", "2", "--ell", "0", "--e", "-2", "--u", "-1"],
    ["qmul", "--n", "4", "--a", "2,2", "--b", "1"],
    ["table", "--n", "3", "--mode", "float"],
    ["gw", "--n", "x", "--g", "0", "--d", "0"],
    ["count", "--g", "3"],
    ["verify", "--suite", "bogus"],
    [],
]

CHILD = """
import json, sys
from pathlib import Path
sys.path.append({here!r})
import cli_battery, ogq
print(json.dumps({{"ogq": ogq.__file__, "records": cli_battery.run_battery(Path({tmp!r}))}}))
"""


def run_battery(tmp: Path, battery: list[list[str]] = BATTERY) -> list[dict]:
    """Each command's exit code, stdout, stderr and written tables, run in
    process through the ogq that this interpreter imports; tables go under
    tmp, whose path reads TMP in the output."""
    from ogq import cli

    (tmp / "blocker").write_text("")  # a file where one table's cache directory would be made
    records = []
    for argv in battery:
        for kept in ("cache", "env-cache"):
            shutil.rmtree(tmp / kept, ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.replace("{tmp}", str(tmp)) for arg in argv])
        tables = {path.relative_to(tmp).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                  for path in sorted(tmp.rglob("*.json"))}
        records.append({"argv": argv, "exit": code, "stdout": out.getvalue().replace(str(tmp), "TMP"),
                        "stderr": err.getvalue().replace(str(tmp), "TMP"), "tables": tables})
    return records


def collect(root: Path) -> list[dict]:
    """The battery's records from a fresh interpreter importing root/src."""
    root = root.resolve()
    with tempfile.TemporaryDirectory(prefix="cli-battery-") as tmp:
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1",
                   OGQ_CACHE_DIR=str(Path(tmp) / "env-cache"))
        proc = subprocess.run([sys.executable, "-c", CHILD.format(here=str(HERE), tmp=tmp)], cwd=tmp, env=env,
                              capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: the battery exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    done = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(done["ogq"]).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"{root}: the battery imported ogq from {done['ogq']}, not from this checkout")
    return done["records"]


def _without_traceback(stderr: str) -> str:
    # an error line's JSON without its traceback field, every other line as it is
    lines = []
    for line in stderr.splitlines():
        with contextlib.suppress(ValueError):
            doc = json.loads(line)
            if isinstance(doc, dict) and doc.pop("traceback", None) is not None:
                line = json.dumps(doc)
        lines.append(line)
    return "\n".join(lines)


def _first_difference(parent, change) -> str:
    if not (isinstance(parent, str) and isinstance(change, str)):
        return f"parent {parent!r} -> change {change!r}"
    a, b = parent.splitlines(), change.splitlines()
    k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return (f"line {k + 1}: parent {a[k] if k < len(a) else '<end>'!r:.200} "
            f"-> change {b[k] if k < len(b) else '<end>'!r:.200}")


def differences(parent: list[dict], change: list[dict]) -> list[str]:
    """One line per command and field in which the two sides' records differ."""
    if [r["argv"] for r in parent] != [r["argv"] for r in change]:
        raise ValueError("the two sides ran different batteries")
    found = []
    for p, c in zip(parent, change):
        for field in ("exit", "stdout", "stderr", "tables"):
            a, b = p[field], c[field]
            if field == "stderr":
                a, b = _without_traceback(a), _without_traceback(b)
            if a != b:
                found.append(f"ogq {shlex.join(p['argv'])}: {field} differs, {_first_difference(a, b)}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="a checkout of the parent commit")
    parser.add_argument("change", type=Path, help="a checkout of the change")
    args = parser.parse_args(argv)
    found = differences(collect(args.parent), collect(args.change))
    for line in found:
        print(line)
    print(f"{len(BATTERY)} commands, {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
