#!/usr/bin/env python3
"""Record how the costly routes grow, in BENCH_<pr>.json at the repo root.

    python3 scripts/growth.py PR [--parent PATH]

Runs each figure of FIGURES RUNS times, each run in a fresh Python process
that imports ogq from this checkout's src/ and makes one cold call:
`ogq table` at n = 8 and 9, `ogq qmul` at n = 9, structure_table(9),
count(3, r, 0) for r = 32..40 even, count(400, 40, 0),
`count_subbundles.py --max-rank 40`, a cold exact gw of four of the longest
classes at n = 10 (GW_SUM_MAX_N) and its float route, count_float(3, 24, 0)
at the float route's cap, the trace route at n = 9, and the tier-1 tests.
Per figure it records:

- `cpu_s`: the median CPU time of the call (time.process_time in the child,
  imports excluded);
- `import_s`: the median of the child's time.process_time when its imports
  are done: the CPU of interpreter start-up and of importing ogq, its CLI
  included, which every `ogq` command pays before it runs;
- `vmhwm_mb`: the median of the child's own peak resident memory, VmHWM in
  /proc/self/status; ru_maxrss would also count the parent's peak, which
  Linux carries across exec;
- `sha256`: the hash of the answer (what the CLI prints, the table entries,
  the count's JSON, the outcome counts of the tests), the same in every run;
  where REFERENCES pins a prefix, it must match, so a fast wrong run fails.

With --parent PATH, a checkout of the parent commit, each figure also runs
RUNS times there, from PATH's src/ with PATH as the working directory (so
its scripts and its tier-1 tests), and the two sides' runs alternate,
the side that goes first switching each run, as scripts/bench_pairs.py
does: a drift of the host's speed then falls on both sides alike.  The
file records the parent's figures under "parent", next to its commit
(git describe there; null in a copy without git).

A figure whose runs fail or disagree is recorded with its error, and the
script exits 1.  It sets no bound on time or memory.  The file also names
the machine, Python and commit.  Standard library only; the tier-1 child
imports pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3

# The child: one call, timed alone, under a stdout that keeps only its hash;
# then the answer's text into that hash (or, unless the figure keeps its
# stdout, into a new one), untimed; then one JSON line on the real stdout.
CHILD = r"""
import contextlib, hashlib, io, json, runpy, shutil, sys, tempfile, time
from ogq import cli, counting, partitions, quantum
imports = time.process_time()


class Sink(io.TextIOBase):
    # keeps the SHA-256 of what is written, and the text while it is short
    def __init__(self):
        self.hash, self.text, self.size = hashlib.sha256(), "", 0

    def write(self, text):
        self.hash.update(text.encode())
        self.size += len(text)
        self.text = self.text + text if self.size <= 200 else None
        return len(text)


class Tally:
    # the tier-1 answer: how many tests ended in each outcome
    def __init__(self):
        self.outcomes = {}

    def pytest_runtest_logreport(self, report):
        if report.when == "call" or report.outcome != "passed":
            self.outcomes[report.outcome] = self.outcomes.get(report.outcome, 0) + 1


def run_script(path, *argv):
    sys.argv = [path, *argv]
    runpy.run_path(path, run_name="__main__")


sink, out, tmp = Sink(), sys.stdout, tempfile.mkdtemp()
start = time.process_time()
with contextlib.redirect_stdout(sink):
    answer = %(call)s
cpu = time.process_time() - start
shutil.rmtree(tmp)
if not %(keep_stdout)s:
    sink = Sink()
for part in %(parts)s:
    sink.write(part)
with open("/proc/self/status") as fh:
    hwm_kb = int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
print(json.dumps({"cpu_s": cpu, "import_s": imports, "vmhwm_mb": hwm_kb / 1024, "sha256": sink.hash.hexdigest(),
                  "answer": sink.text}), file=out)
"""

STAIRCASE_8 = "8,7,6,5,4,3,2,1"
# four of the longest classes at n = 10, each missing one part; genus 1, d = 9
LONG_10 = tuple(tuple(p for p in range(9, 0, -1) if p != k) for k in (3, 4, 5, 6))


def _cli(*argv: str) -> dict:
    return {"call": f"cli.main({list(argv)!r} + ['--cache-dir', tmp])" if argv[0] == "table"
            else f"cli.main({list(argv)!r})", "keep_stdout": True,
            "parts": "[f'exit {answer}'] if answer else []"}


def _count(g: int, rank: int) -> dict:
    return {"call": f"counting.count({g}, {rank}, 0)", "keep_stdout": False,
            "parts": "[json.dumps(answer.to_json_dict(), sort_keys=True)]"}


FIGURES: dict[str, dict] = {
    "table_n8": _cli("table", "--n", "8", "--format", "json"),
    "table_n9": _cli("table", "--n", "9", "--format", "json"),
    "qmul_n9": _cli("qmul", "--n", "9", "--a", STAIRCASE_8, "--b", STAIRCASE_8),
    "structure_table_n9": {"call": "quantum.structure_table(9)", "keep_stdout": False,
                           "parts": "map(repr, answer)"},
    **{f"count_3_{rank}_0": _count(3, rank) for rank in range(32, 41, 2)},
    "count_400_40_0": _count(400, 40),
    "count_subbundles_rank40": {"call": "run_script('scripts/count_subbundles.py', '--max-rank', '40')",
                                "keep_stdout": True, "parts": "[]"},
    "gw_n10_four_long": {"call": f"quantum.gw_invariant(quantum.GWQuery(10, 1, 9, {LONG_10!r}))",
                         "keep_stdout": False, "parts": "[counting.decimal_string(answer)]"},
    "gw_float_n10_four_long": {"call": f"quantum.gw_invariant_float(quantum.GWQuery(10, 1, 9, {LONG_10!r}))",
                               "keep_stdout": False, "parts": "[repr(answer)]"},
    "count_float_3_24_0": {"call": "counting.count_float(3, 24, 0)", "keep_stdout": False,
                           "parts": "[repr(answer)]"},
    "trace_n9": {"call": f"quantum.trace_invariant(quantum.GWQuery(9, 2, 5, "
                         f"(partitions.rho(8), (8,))))",
                 "keep_stdout": False, "parts": "[counting.decimal_string(answer)]"},
    "tier1": {"call": "__import__('pytest').main(['-q', '--continue-on-collection-errors', "
                      "'-p', 'no:cacheprovider'], plugins=[tally := Tally()])",
              "keep_stdout": False, "parts": "[json.dumps([int(answer), tally.outcomes], sort_keys=True)]"},
}

# Known answers, by SHA-256 prefix: the n = 9 table's JSON bytes have read
# 0e01ff89... since the table was first built on integers.
REFERENCES = {"table_n9": "0e01ff89"}


def run_child(spec: dict, root: Path = ROOT) -> dict:
    # one run in the checkout at root: its src/ imported, root the working directory
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD % spec], cwd=root, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def measure(name: str, spec: dict, roots: dict[str, Path]) -> dict[str, dict]:
    # RUNS runs per side of roots; with two sides they alternate, the side
    # that goes first switching each run
    runs: dict[str, list[dict]] = {side: [] for side in roots}
    for k in range(RUNS):
        for side in list(roots) if k % 2 == 0 else list(roots)[::-1]:
            runs[side].append(run_child(spec, roots[side]))
    return {side: summary(name, side_runs) for side, side_runs in runs.items()}


def summary(name: str, runs: list[dict]) -> dict:
    # the figure from one side's runs: medians, every run, the answer's hash
    errors = [run["error"] for run in runs if "error" in run]
    if errors:
        return {"error": errors[0]}
    hashes = {run["sha256"] for run in runs}
    figure = {"cpu_s": statistics.median(run["cpu_s"] for run in runs),
              "import_s": statistics.median(run["import_s"] for run in runs),
              "vmhwm_mb": statistics.median(run["vmhwm_mb"] for run in runs),
              "cpu_s_runs": [run["cpu_s"] for run in runs],
              "import_s_runs": [run["import_s"] for run in runs],
              "vmhwm_mb_runs": [run["vmhwm_mb"] for run in runs],
              "sha256": runs[0]["sha256"], "answer": runs[0]["answer"]}
    if len(hashes) > 1:
        figure["error"] = f"the runs' answers differ: {sorted(hashes)}"
    elif not figure["sha256"].startswith(REFERENCES.get(name, "")):
        figure["error"] = f"the answer's SHA-256 does not start with {REFERENCES[name]}"
    return figure


def commit(root: Path) -> str | None:
    # "-dirty" when the figures were taken on uncommitted changes over that commit
    described = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"], cwd=root,
                               capture_output=True, text=True)
    return described.stdout.strip() or None


def machine() -> dict:
    model = None
    if Path("/proc/cpuinfo").exists():
        model = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                      if line.startswith("model name")), None)
    return {"cpu": model, "cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "commit": commit(ROOT)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("pr", type=int, help="the number in BENCH_<pr>.json")
    parser.add_argument("--parent", type=Path, help="a checkout of the parent commit, run alternately")
    args = parser.parse_args(argv)
    roots = {"change": ROOT} if args.parent is None else {"parent": args.parent.resolve(), "change": ROOT}
    figures: dict[str, dict[str, dict]] = {side: {} for side in roots}
    for name, spec in FIGURES.items():
        for side, got in measure(name, spec, roots).items():
            figures[side][name] = got
            line = got.get("error") or (f"cpu {got['cpu_s']:.3f} s, imports {got['import_s']:.3f} s, "
                                        f"VmHWM {got['vmhwm_mb']:.1f} MB, {got['sha256'][:8]}")
            print(f"{name} ({side}): {line}", flush=True)
    doc = {"pr": args.pr, "runs": RUNS, "machine": machine(), "figures": figures["change"]}
    if args.parent is not None:
        doc["parent"] = {"commit": commit(roots["parent"]), "figures": figures["parent"]}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return 1 if any("error" in got for side in figures.values() for got in side.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
