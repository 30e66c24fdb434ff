#!/usr/bin/env python3
"""Run the benchmark in two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T`
once in each checkout, one run at a time, T the `run_seconds` of the
parent's BENCHMARK.json; the parent runs first in even pairs and the change
first in odd ones, so a drift of the host's speed falls on both sides alike.  Every run prints one line as it ends: its
end-to-end metrics, `failed` and `workers.untraced` from its report line.
At the end, per end-to-end metric, each side's median and quartiles and the
number of pairs the change won (strictly better, in the direction that the
parent's BENCHMARK.json names); then per metric the relative change of the
medians, the metric's bound from the parent's BENCHMARK.json, one verdict
(see verdict): "worse past the bound", "unresolved" or "within the bound",
and whether the change shows a gain on it (see gain).  A note follows when
the two sides' median `workers.untraced` differ: a worker's `peak_rss_mb`
then follows the peak of the perfbench/run.py process that started it,
which grows with the number of workers, not the change.

Standard library only; it imports nothing from ogq and writes nothing in
either checkout beyond what perfbench/run.py itself does.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, args, seconds) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{root}: run.py exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "failed": result["failed"], "untraced": report["workers"]["untraced"]}


def spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def wins(parent: list[float], change: list[float], lower: bool) -> int:
    # pairs the change wins, strictly better; a tie counts for neither side
    return sum((c < p) if lower else (c > p) for p, c in zip(parent, change))


def gain(parent: list[float], change: list[float], lower: bool) -> bool:
    """Whether the change shows a gain on one metric: it wins at least 9 of
    every 10 pairs and its median beats the parent's by more than the
    parent's interquartile range."""
    (pm, p1, p3), cm = spread(parent), spread(change)[0]
    margin = (pm - cm) if lower else (cm - pm)
    return 10 * wins(parent, change, lower) >= 9 * len(parent) and margin > p3 - p1


def untraced_note(parent: list[int], change: list[int]) -> str | None:
    """The note printed when the two sides' median workers.untraced differ."""
    pm, cm = statistics.median(parent), statistics.median(change)
    if pm == cm:
        return None
    return (f"note: median workers.untraced differ, parent {pm:g} -> change {cm:g}: "
            "peak_rss_mb follows run.py's own peak, not the change")


def verdict(parent: list[float], change: list[float], lower: bool, bound: float) -> tuple[float, str]:
    """(relative change of the medians, verdict) for one end-to-end metric.

    "worse past the bound" when the change's median is worse than the
    parent's by more than bound (a fraction of the parent's median);
    otherwise "unresolved" when the parent's quartile spread is wider than
    bound of its median, unless every change run beats every parent run;
    otherwise "within the bound".
    """
    (pm, p1, p3), cm = spread(parent), spread(change)[0]
    relative = (cm - pm) / pm if pm else (0.0 if cm == pm else math.copysign(math.inf, cm - pm))
    if (relative if lower else -relative) > bound:
        return relative, "worse past the bound"
    beats_all = all((c < p) if lower else (c > p) for c in change for p in parent)
    if p3 - p1 > bound * abs(pm) and not beats_all:
        return relative, "unresolved"
    return relative, "within the bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            got = run_once(roots[side], args, bench["run_seconds"])
            runs[side].append(got)
            figures = " ".join(f"{name}={value:.4g}" for name, value in got["metrics"].items())
            print(f"pair {pair + 1} {side}: {figures} failed={got['failed']} "
                  f"workers.untraced={got['untraced']}", flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs, "
          f"median [quartiles], parent -> change, change wins")
    for name, is_lower in lower.items():
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        (pm, p1, p3), (cm, c1, c3) = (spread(values[side]) for side in SIDES)
        print(f"  {name}: {pm:.4g} [{p1:.4g}, {p3:.4g}] -> {cm:.4g} [{c1:.4g}, {c3:.4g}], "
              f"wins {wins(values['parent'], values['change'], is_lower)}/{args.pairs}")
    print("\nrelative change of the medians, bound, verdict, gain")
    for name, is_lower in lower.items():
        values = [[r["metrics"][name] for r in runs[side]] for side in SIDES]
        relative, said = verdict(*values, is_lower, bounds[name])
        shown = "gain shown" if gain(*values, is_lower) else "no gain shown"
        print(f"  {name}: {relative:+.1%}, bound {bounds[name]:.0%}, {said}, {shown}")
    for side in SIDES:
        print(f"  {side}: failed {[r['failed'] for r in runs[side]]}, "
              f"workers.untraced {[r['untraced'] for r in runs[side]]}")
    if note := untraced_note(*([r["untraced"] for r in runs[side]] for side in SIDES)):
        print(note)
    return 0


if __name__ == "__main__":
    sys.exit(main())
