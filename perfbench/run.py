"""Benchmark runner for ogq: cold table build, count sweep, warm query mix.

    python3 perfbench/run.py --workload {table,counts,queries} --seed N \
        --seconds S --trace {0,1}

Closed loop, one client: each call starts only after the previous one
returned.  Every repetition of the workload runs in a fresh interpreter
(worker.py), one worker process at a time, so the lru_caches start cold as
they do for a command-line user.  Workers are started until the next one
would overrun --seconds (at least one; with --trace 1 at least one untraced
and one traced).  Every worker repeats the same seeded calls; each metric is
the median over workers.  The first worker's answers are checked by the
oracle and every other worker must return the same answers.

Timings are CPU time of the worker (see worker.py); the report line also
gives the median wall times.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics from
traced workers plus trace.overhead_ratio.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it is a
report with sample counts, the tail percentile, failed_ratio and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
MAX_WORKERS = 40
TIME_LIMIT_S = 170  # every run must end well inside 180 s

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {key: {m["name"]: m["unit"] for m in BENCH[key]} for key in ("end_to_end", "per_layer")}


class WorkerError(RuntimeError):
    pass


class Runner:
    """Spawns workers one at a time inside one run directory."""

    def __init__(self, run_dir: Path, spec_path: Path, started: float):
        self.run_dir, self.spec_path, self.started = run_dir, spec_path, started
        self.spawned = 0

    def spawn(self, check=False, trace=False, setup_only=False) -> dict:
        wdir = self.run_dir / f"w{self.spawned}"
        self.spawned += 1
        wdir.mkdir()
        out = wdir / "result.json"
        flags = (["--check"] if check else []) + (["--setup-only"] if setup_only else [])
        if trace:
            flags += ["--trace", str(wdir / "spans")]
        budget = TIME_LIMIT_S - (time.monotonic() - self.started)
        if budget <= 0:
            raise WorkerError("out of time before the worker could start")
        began = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--spec", str(self.spec_path), "--out", str(out), *flags,
               "--t0", str(time.monotonic_ns())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=budget)
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"worker exceeded the {TIME_LIMIT_S} s run limit") from exc
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(out.read_text())
        result["elapsed_s"] = time.monotonic() - began
        if trace:
            result["layers"] = tracing.layer_metrics(wdir / "spans")
        shutil.rmtree(wdir)
        return result


def tail(lat: list[int]) -> tuple[int, float]:
    """Latency with ten samples beyond it (the maximum below 11 samples),
    and the percentile that is."""
    ordered = sorted(lat)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def run(args) -> dict:
    reference = oracle.load_reference()
    ops = workloads.make_ops(args.workload, args.seed, args.smoke, reference)
    spec = {"workload": args.workload, "ops": ops, "warmup": workloads.warmup_ns(args.smoke)}
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    started = time.monotonic()
    try:
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        runner = Runner(run_dir, spec_path, started)
        deadline = started + args.seconds
        plain, traced = [], []
        while len(plain) + len(traced) < MAX_WORKERS:
            batch = [runner.spawn(check=not plain)]
            if args.trace:
                batch.append(runner.spawn(trace=True))
            plain.append(batch[0])
            traced.extend(batch[1:])
            if time.monotonic() + sum(r["elapsed_s"] for r in batch) > deadline:
                break
        setups = list(plain)
        if not args.trace:
            while len(setups) < SETUP_SAMPLES:
                setups.append(runner.spawn(setup_only=True))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    verdicts, expected = plain[0]["verdicts"], plain[0]["answers"]
    attempted = failed = 0
    for result in plain + traced:
        for ok, want, got in zip(verdicts, expected, result["answers"]):
            attempted += 1
            failed += not (ok and got == want)
    ops_per_worker = len(plain[0]["lat_ns"])
    _, percentile = tail(plain[0]["lat_ns"])
    med = statistics.median
    if args.trace:
        values = {name: med(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        values["cli.bytes_out"] = med(r["bytes_out"] for r in traced)
        values["trace.overhead_ratio"] = med(r["cpu_s"] for r in traced) / med(r["cpu_s"] for r in plain)
        units = UNITS["per_layer"]
    else:
        values = {
            "setup_s": med(r["setup_s"] for r in setups),
            "cpu_s": med(r["cpu_s"] for r in plain),
            "op_p50_ms": med(med(r["lat_ns"]) for r in plain) / 1e6,
            "op_tail_ms": med(tail(r["lat_ns"])[0] for r in plain) / 1e6,
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
        }
        units = UNITS["end_to_end"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "workers": {"untraced": len(plain), "traced": len(traced), "setup_samples": len(setups)},
        "calls_per_worker": len(ops),
        "ops_per_worker": ops_per_worker,
        "op_tail": {"percentile": round(percentile, 3), "samples_per_worker": ops_per_worker,
                    "samples_beyond": 10 if ops_per_worker >= 11 else 0},
        "failed_ratio": failed / attempted,
        "wall_s": {"setup": med(r["setup_wall_s"] for r in setups),
                   "calls": med(r["wall_s"] for r in plain)},
        "machine": {"uname": " ".join(os.uname()[:1] + os.uname()[2:]), "cpus": os.cpu_count(),
                    "python": f"{sys.implementation.name} {sys.version.split()[0]}"},
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(report))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": report["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("table", "counts", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for test_smoke.py")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ogq" / "__init__.py").is_file():
        print(f"no ogq sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
