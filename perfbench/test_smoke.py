"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/test_smoke.py        (or: python3 -m pytest perfbench)

Runs every workload traced and untraced with --smoke, checks that each metric
BENCHMARK.json names is printed with its unit, and that the oracle marks
deliberately wrong answers as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class WorkloadMetrics(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in (w["name"] for w in BENCH["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    report, result = run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(report["failed_ratio"], 0.0)
                    want = {m["name"]: m["unit"] for m in BENCH[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))


class OracleRejectsWrongValues(unittest.TestCase):
    def test_count(self):
        from ogq import counting

        reference = oracle.load_reference()["counts"]
        report = counting.count(3, 4, 0)
        expected = reference["3,4,0"]
        self.assertTrue(oracle.check_count(expected, report, counting.count_float(3, 4, 0)))
        report.value += 1
        self.assertFalse(oracle.check_count(expected, report, None))
        refused = counting.count(2, 4, 0)
        self.assertFalse(oracle.check_count(expected, refused, None))
        self.assertFalse(oracle.check_count("refused", counting.count(3, 4, 0), None))

    def test_float_path_disagreement(self):
        from ogq import counting

        report = counting.count(3, 4, 0)
        expected = oracle.load_reference()["counts"]["3,4,0"]
        self.assertFalse(oracle.check_count(expected, report, float(report.value) * 1.001))

    def test_gw_routes(self):
        from ogq import quantum

        query = quantum.GWQuery(3, 1, 1, ((2, 1), (1,)))
        exact = quantum.gw_invariant(query)
        approx = quantum.gw_invariant_float(query)
        trace = quantum.trace_invariant(query)
        self.assertTrue(oracle.check_gw(exact, approx, trace))
        self.assertFalse(oracle.check_gw(exact + 1, approx, trace))
        self.assertFalse(oracle.check_gw(exact, approx, trace + 1))
        self.assertFalse(oracle.check_gw(exact, approx + 0.5, trace))

    def test_product(self):
        from ogq import quantum

        lam, mu = (1,), (2,)
        product = quantum.quantum_product(
            3, quantum.QuantumElement.basis(lam), quantum.QuantumElement.basis(mu))
        self.assertTrue(oracle.check_product(3, lam, mu, product.terms, quantum.three_point))
        wrong = {key: c + Fraction(1) for key, c in product.terms.items()}
        self.assertFalse(oracle.check_product(3, lam, mu, wrong, quantum.three_point))

    def test_table(self):
        sha = oracle.load_reference()["table_sha256"]["2"]
        self.assertFalse(oracle.check_table(sha, 0, "{}\n", b"{}\n"))


if __name__ == "__main__":
    unittest.main()
