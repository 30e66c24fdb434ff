"""Correctness checks for every benchmark operation.

Each check takes the raw answer of one call and returns True when it is right.
The reference answers in reference.json were recorded with
record_reference.py; the other checks compare independent routes of the
program (trace route, float path, trivial-bundle bridge, three-point sums).
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
FLOAT_RTOL = 1e-6


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def float_agrees(exact, approx: float) -> bool:
    """Relative agreement on max(1, |exact|), compared exactly so that an
    exact value beyond the double range cannot overflow the check."""
    if not math.isfinite(approx):
        return False
    exact = Fraction(exact)
    return abs(Fraction(approx) - exact) <= Fraction(FLOAT_RTOL) * max(1, abs(exact))


def check_table(expected_sha: str, rc: int, stdout: str, written: bytes) -> bool:
    return rc == 0 and digest(stdout) == expected_sha and written == stdout.encode()


def check_count(expected: str, report, float_value: float | None) -> bool:
    """`expected` is "refused" or the SHA-256 of the decimal count.
    `float_value` is count_float's answer, or None where it is not finite."""
    if expected == "refused":
        return not report.applicable and bool(report.reason)
    if not report.applicable or digest(str(report.value)) != expected:
        return False
    return float_value is None or float_agrees(report.value, float_value)


def check_gw(exact: int, approx: float, trace: int | None) -> bool:
    return (trace is None or trace == exact) and float_agrees(exact, approx)


def check_product(n: int, lam, mu, terms, three_point) -> bool:
    """Each (nu, d, c) of tau_lam * tau_mu must satisfy the degree condition
    and equal the three-point number against the dual of nu."""
    for (nu, d), c in terms.items():
        if sum(nu) != sum(lam) + sum(mu) - 2 * (n - 1) * d:
            return False
        if c != three_point(n, lam, mu, nu, d):
            return False
    return True
