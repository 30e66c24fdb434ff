"""Cross-checking batteries behind `ogq verify` and the acceptance tests.

Each suite returns CheckResult records rather than asserting, so the CLI can
print one line per check and the tests can assert on the same data.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction

from . import counting, partitions, quantum
from .counting import NQuery
from .partitions import InvalidInput
from .quantum import GWQuery, QuantumElement
from .symfunc import AlphaPolynomial, ptilde_alpha


@dataclasses.dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def suite_duality() -> list[CheckResult]:
    """Genus-0 two-point invariants realize the Kronecker pairing against the
    complement-dual index, for every pair of Schubert classes, n = 2..6."""
    out = []
    for n in range(2, 7):
        m = n - 1
        basis = partitions.all_strict(m)
        bad = []
        for lam, mu in itertools.product(basis, repeat=2):
            got = quantum.gw_invariant(GWQuery(n, 0, 0, (lam, mu)))
            want = 1 if mu == partitions.dual(lam, m) else 0
            if got != want:
                bad.append((lam, mu, got, want))
        out.append(
            CheckResult(
                "duality",
                f"n={n} all {len(basis) ** 2} pairs",
                not bad,
                "" if not bad else f"first failure: {bad[0]}",
            )
        )
    return out


def suite_assoc() -> list[CheckResult]:
    """Associativity of the quantum product on all basis triples, n = 2..5."""
    out = []
    for n in range(2, 6):
        basis = partitions.all_strict(n - 1)
        bad = []
        for a, b, c in itertools.product(basis, repeat=3):
            left = quantum.quantum_product(
                n,
                quantum.quantum_product(n, QuantumElement.basis(a), QuantumElement.basis(b)),
                QuantumElement.basis(c),
            )
            right = quantum.quantum_product(
                n,
                QuantumElement.basis(a),
                quantum.quantum_product(n, QuantumElement.basis(b), QuantumElement.basis(c)),
            )
            if left != right:
                bad.append((a, b, c))
        out.append(
            CheckResult(
                "assoc",
                f"n={n} all {len(basis) ** 3} triples",
                not bad,
                "" if not bad else f"first failure: {bad[0]}",
            )
        )
    return out


def suite_recursion() -> list[CheckResult]:
    """Degree/insertion recursion: 4s staircase insertions and s*n extra
    degree leave the invariant unchanged, on 20 sampled admissible queries."""
    rng = random.Random(20260816)
    out = []
    found = 0
    while found < 20:
        n = rng.choice((2, 3))
        basis = partitions.all_strict(n - 1)
        genus = rng.randint(0, 3)
        ins = tuple(rng.choice(basis) for _ in range(rng.randint(0, 3)))
        d = quantum.admissible_degree(n, genus, ins)
        if d is None:
            continue
        s = rng.choice((1, 2))
        ok = quantum.genus_recursion_check(n, genus, d, ins, s)
        out.append(
            CheckResult(
                "recursion",
                f"n={n} g={genus} d={d} s={s} ins={[partitions.format_partition(i) or '0' for i in ins]}",
                ok,
            )
        )
        found += 1
    return out


def suite_trace() -> list[CheckResult]:
    """The Frobenius-algebra trace route agrees with the direct evaluation
    sum on every admissible query of n = 2..4, genus 1..3, <= 3 insertions."""
    out = []
    for n in range(2, 5):
        basis = partitions.all_strict(n - 1)
        checked = 0
        bad = []
        for genus in range(1, 4):
            for size in range(4):
                for ins in itertools.combinations_with_replacement(basis, size):
                    d = quantum.admissible_degree(n, genus, ins)
                    if d is None:
                        continue
                    q = GWQuery(n, genus, d, ins)
                    direct = quantum.gw_invariant(q)
                    trace = quantum.trace_invariant(q)
                    checked += 1
                    if direct != trace:
                        bad.append((q, direct, trace))
        out.append(
            CheckResult(
                "trace",
                f"n={n}: {checked} admissible queries, genus 1..3",
                not bad,
                "" if not bad else f"first failure: {bad[0]}",
            )
        )
    return out


def _bridge_samples() -> list[CheckResult]:
    # trivial-bundle counts == arbitrary-bundle route at ell = 0 with the
    # staircase factors folded into the integrand, on 10 sampled queries
    rng = random.Random(20260816)
    out = []
    found = 0
    while found < 10:
        n = rng.choice((2, 3))
        m = n - 1
        basis = partitions.all_strict(m)
        genus = rng.randint(0, 3)
        u = rng.randint(0, 2)
        ins = tuple(rng.choice(basis) for _ in range(rng.randint(0, 2)))
        full = (partitions.rho(m),) * u + ins
        d = quantum.admissible_degree(n, genus, full)
        if d is None:
            continue
        e = -2 * d
        left = counting.trivial_bundle_number(genus, n, e, u, ins)
        q_poly = AlphaPolynomial.one()
        for lam in ins:
            q_poly = q_poly * ptilde_alpha(lam, m)
        for _ in range(u):
            q_poly = q_poly * ptilde_alpha(partitions.rho(m), m)
        right = counting.n_tilde(NQuery(genus, n, 0, e, 0, q_poly))
        out.append(
            CheckResult(
                "counts",
                f"bridge n={n} g={genus} e={e} u={u} ins={[partitions.format_partition(i) or '0' for i in ins]}",
                Fraction(left) == right,
                f"direct={left} via integrand={right}",
            )
        )
        found += 1
    return out


def suite_counts() -> list[CheckResult]:
    """Headline subbundle counts, the not-covered contract, and the bridge
    between the trivial-bundle and arbitrary-bundle routes."""
    out = []
    families = {
        (4, 0): (3, 5, 7),
        (3, 0): (3, 5, 7),
        (6, 0): (5, 7, 9),
        (6, 1): (4, 6, 8),
        (5, 0): (3, 5, 7),
    }
    for (rank, ell), genera in families.items():
        _label, _predicate, value_fn, _form = counting.CATALOG[rank, ell]
        for g in genera:
            report = counting.count(g, rank, ell)
            want = value_fn(g)
            ok = report.applicable and report.value == want
            out.append(
                CheckResult(
                    "counts",
                    f"N(g={g}, rank={rank}, ell={ell})",
                    ok,
                    f"got {report.value if report.applicable else report.reason}, want {want}",
                )
            )
    for g, rank, ell in [(2, 3, 0), (4, 4, 0), (6, 4, 0)]:
        report = counting.count(g, rank, ell)
        ok = (
            not report.applicable
            and report.reason is not None
            and "not covered" in report.reason
            and "2^g" in report.reason
        )
        out.append(
            CheckResult(
                "counts",
                f"not-covered contract (g={g}, rank={rank}, ell={ell})",
                ok,
                report.reason or "unexpectedly applicable",
            )
        )
    out.extend(_bridge_samples())
    return out


_SUITES = {
    "duality": suite_duality,
    "assoc": suite_assoc,
    "recursion": suite_recursion,
    "trace": suite_trace,
    "counts": suite_counts,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        return [result for suite in _SUITES.values() for result in suite()]
    if name not in _SUITES:
        raise InvalidInput(f"unknown suite {name!r}; choose from {sorted(_SUITES)} or 'all'")
    return _SUITES[name]()
