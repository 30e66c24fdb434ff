"""Acceptance gate: one test per headline guarantee, each with the wall-clock
budget it must meet.  Run with -v to get one line per criterion."""

import itertools
import time

import pytest

from ogq import cli, partitions, quantum, verify
from ogq.counting import (
    NotApplicableError,
    count,
    count_float,
    max_iso_degree,
)
from ogq.quantum import GWQuery, gw_invariant, gw_invariant_float


class Budget:
    """Context manager asserting the block finishes inside the budget."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"budget exceeded: {elapsed:.2f}s >= {self.seconds}s"
            )
        return False


RANK4_QUERIES = [(g, 4, 0, 2 ** (g + 1)) for g in (3, 5, 7)]
RANK3_QUERIES = [(g, 3, 0, 2 ** g) for g in (3, 5, 7)]
RANK6_ELL0_QUERIES = [(5, 6, 0, 2 ** 11), (9, 6, 0, 2 ** 19)]
RANK6_ELL1_QUERIES = [(6, 6, 1, 2 ** 12)]
RANK5_QUERIES = [(5, 5, 0, 2 ** 10)]

SMALL_SPACE_QUERIES = [
    (GWQuery(2, 0, 1, ((1,), (1,), (1,))), 1),
    (GWQuery(3, 0, 0, ((1,), (1,), partitions.dual((2,), 2))), 1),
    (GWQuery(3, 0, 1, ((1,), (2, 1), (2, 1))), 1),
]


def _check_counts(queries):
    for genus, rank, ell, want in queries:
        report = count(genus, rank, ell)
        assert report.applicable, report.reason
        assert report.value == want


def test_criterion_01_rank4_counts_are_2_to_g_plus_1():
    with Budget(1.0):
        _check_counts(RANK4_QUERIES)


def test_criterion_02_rank3_counts_are_2_to_g():
    with Budget(1.0):
        _check_counts(RANK3_QUERIES)


def test_criterion_03_rank6_counts():
    with Budget(1.0):
        _check_counts(RANK6_ELL0_QUERIES)


def test_criterion_04_rank6_ell1_count():
    with Budget(1.0):
        _check_counts(RANK6_ELL1_QUERIES)


def test_criterion_05_rank5_count():
    with Budget(1.0):
        _check_counts(RANK5_QUERIES)


def test_criterion_06_small_space_invariants():
    with Budget(1.0):
        for query, want in SMALL_SPACE_QUERIES:
            assert gw_invariant(query) == want


def test_criterion_07_poincare_duality_up_to_n6():
    with Budget(30.0):
        results = verify.suite_duality()
    assert results
    for r in results:
        assert r.ok, f"{r.name}: {r.detail}"


def test_criterion_08_associativity_all_triples_n_2_3_4():
    with Budget(60.0):
        results = verify.suite_assoc()
    assert [r.name.split()[0] for r in results] == ["n=2", "n=3", "n=4", "n=5"]
    for r in results:
        assert r.ok, f"{r.name}: {r.detail}"


def test_criterion_09_trace_route_agrees_with_closed_form():
    with Budget(120.0):
        results = verify.suite_trace()
    assert results
    for r in results:
        assert r.ok, f"{r.name}: {r.detail}"


def test_criterion_10_genus_recursion_on_sampled_queries():
    with Budget(60.0):
        results = verify.suite_recursion()
    assert len(results) == 20
    for r in results:
        assert r.ok, f"{r.name}: {r.detail}"


def test_criterion_11_trivial_bundle_bridge():
    with Budget(10.0):
        results = verify._bridge_samples()
    assert len(results) == 10
    for r in results:
        assert r.ok, f"{r.name}: {r.detail}"


def test_criterion_12_structure_constants_are_nonnegative_integers():
    with Budget(300.0):
        for n in range(2, 7):
            for entry in quantum.structure_table(n):
                assert isinstance(entry.c, int) and entry.c >= 0, (n, entry)


def test_criterion_13_float_route_matches_exact():
    for genus, rank, ell, want in itertools.chain(
        RANK4_QUERIES, RANK3_QUERIES, RANK6_ELL0_QUERIES,
        RANK6_ELL1_QUERIES, RANK5_QUERIES,
    ):
        approx = count_float(genus, rank, ell)
        assert abs(approx - want) <= 1e-6 * abs(want)
    for query, want in SMALL_SPACE_QUERIES:
        approx = gw_invariant_float(query)
        assert abs(approx - want) <= 1e-6 * abs(want)


def test_criterion_14_uncovered_regimes_refuse_with_diagnostics(capsys):
    report = count(2, 3, 0)
    assert not report.applicable
    assert report.value is None
    assert "not covered" in report.reason
    assert "2^g" in report.reason

    # every even-rank query whose extremal degree is odd must refuse too
    swept = 0
    for rank in (4, 8):
        for genus in range(2, 8):
            for ell in (-1, 0, 1, 2):
                try:
                    e0 = max_iso_degree(rank, genus, ell)
                except NotApplicableError:
                    continue
                if e0 % 2 == 0:
                    continue
                swept += 1
                report = count(genus, rank, ell)
                assert not report.applicable
                assert report.value is None
                assert report.e0 == e0 and report.required_w2 == 1
                assert "not covered" in report.reason
                assert "2*2^g" in report.reason and "2^g" in report.reason
    assert swept >= 6

    code = cli.main(["count", "--g", "2", "--rank", "3", "--ell", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert "not covered" in out
