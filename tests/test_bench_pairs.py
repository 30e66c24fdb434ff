"""The verdict scripts/bench_pairs.py prints per end-to-end metric."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.mark.parametrize("change, lower, want", [
    # a tight parent: the median's change against the bound decides
    ([x * 1.10 for x in PARENT], True, "within the bound"),
    ([x * 1.30 for x in PARENT], True, "worse past the bound"),
    ([x * 0.70 for x in PARENT], True, "within the bound"),
    # for a higher-is-better metric a fall is the worse direction
    ([x * 0.70 for x in PARENT], False, "worse past the bound"),
    ([x * 1.30 for x in PARENT], False, "within the bound"),
])
def test_a_tight_parent_is_judged_by_the_median(change, lower, want):
    assert bench_pairs.verdict(PARENT, change, lower, 0.25)[1] == want


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [1.0, 2.0, 1.0, 2.0, 1.5, 1.0, 2.0, 1.5, 1.0, 2.0]
    relative, said = bench_pairs.verdict(wide, list(wide), True, 0.25)
    assert (relative, said) == (0.0, "unresolved")
    # unless every change run beats every parent run
    assert bench_pairs.verdict(wide, [0.9] * 10, True, 0.25)[1] == "within the bound"
    assert bench_pairs.verdict(wide, [0.9] * 9 + [1.0], True, 0.25)[1] == "unresolved"
    # a median worse past the bound says so, however wide the parent
    assert bench_pairs.verdict(wide, [x * 2 for x in wide], True, 0.25)[1] == "worse past the bound"


def test_the_relative_change_is_the_medians():
    relative, said = bench_pairs.verdict([2.0, 2.0, 2.0], [2.5, 2.5, 2.4], True, 0.25)
    assert relative == pytest.approx(0.25)
    assert said == "within the bound"
    assert bench_pairs.verdict([0.0] * 3, [0.0] * 3, True, 0.1) == (0.0, "within the bound")
