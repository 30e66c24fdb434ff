"""The verdict and the gain test scripts/bench_pairs.py prints per end-to-end
metric, and its note on the workers.untraced counts."""

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


def test_a_gain_needs_nine_wins_in_ten_and_a_median_past_the_parents_spread():
    # PARENT's interquartile range is 0.01
    assert bench_pairs.gain(PARENT, [x - 0.05 for x in PARENT], True)
    assert bench_pairs.gain(PARENT, [x + 0.05 for x in PARENT], False)
    # the wrong direction is no gain
    assert not bench_pairs.gain(PARENT, [x - 0.05 for x in PARENT], False)
    # nine wins in ten suffice, eight do not
    nine = [x - 0.05 for x in PARENT[:9]] + [PARENT[9] + 0.05]
    eight = [x - 0.05 for x in PARENT[:8]] + [x + 0.05 for x in PARENT[8:]]
    assert bench_pairs.wins(PARENT, nine, True) == 9 and bench_pairs.gain(PARENT, nine, True)
    assert bench_pairs.wins(PARENT, eight, True) == 8 and not bench_pairs.gain(PARENT, eight, True)


def test_ties_count_for_neither_side():
    tied = [x - 0.05 for x in PARENT[:9]] + [PARENT[9]]
    assert bench_pairs.wins(PARENT, tied, True) == bench_pairs.wins(PARENT, tied, False) + 9 == 9
    assert bench_pairs.gain(PARENT, tied, True)
    two_ties = [x - 0.05 for x in PARENT[:8]] + PARENT[8:]
    assert bench_pairs.wins(PARENT, two_ties, True) == 8 and not bench_pairs.gain(PARENT, two_ties, True)


def test_every_pair_won_by_less_than_the_parents_spread_is_no_gain():
    wide = [1.0, 2.0, 1.0, 2.0, 1.5, 1.0, 2.0, 1.5, 1.0, 2.0]
    assert bench_pairs.wins(wide, [x * 0.8 for x in wide], True) == 10
    assert not bench_pairs.gain(wide, [x * 0.8 for x in wide], True)
    # the interquartile range is 1.0: a fall of the median by 1.2 shows a gain
    assert bench_pairs.gain(wide, [x - 1.2 for x in wide], True)


def test_the_untraced_note_shows_only_when_the_medians_differ():
    assert bench_pairs.untraced_note([11, 12, 11], [12, 11, 11]) is None
    note = bench_pairs.untraced_note([11, 11, 12], [14, 15, 14])
    assert note.startswith("note: median workers.untraced differ, parent 11 -> change 14")
    assert "peak_rss_mb" in note
    assert "parent 11.5 -> change 12" in bench_pairs.untraced_note([11, 12], [12, 12])
