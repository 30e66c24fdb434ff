"""Dimension formulas, extremal isotropic degrees, the arbitrary-bundle
intersection numbers, and the subbundle counts."""

import hashlib
import itertools
import json
import random
import sys

import pytest

from fractions import Fraction

from ogq import cli, counting, cyclotomic, quantum, symfunc, verify
from ogq.partitions import rho
from ogq.counting import (
    CountReport,
    NQuery,
    NotApplicableError,
    NotCoveredError,
    OddDegreeUnsupportedError,
    OddEllUnsupportedError,
    count,
    count_float,
    expected_dim,
    expected_dim_t,
    max_iso_degree,
    n_tilde,
    n_tilde_float,
    trivial_bundle_number,
)
from ogq.quantum import (
    GWQuery,
    NonIntegralResultError,
    UnsupportedRankError,
    eval_points,
    gw_invariant,
    gw_invariant_float,
)
from ogq.symfunc import (
    AlphaPolynomial,
    _alpha_from_elem,
    alpha_evaluate,
    elementary_values,
    parse_alpha_poly,
    ptilde_alpha,
)


def test_expected_dim_examples():
    assert expected_dim(2, 0, -2, 3) == 0
    assert expected_dim(3, 0, -6, 5) == 0
    assert expected_dim(3, 0, -1, 2) == -1


def test_expected_dim_t_shifts():
    base = expected_dim(2, 0, -2, 3)
    assert expected_dim_t(2, 0, -2, 3, 0) == base
    assert expected_dim_t(2, 0, -2, 3, 1) == base - 1
    assert expected_dim_t(3, 1, -4, 4, 2) == expected_dim(3, 1, -4, 4) - 6


def test_max_iso_degree_examples():
    assert max_iso_degree(4, 3, 0) == -2
    assert max_iso_degree(5, 5, 0) == -6
    assert max_iso_degree(7, 4, 0) == -6
    assert max_iso_degree(4, 4, 0) == -3
    assert max_iso_degree(3, 2, 0) == -1
    assert max_iso_degree(4, 3, -2) == -4


def test_max_iso_degree_not_applicable():
    with pytest.raises(NotApplicableError):
        max_iso_degree(6, 4, 0)
    with pytest.raises(NotApplicableError):
        max_iso_degree(5, 4, 0)
    with pytest.raises(OddEllUnsupportedError):
        max_iso_degree(3, 3, 1)


def test_max_iso_degree_rejects_bad_input():
    with pytest.raises(UnsupportedRankError):
        max_iso_degree(2, 3, 0)
    with pytest.raises(ValueError):
        max_iso_degree(4, 1, 0)


@pytest.mark.parametrize("rank", range(4, 13, 2))
def test_expected_dim_vanishes_at_the_extremal_degree_even_rank(rank):
    n = rank // 2
    for genus in range(2, 10):
        for ell in range(-2, 4):
            try:
                e0 = max_iso_degree(rank, genus, ell)
            except NotApplicableError:
                continue
            assert expected_dim(n, ell, e0, genus) == 0


@pytest.mark.parametrize("rank", [3, 5, 7, 9, 11])
def test_extremal_degree_composition_odd_rank(rank):
    # the odd-rank extremal degree sits ell/2 below the rank+1 one
    n = (rank - 1) // 2
    for genus in range(2, 10):
        for ell in (-2, 0, 2):
            try:
                e0 = max_iso_degree(rank, genus, ell)
            except NotApplicableError:
                continue
            assert e0 + ell // 2 == max_iso_degree(rank + 1, genus, ell)
            assert expected_dim(n + 1, ell, e0 + ell // 2, genus) == 0


def test_n_tilde_headline_values():
    assert n_tilde(NQuery(3, 2, 0, -2)) == 8
    assert n_tilde(NQuery(5, 3, 0, -6)) == 1024
    # odd n, odd e route: prefactor 2^6 and a unit staircase sum
    assert n_tilde(NQuery(3, 3, 0, -3)) == 64


def test_n_tilde_zero_on_weight_mismatch():
    assert n_tilde(NQuery(3, 2, 0, -2, 0, parse_alpha_poly("a1"))) == 0
    assert n_tilde(NQuery(3, 2, 0, -2, 0, parse_alpha_poly("a1 + 1"))) == 8


def test_n_tilde_not_covered_for_even_n_odd_degree():
    with pytest.raises(NotCoveredError):
        n_tilde(NQuery(3, 2, 0, -1))


def test_n_tilde_rejects_bad_queries():
    with pytest.raises(UnsupportedRankError, match=r"^n must be >= 2, got 1$"):
        NQuery(3, 1, 0, -2)
    with pytest.raises(ValueError, match=r"^genus must be >= 0, got -1$"):
        NQuery(-1, 2, 0, -2)
    with pytest.raises(ValueError, match=r"^u must be >= 0, got -1$"):
        NQuery(3, 2, 0, -2, -1)
    # the checks run n, genus, u: the first bad one names the error
    with pytest.raises(UnsupportedRankError):
        NQuery(-1, 1, 0, -2, -1)
    with pytest.raises(ValueError, match="genus"):
        NQuery(-1, 2, 0, -2, -1)


def test_n_tilde_with_staircase_insertions_and_integrand():
    # three routes to the same number: u staircase insertions, the same
    # factors folded into the integrand, and the trivial-bundle invariant
    assert n_tilde(NQuery(3, 2, 0, -4, 2)) == 8
    assert n_tilde(NQuery(3, 2, 0, -4, 0, parse_alpha_poly("a1^2"))) == 8
    assert trivial_bundle_number(3, 2, -4, 2, []) == 8
    assert trivial_bundle_number(3, 2, -4, 0, [(1,), (1,)]) == 8


def test_n_tilde_float_matches_exact():
    q = NQuery(3, 2, 0, -2)
    assert abs(n_tilde_float(q) - 8.0) <= 1e-6 * 8.0
    assert n_tilde_float(NQuery(3, 2, 0, -2, 0, parse_alpha_poly("a1"))) == 0.0
    # any integrand: the float route evaluates Q at a_i = e_i/2 from the
    # complex e's; the zeros come back up to rounding
    nonzero = 0
    for text in ("a1", "a1^2 + a1 + 3", "a2^2 - a1^4 + a1"):
        for n, e, u in itertools.product(range(2, 6), (-2, -4, -6), range(3)):
            query = NQuery(3, n, 0, e, u, parse_alpha_poly(text))
            exact = n_tilde(query)
            assert n_tilde_float(query) == pytest.approx(exact, rel=1e-9, abs=1e-9), (text, n, e, u)
            nonzero += exact != 0
    assert nonzero == 12


HEADLINE_COUNTS = [
    (3, 4, 0, 16),
    (5, 4, 0, 64),
    (7, 4, 0, 256),
    (3, 3, 0, 8),
    (5, 3, 0, 32),
    (5, 6, 0, 2048),
    (9, 6, 0, 2 ** 19),
    (6, 6, 1, 4096),
    (5, 5, 0, 1024),
]


@pytest.mark.parametrize("genus,rank,ell,want", HEADLINE_COUNTS)
def test_headline_counts(genus, rank, ell, want):
    report = count(genus, rank, ell)
    assert report.applicable
    assert report.value == want
    assert report.required_w2 == report.e0 % 2
    assert expected_dim(
        rank // 2 if rank % 2 == 0 else (rank + 1) // 2,
        ell,
        report.e0 + (0 if rank % 2 == 0 else ell // 2),
        genus,
    ) == 0
    if (rank, ell) in {(4, 0), (3, 0), (6, 0), (6, 1), (5, 0)}:
        assert any("matches catalogued" in note for note in report.notes)


def test_a_count_off_a_catalogued_form_is_a_failed_proof(monkeypatch, capsys):
    label, predicate, value_fn, form = counting.CATALOG[4, 0]
    monkeypatch.setitem(counting.CATALOG, (4, 0), (label, predicate, lambda g: value_fn(g) + 1, form))
    with pytest.raises(counting.CatalogMismatchError,
                       match=r"count\(g=3, rank=4, ell=0\) contradicts the catalogued closed form 2\^\(g\+1\)"):
        count(3, 4, 0)
    assert cli.main(["count", "--g", "3", "--rank", "4", "--ell", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["error"] == "verification_failure"
    # the counts suite reports each such count as one failed check
    failed = [r for r in verify.run_suite("counts") if not r.ok]
    assert [r.name for r in failed] == [f"N(g={g}, rank=4, ell=0)" for g in (3, 5, 7)]
    assert "contradicts the catalogued closed form 2^(g+1)" in failed[0].detail


# Closed forms the exact counts follow, found by fitting linear recurrences
# in the genus to them (rank 8: N_g = 8 N_(g-1) + 48 N_(g-2), roots 12 and
# -4).  Pinned here, not in CATALOG, which holds only forms with a cited
# derivation.
FITTED_FORMS = {
    **dict.fromkeys([(8, 0), (8, 2)], lambda g: 12 ** g - (-4) ** g),
    **dict.fromkeys([(8, 1), (8, 3)], lambda g: (12 ** g + (-4) ** g) // 2),
    **dict.fromkeys([(7, 0), (7, 2)], lambda g: (12 ** g - (-4) ** g) // 2),
    **dict.fromkeys([(4, 1), (4, 3)], lambda g: 2 ** g),
    (4, 2): lambda g: 2 ** (g + 1),
}


def test_the_fitted_closed_forms_hold_at_genus_2_to_15():
    # rank 4 answers ell 1 and 3 at even genus and ell 2 at odd genus only;
    # the other genera are not covered
    applicable = [(g, rank, ell) for rank, ell in FITTED_FORMS for g in range(2, 16)
                  if count(g, rank, ell).applicable]
    assert len(applicable) == 105
    assert [key for key in applicable if count(*key).value != FITTED_FORMS[key[1:]](key[0])] == []


def test_count_even_report_details():
    report = count(3, 4, 0)
    assert report.rank == 4 and report.e0 == -2
    assert report.value == 16
    assert report.decomposition["route"] == "even_e0"
    assert report.decomposition["doubled"] is True
    assert report.decomposition["prefactor_log2"] == 3
    assert report.decomposition["staircase_power"] == 0
    odd_route = count(3, 6, 0)
    assert odd_route.value == 128
    assert odd_route.decomposition["route"] == "odd_e0_odd_n"


def test_count_even_hand_derived_values():
    # rank 4, g = 2, ell = 1: e0 = 0 and N = 2^4 * (1/8 + 1/8) = 4
    report = count(2, 4, 1)
    assert report.value == 4
    assert report.e0 == 0
    assert report.required_w2 == 0
    assert report.decomposition["doubled"] is False
    # negative ell: rank 4, g = 3, ell = -2 gives e0 = -4 and N = 16
    report = count(3, 4, -2)
    assert report.value == 16
    assert report.e0 == -4
    assert report.decomposition["prefactor_log2"] == 5
    assert report.decomposition["staircase_power"] == 2


def test_count_odd_halves_the_companion():
    for genus, rank in [(3, 3), (5, 3), (5, 5), (7, 5)]:
        odd = count(genus, rank, 0)
        even = count(genus, rank + 1, 0)
        assert odd.applicable and even.applicable
        assert even.value == 2 * odd.value
        assert odd.decomposition["route"] == "odd_rank_halving"
        assert odd.decomposition["companion_rank"] == rank + 1
        assert odd.decomposition["companion_e0"] == odd.e0 + 0


def test_count_odd_requires_even_ell():
    with pytest.raises(OddEllUnsupportedError):
        counting._count_plan(3, 3, 1)
    with pytest.raises(OddEllUnsupportedError):
        count(3, 3, 1)
    with pytest.raises(OddEllUnsupportedError):
        count(3, 5, 1)
    # one verdict: the degree rule itself refuses it, and count_float shares it
    with pytest.raises(OddEllUnsupportedError, match="odd rank supports even ell only, got 1"):
        max_iso_degree(5, 3, 1)
    with pytest.raises(OddEllUnsupportedError):
        count_float(3, 5, 1)


def test_count_not_covered_reports():
    for genus in (2, 4, 6):
        report = count(genus, 4, 0)
        assert not report.applicable
        assert report.e0 == -(genus - 1)
        assert report.required_w2 == 1
        assert "not covered" in report.reason
        assert "2*2^g" in report.reason and "2^g" in report.reason
    report = count(2, 3, 0)
    assert not report.applicable
    assert "not covered" in report.reason
    assert "companion" in report.reason


def test_count_not_applicable_reports():
    report = count(4, 6, 0)
    assert not report.applicable
    assert report.e0 is None
    assert "not applicable" in report.reason
    report = count(4, 5, 0)
    assert not report.applicable


def test_count_rejects_tiny_ranks():
    with pytest.raises(UnsupportedRankError):
        count(3, 2, 0)


def test_count_report_json_shape():
    doc = count(3, 4, 0).to_json_dict()
    assert doc["schema"] == "ogq-count/1"
    assert doc["N"] == "16"
    assert doc["applicable"] is True
    assert doc["required_w2"] == 0
    assert doc["decomposition"]["route"] == "even_e0"
    assert "reason" not in doc
    doc = count(4, 4, 0).to_json_dict()
    assert doc["applicable"] is False
    assert "N" not in doc
    assert "not covered" in doc["reason"]


def test_count_float_tracks_exact():
    for genus, rank, ell, want in HEADLINE_COUNTS:
        approx = count_float(genus, rank, ell)
        assert abs(approx - want) <= 1e-6 * want
    # every rank 3..14 and every ell the float route answers: the exact
    # count, or the same verdict raised
    answered = set()
    for rank in range(3, 15):
        for ell in range(4):
            for genus in range(2, 10):
                try:
                    report = count(genus, rank, ell)
                except OddEllUnsupportedError:
                    with pytest.raises(OddEllUnsupportedError):
                        count_float(genus, rank, ell)
                    continue
                if not report.applicable:
                    refusal = NotApplicableError if report.e0 is None else NotCoveredError
                    with pytest.raises(refusal):
                        count_float(genus, rank, ell)
                    continue
                assert count_float(genus, rank, ell) == pytest.approx(report.value, rel=1e-9)
                answered.add((rank, ell))
    assert answered == {(rank, ell) for rank in range(3, 15) for ell in range(4)
                        if rank % 2 == 0 or ell % 2 == 0}
    with pytest.raises(NotApplicableError):
        count_float(4, 6, 0)


def test_float_routes_raise_past_the_double_range():
    # finite float sums whose scaling by 2^exponent is past the double range
    with pytest.raises(OverflowError):
        count_float(300, 8, 0)
    with pytest.raises(OverflowError):
        count_float(1023, 4, 0)
    with pytest.raises(OverflowError):
        n_tilde_float(NQuery(300, 4, 0, -598))
    assert count(300, 8, 0).value == 2 * n_tilde(NQuery(300, 4, 0, -598))


def test_count_makes_one_exact_sum(monkeypatch):
    calls = {"orbit_trace": [], "evaluation_sum": []}
    for name in calls:
        def recording(*args, real=getattr(quantum, name), name=name, **kwargs):
            calls[name].append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(quantum, name, recording)
    assert count(3, 14, 0).value == 388628480
    # one orbit sum, and no sum over all the points
    assert calls == {"orbit_trace": [(7, 3, ((6, 5, 4, 3, 2, 1),) * 2)], "evaluation_sum": []}


def test_even_count_is_n_tilde_at_e0_doubled_for_even_ell():
    checked = 0
    for genus in range(2, 8):
        for n in (2, 3, 4, 5):
            for ell in range(-2, 4):
                report = count(genus, 2 * n, ell)
                if not report.applicable:
                    continue
                doubling = 2 if ell % 2 == 0 else 1
                assert report.value == doubling * n_tilde(NQuery(genus, n, ell, report.e0))
                checked += 1
    assert checked > 40


def test_trivial_bundle_number_examples():
    assert trivial_bundle_number(3, 2, -2, 0, []) == 8
    # genus-0 degree-0 with the point class is the classical point count
    assert trivial_bundle_number(0, 3, 0, 0, [(2, 1)]) == 1
    # weight-violating insertions give zero
    assert trivial_bundle_number(3, 2, 0, 0, []) == 0


def test_trivial_bundle_number_rejects_bad_degrees():
    with pytest.raises(OddDegreeUnsupportedError):
        trivial_bundle_number(3, 2, -3, 0, [])
    with pytest.raises(ValueError):
        trivial_bundle_number(3, 2, 2, 0, [])
    with pytest.raises(ValueError):
        trivial_bundle_number(3, 2, -2, -1, [])


def test_counts_suite_is_green():
    results = verify.suite_counts()
    assert results and all(r.ok for r in results)


def test_integrand_route_matches_insertion_route():
    # fold explicit insertions into the integrand and compare
    q_poly = ptilde_alpha((2,), 2) * ptilde_alpha((2, 1), 2)
    left = trivial_bundle_number(2, 3, -4, 0, [(2,), (2, 1)])
    right = n_tilde(NQuery(2, 3, 0, -4, 0, q_poly))
    assert left == 16
    assert Fraction(left) == right
    q2 = ptilde_alpha((1,), 1) * ptilde_alpha((1,), 1)
    assert trivial_bundle_number(1, 2, -2, 0, [(1,), (1,)]) == 2
    assert n_tilde(NQuery(1, 2, 0, -2, 0, q2)) == 2


def _random_integrand(rng, width):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, width)))
        terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return AlphaPolynomial.from_dict(terms)


@pytest.mark.parametrize("n, e", [(2, -4), (3, -4), (4, -6)])
def test_n_tilde_is_linear_in_its_integrand(n, e, full_point_sum):
    # terms off the expected weight integrate to 0: n_tilde of a sum is the
    # sum of the n_tildes, a mixed-weight integrand counts its part on the
    # weight, and that part's value is the full point sum's
    genus, rng = 3, random.Random(n)
    target = expected_dim(n, 0, e, genus)
    exponent, rho_power = counting._plan(n, 0, e)
    assert target > 0 and rho_power == 0
    values = []
    for _ in range(4):
        # a random coefficient is at most 5 in size, so a1^target and 1 stay in q1 + q2
        q1 = _random_integrand(rng, n - 1) + AlphaPolynomial.from_dict({(target,): 11, (): 11})
        q2 = _random_integrand(rng, n - 1)
        on = (q1 + q2).part_of_weight(target)
        assert on and on != q1 + q2
        total = n_tilde(NQuery(genus, n, 0, e, 0, q1 + q2))
        assert total == n_tilde(NQuery(genus, n, 0, e, 0, q1)) + n_tilde(NQuery(genus, n, 0, e, 0, q2))
        assert total == n_tilde(NQuery(genus, n, 0, e, 0, on))
        assert total == Fraction(2) ** exponent * full_point_sum(n, genus, (), on).as_rational()
        values.append(total)
    assert any(values)


def test_alpha_from_elem_matches_alpha_evaluate():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(1, 4)
        point = rng.choice(eval_points(m)).point
        poly = _random_integrand(rng, m + 1)
        evals = elementary_values(point)
        # a_i = e_i/2 by hand, with variables beyond m set to zero
        expected = evals[0] * 0
        for exps, coeff in poly.terms:
            term = evals[0] * coeff
            for i, k in enumerate(exps, 1):
                term = term * ((evals[i] * Fraction(1, 2) if i <= m else evals[0] * 0) ** k)
            expected = expected + term
        assert _alpha_from_elem(poly, evals) == alpha_evaluate(poly, point) == expected


def test_float_count_with_no_staircase_insertion_runs_no_pfaffian(monkeypatch):
    # rank 16, ell 0: the plan has staircase power 0, so the float route
    # reads S_rho at every point and never P~_rho nor any other class
    assert counting._count_plan(3, 16, 0)[3] == 0
    tables = (quantum._ptilde_rho, quantum._tables, quantum._float_tables)
    for cached in tables:
        cached.cache_clear()

    def refuse(*args):
        raise AssertionError("a Pfaffian ran")

    for module in (symfunc, quantum):
        monkeypatch.setattr(module, "_int_ptilde", refuse)
    monkeypatch.setattr(quantum, "_pair_pfaffian", refuse)
    assert count_float(3, 16, 0) == pytest.approx(count(3, 16, 0).value, rel=1e-9)
    assert [cached.cache_info().currsize for cached in tables] == [0, 0, 0]


def test_counting_sums_never_build_the_full_tables(monkeypatch):
    quantum._tables.cache_clear()
    quantum.orbit_trace.cache_clear()
    keys = {"_point_table": set(), "_ptilde_rho": set()}
    for name in keys:
        def recording(*args, real=getattr(quantum, name), name=name):
            keys[name].add(args)
            return real(*args)

        monkeypatch.setattr(quantum, name, recording)
    # the exact routes read the orbit representatives only: neither the full
    # point rows nor the full P~_rho column is asked for; rank 14 (staircase
    # power 2) and rank 8 at ell 1 (staircase power 3) read P~_rho at the
    # representatives by its sign, and the two powers-0 n_tilde never do.
    # Only the n_tilde with an integrand reads the elementary values (a
    # two-argument key); the rest read S_rho.
    exact = count(3, 14, 0).value
    assert counting._count_plan(3, 8, 1)[3] == 3 and count(3, 8, 1).value > 0
    assert n_tilde(NQuery(2, 3, 0, -4, 0, ptilde_alpha((2,), 2) * ptilde_alpha((2, 1), 2))) == 16
    assert n_tilde(NQuery(300, 4, 0, -598)) > 0
    assert quantum._tables.cache_info().currsize == 0
    assert keys == {"_point_table": {(7, True, False), (3, True), (3, True, False), (4, True, False)},
                    "_ptilde_rho": {(7, True), (4, True)}}
    assert abs(count_float(3, 14, 0) - exact) <= 1e-6 * exact
    # Gromov-Witten invariants whose insertions are all staircase classes
    assert trivial_bundle_number(3, 4, -14, 5, []) == trivial_bundle_number(3, 4, -6, 1, []) == 832
    staircase_only = GWQuery(7, 1, 7, ((6, 5, 4, 3, 2, 1),) * 4)
    assert gw_invariant(staircase_only) == gw_invariant(GWQuery(7, 1, 0, ())) == 64
    assert gw_invariant_float(staircase_only) == pytest.approx(64)
    assert quantum._tables.cache_info().currsize == 0


def test_prefactor_mismatch_raises_with_a_reason():
    counting._check_prefactor(3, 2, 0, 3, 1)
    with pytest.raises(NonIntegralResultError, match="closed form"):
        counting._check_prefactor(4, 2, 0, 3, 1)


def test_odd_rank_companion_degree_is_checked(monkeypatch):
    # the odd-rank plan reads its companion's through the module name
    real = counting._count_plan

    def shifted(genus, rank, ell):
        e0, *rest = real(genus, rank, ell)
        return (e0 + 2 if rank % 2 == 0 else e0, *rest)

    monkeypatch.setattr(counting, "_count_plan", shifted)
    with pytest.raises(NonIntegralResultError, match="companion extremal degree"):
        count(3, 3, 0)


def test_decimal_string_matches_str_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    rng = random.Random(5)
    for digits in (1, 9, limit, limit + 1, 3 * limit, 20000):
        for value in (10 ** digits, 10 ** digits - 1, rng.randrange(10 ** digits)):
            for sign in (1, -1):
                text = counting.decimal_string(sign * value)
                head = text.lstrip("-")
                assert head == "0" or not head.startswith("0")
                # str() and int() are capped alike: compare 1000 digits at a time
                pieces = [head[i:i + 1000] for i in range(0, len(head), 1000)]
                back = 0
                for piece in pieces:
                    back = back * 10 ** len(piece) + int(piece)
                assert (-back if text.startswith("-") else back) == sign * value
    assert counting.decimal_string(Fraction(-7, 3)) == "-7/3"
    assert counting.decimal_string(Fraction(8)) == "8"
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("rank", range(3, 17))
def test_every_count_is_the_full_point_sum(rank):
    # the orbit route against 2^exponent times the sum over all 2^(n-1) points
    n = rank // 2 if rank % 2 == 0 else (rank + 1) // 2
    checked = 0
    for genus in range(2, 10):
        for ell in range(4):
            if rank % 2 and ell % 2:
                continue
            report = count(genus, rank, ell)
            if not report.applicable:
                continue
            _e0, _n, exponent, rho_power, _keys = counting._count_plan(genus, 2 * n, ell)
            total = quantum.evaluation_sum(n, genus, (rho(n - 1),) * rho_power)
            full = Fraction(2) ** exponent * total.as_rational()
            assert report.value * (1 if rank % 2 == 0 else 2) == full, (genus, ell)
            checked += 1
    assert checked >= 6


# N(g = 3, rank 24, ell 0), a 25-digit count, as the sum over all 2^11 points
# gave it before the orbit route (about 70 s of CPU then).
RANK_24_SHA256 = "446cccf50625ee75ed042a2c8341f955122281132bb9fff4b9280a7b2cafc937"


def test_rank_24_count_is_pinned():
    report = count(3, 24, 0)
    assert hashlib.sha256(str(report.value).encode()).hexdigest() == RANK_24_SHA256
    assert report.decomposition["orbits"] == 15
    assert report.decomposition["points"] == 2048


def test_count_decomposition_names_the_orbits_and_the_points():
    for rank in (14, 13):
        decomposition = count(3, rank, 0).decomposition
        assert (decomposition["orbits"], decomposition["points"]) == (4, 64)
    assert count(3, 4, 0).decomposition["orbits"] == 1


# N(g = 3, rank, ell 0) and the orbit count, as the code before the direct
# orbit walk and the closed-form staircase square gave them (rank 30 took
# 4.6 s of CPU then, rank 34 43 s: both have staircase power 2).
PINNED_COUNTS = {
    30: (433397346834047701057431451748240719872, 65),
    32: (109800068673046095541945564979628853860237312, 184),
    34: (64912512615517762888337937932354788846963880099840, 136),
    36: (89605718800343599418802263727173784668731059942799179776, 261),
}


@pytest.mark.parametrize("rank", sorted(PINNED_COUNTS))
def test_counts_at_ranks_30_to_36_are_pinned(rank):
    report = count(3, rank, 0)
    assert (report.value, report.decomposition["orbits"]) == PINNED_COUNTS[rank]
    assert report.decomposition["points"] == 2 ** (rank // 2 - 1)


# N(g, rank, ell) at an odd staircase power past n = 15, which the Pfaffian
# recursion's budget refused before the sign route; at rank 32 the four
# values equal the ones with P~_rho from the recursion.  The other (g, ell)
# in {2, 3} x {1, 3} at ranks 34..38 are not applicable or not covered.
ODD_POWER_COUNTS = {
    (2, 32): 41075944744149633269760,
    (3, 32): 54886636005293527149196276369496209241407488,
    (2, 34): 32566389835575872903446528,
    (2, 36): 39389141247292758546568183808,
    (2, 38): 72708455327623272719574447947776,
    (2, 40): 204902652576613276624761189177491456,
    (3, 40): 1088905540126407651284720134390654135353888774642667820725919255887872,
}


@pytest.mark.parametrize("rank", range(32, 41, 2))
def test_counts_with_an_odd_staircase_power_are_pinned_to_rank_40(rank):
    for genus in (2, 3):
        for ell in (1, 3):
            report = count(genus, rank, ell)
            assert report.applicable == ((genus, rank) in ODD_POWER_COUNTS), (genus, ell)
            if report.applicable:
                assert report.value == ODD_POWER_COUNTS[genus, rank]
                assert report.decomposition["staircase_power"] % 2 == 1
                assert report.decomposition["sign_check_prime"] == quantum.sign_check_field(rank // 2)[0]


def _refuse(*args):
    raise AssertionError("the refused route ran")


def test_counts_past_the_size_budget_are_refused_before_anything_is_enumerated(monkeypatch):
    monkeypatch.setattr(quantum, "_orbits", _refuse)
    monkeypatch.setattr(quantum, "_point_table", _refuse)
    n = counting.EXACT_MAX_N + 1
    for call in (lambda: count(3, 2 * n, 0), lambda: count(3, 2 * n - 1, 0),
                 lambda: n_tilde(NQuery(3, n, 0, -2))):
        with pytest.raises(counting.SizeBudgetError, match=f"of the exact route, n <= {n - 1}"):
            call()
    n = counting.FLOAT_MAX_N + 1
    for call in (lambda: count_float(3, 2 * n, 0), lambda: count_float(3, 2 * n - 1, 0),
                 lambda: n_tilde_float(NQuery(3, n, 0, -2))):
        with pytest.raises(counting.SizeBudgetError, match=f"of the float route, n <= {n - 1}"):
            call()


def test_counts_at_a_huge_rank_are_refused_before_the_staircase_is_built(monkeypatch):
    # the staircase partition has n - 1 parts, so the cap comes first
    monkeypatch.setattr(counting.partitions, "rho", _refuse)
    n = 10 ** 30
    query = NQuery(3, n, 0, -2)
    for call in (lambda: count(3, 2 * n, 0), lambda: count(3, 2 * n - 1, 0), lambda: n_tilde(query),
                 lambda: count_float(3, 2 * n, 0), lambda: count_float(3, 2 * n - 1, 0),
                 lambda: n_tilde_float(query)):
        with pytest.raises(counting.SizeBudgetError, match=f"n = {n} is past the size budget"):
            call()


def test_the_exact_routes_build_no_point_and_no_root_of_unity(monkeypatch, tmp_path, capsys):
    # the rows come from the residues, so with the caches cleared no
    # EvalPoint and no CycloNum root of unity is built
    for cached in (quantum._orbits, quantum._point_table, quantum._ptilde_rho,
                   quantum.orbit_trace, quantum.structure_table):
        cached.cache_clear()
    for module, name in ((quantum, "eval_points"), (quantum, "root_of_unity"), (cyclotomic, "root_of_unity")):
        monkeypatch.setattr(module, name, _refuse)
    assert count(3, 14, 0).value == 388628480
    assert n_tilde(NQuery(2, 3, 0, -4, 0, ptilde_alpha((2,), 2) * ptilde_alpha((2, 1), 2))) == 16
    assert cli.main(["table", "--n", "6", "--format", "json", "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("{")


def test_even_staircase_powers_run_the_sign_route_and_no_pfaffian_recursion(monkeypatch):
    # rank 30 and rank 22 at ell 0 have staircase power 2: the exact route
    # reads each factor by its sign, one Pfaffian mod p per representative,
    # and the float route a complex Pfaffian per point, never the recursion
    assert counting._count_plan(3, 30, 0)[3] == counting._count_plan(3, 22, 0)[3] == 2
    for cached in (quantum._ptilde_rho, quantum._float_tables, quantum._tables, quantum.orbit_trace):
        cached.cache_clear()
    for module in (symfunc, quantum):
        monkeypatch.setattr(module, "_int_ptilde", _refuse)
    assert count(3, 30, 0).value == PINNED_COUNTS[30][0]
    assert count_float(3, 22, 0) == pytest.approx(count(3, 22, 0).value, rel=1e-9)
    assert quantum._ptilde_rho.cache_info().currsize == 2
    assert quantum._tables.cache_info().currsize == 0


def test_a_wrong_staircase_root_is_a_failed_proof(monkeypatch, capsys):
    # rank 8 at ell 1 has staircase power 3: with r off by a factor 3 the
    # Pfaffian mod p is neither r nor -r, and the CLI exits 1
    real = quantum._staircase_root
    monkeypatch.setattr(quantum, "_staircase_root", lambda m, unit: [3 * c for c in real(m, unit)])
    for cached in (quantum._ptilde_rho, quantum.orbit_trace):
        cached.cache_clear()
    with pytest.raises(quantum.StaircaseSignError, match="neither r nor -r"):
        count(3, 8, 1)
    assert cli.main(["count", "--g", "3", "--rank", "8", "--ell", "1"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "verification_failure"


def test_odd_staircase_powers_run_no_pfaffian_recursion(monkeypatch):
    # genus 2: rank 14 at ell 1 needs n(g - 1 - ell) even, and g = 3 is not applicable
    assert not count(3, 14, 1).applicable
    assert counting._count_plan(2, 14, 1)[3] == 3
    for cached in (quantum._ptilde_rho, quantum._float_tables, quantum._tables, quantum.orbit_trace):
        cached.cache_clear()
    for module in (symfunc, quantum):
        monkeypatch.setattr(module, "_int_ptilde", _refuse)
    assert count(2, 14, 1).value == 54272
    assert count_float(2, 14, 1) == pytest.approx(54272, rel=1e-9)
    assert quantum._tables.cache_info().currsize == 0


def test_a_cold_float_count_and_n_tilde_read_nothing_of_the_exact_route():
    # the independence guard for the counts: the float sums, a staircase
    # factor and an integrand included, build no exact row, table, staircase
    # sign, S_rho power or orbit, at the points or at the orbits
    exact_caches = (quantum._point_table, quantum._tables, quantum._ptilde_rho, quantum._schur_powers,
                    quantum._orbits)
    for cached in exact_caches + (quantum._schur_power,):
        cached.cache_clear()
    assert count_float(2, 14, 1) == pytest.approx(54272, rel=1e-9)
    assert n_tilde_float(NQuery(3, 3, 0, -6, 2, parse_alpha_poly("a1^2 + a1 + 3"))) == pytest.approx(192, rel=1e-9)
    assert [cached.cache_info().currsize for cached in exact_caches] == [0] * 5
    assert not quantum._powers


@pytest.mark.parametrize("n", range(2, 13))
def test_the_float_route_reads_the_same_staircase_sign(n):
    # staircase power 3: one P~_rho factor, exact by its sign mod p, float by
    # a complex Pfaffian
    assert counting._count_plan(2, 2 * n, 1)[3] == 3
    exact = count(2, 2 * n, 1).value
    assert count_float(2, 2 * n, 1) == pytest.approx(exact, rel=1e-8)


def test_a_wrong_staircase_root_fails_an_even_power_count(monkeypatch, capsys):
    # rank 14 at ell 0 has staircase power 2: each factor is read by its sign,
    # so a wrong r is caught here too, and the CLI exits 1
    assert counting._count_plan(3, 14, 0)[3] == 2
    real = quantum._staircase_root
    monkeypatch.setattr(quantum, "_staircase_root", lambda m, unit: [3 * c for c in real(m, unit)])
    for cached in (quantum._ptilde_rho, quantum.orbit_trace):
        cached.cache_clear()
    with pytest.raises(quantum.StaircaseSignError, match="neither r nor -r"):
        count(3, 14, 0)
    assert cli.main(["count", "--g", "3", "--rank", "14", "--ell", "0"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "verification_failure"


def test_an_answer_names_the_prime_its_own_sum_checked():
    # the exact route reads P~_rho by its sign mod p: an odd staircase power
    # on the expected weight, or a_1 = P~_rho at n = 2; the float route reads none
    staircase = NQuery(2, 7, 1, 0)
    assert counting.n_tilde_answer(staircase) == (54272, 73)
    assert counting.n_tilde_answer(staircase, exact=False) == (pytest.approx(54272), None)
    assert counting.n_tilde_answer(NQuery(3, 2, 0, -4, 0, parse_alpha_poly("a1^2"))) == (
        8, quantum.sign_check_field(2)[0])
    assert counting.n_tilde_answer(NQuery(3, 2, 0, -2)).sign_check_prime is None
    # no term on the expected weight: nothing is summed and no prime read
    assert counting.n_tilde_answer(NQuery(9, 2, 1, -12, 2, parse_alpha_poly("2*a3"))) == (0, None)
    query = GWQuery(3, 1, 3, ((2, 1),) * 4)
    assert quantum.gw_answer(query) == (gw_invariant(query), 17)
    assert quantum.gw_answer(query, exact=False) == (gw_invariant_float(query), None)
    # off the weight condition the invariant is 0 on both routes, with no sum
    assert quantum.gw_answer(GWQuery(3, 1, 0, ((2, 1), (1,)))) == (0, None)
    assert quantum.gw_answer(GWQuery(3, 1, 0, ((2, 1), (1,))), exact=False) == (0.0, None)


def test_a_float_count_is_an_answer_with_no_prime_and_an_exact_one_a_report():
    # the float route returns the record gw and ntilde return there; the
    # exact route the report count returns; a parity verdict raises on both
    exact = counting.count_answer(3, 14, 0)
    assert exact == count(3, 14, 0) and type(exact) is CountReport
    approx = counting.count_answer(3, 14, 0, exact=False)
    assert type(approx) is quantum.Answer and approx == (pytest.approx(exact.value, rel=1e-9), None)
    for route in (True, False):
        with pytest.raises(NotApplicableError):
            counting.count_answer(4, 6, 0, exact=route)
        with pytest.raises(NotCoveredError):
            counting.count_answer(2, 4, 0, exact=route)


def test_the_report_names_the_check_prime_for_any_staircase_power():
    assert count(2, 32, 1).to_json_dict()["decomposition"]["sign_check_prime"] == 61
    assert count(3, 14, 0).to_json_dict()["decomposition"]["sign_check_prime"] == 73
    even = count(3, 32, 0).to_json_dict()["decomposition"]
    assert even["staircase_power"] == 0 and "sign_check_prime" not in even


def test_an_odd_rank_count_names_its_companions_check_prime():
    # rank 13 is half of rank 14, whose staircase power 2 read P~_rho mod 73
    odd = count(3, 13, 0).to_json_dict()["decomposition"]
    assert odd["companion_rank"] == 14 and odd["sign_check_prime"] == quantum.sign_check_field(7)[0] == 73
    assert "sign_check_prime" not in count(3, 3, 0).decomposition


def test_one_power_of_s_rho_serves_every_ell_at_an_n_and_genus(monkeypatch):
    # rank 16 at genus 4 has staircase powers 0, 3, 2, 1 for ell 0..3, and all
    # four read S_rho^3 at the representatives from one store entry
    assert [counting._count_plan(4, 16, ell)[3] for ell in range(4)] == [0, 3, 2, 1]
    quantum.orbit_trace.cache_clear()
    count(4, 16, 0)
    assert list(quantum._powers) == [(8, True, 2), (8, True, 3)]
    calls = []
    real = quantum.int_mul
    monkeypatch.setattr(quantum, "int_mul", lambda *args: calls.append(args) or real(*args))
    values = [count(4, 16, ell).value for ell in (1, 2, 3)]
    # only the duals multiply, each staircase factor like any class: 2, 1 and
    # 0 products per representative for 3, 2 and 1 factors
    assert len(calls) == 3 * quantum.orbit_count(8) and list(quantum._powers) == [(8, True, 2), (8, True, 3)]
    # from the kept square S_rho^2 alone, S_rho^3 is one multiply per representative
    quantum._schur_power.cache_clear()
    quantum.orbit_trace(8, 3)
    assert list(quantum._powers) == [(8, True, 2)]
    calls.clear()
    assert count(4, 16, 2).value == values[1]
    assert len(calls) == quantum.orbit_count(8)
    quantum.orbit_trace.cache_clear()
    assert not quantum._powers and quantum._held_bits == quantum._orbit_duals.cache_info().currsize == 0


def test_the_squares_count_against_the_power_budget(monkeypatch):
    # the squares S_rho^(2^k) past S_rho are entries of the one power store:
    # held within the same POWER_CACHE_BITS and in the same least recently
    # used order as every other power, so a tight bound drops the oldest
    # entry, a square or not (the squares no longer go first as a whole);
    # and a square dropped within a call is not built again in it
    quantum.orbit_trace.cache_clear()
    calls = []
    real = quantum.int_mul
    monkeypatch.setattr(quantum, "int_mul", lambda *args: calls.append(args) or real(*args))
    large = count(399, 14, 0).value
    # 398 has 9 bits, 5 of them set: one dual product, 8 squares and 4
    # products per representative
    assert len(calls) == (1 + 8 + 4) * quantum.orbit_count(7)
    power, squares = (7, True, 398), [(7, True, 1 << j) for j in range(1, 9)]
    assert list(quantum._powers) == squares + [power]
    bits = {key: kept for key, (_rows, kept) in quantum._powers.items()}
    # an entry counts its coefficients' and its denominators' bits
    assert all(kept == sum(map(int.bit_length, dens)) + sum(c.bit_length() for b in vectors for c in b)
               for (vectors, dens), kept in quantum._powers.values())
    total = quantum._held_bits
    assert total == sum(bits.values()) and sum(bits[key] for key in squares) > bits[power]
    for bound, kept in ((total, squares + [power]), (total - 1, squares[1:] + [power]), (bits[power], [power])):
        quantum.orbit_trace.cache_clear()
        calls.clear()
        monkeypatch.setattr(quantum, "POWER_CACHE_BITS", bound)
        assert count(399, 14, 0).value == large
        assert len(calls) == 13 * quantum.orbit_count(7)
        assert list(quantum._powers) == kept and quantum._held_bits == sum(bits[key] for key in kept)


def test_the_kept_powers_are_bounded_by_their_bits(monkeypatch):
    # a power past POWER_CACHE_BITS is used and not kept, and evicts nothing;
    # past POWER_CACHE_KEYS the least recently used go, a hit making an entry
    # the most recently used; cache_clear empties the store
    quantum.orbit_trace.cache_clear()
    large = count(399, 14, 0).value
    monkeypatch.setattr(quantum, "POWER_CACHE_BITS", quantum._powers[7, True, 398][1] - 1)
    quantum.orbit_trace.cache_clear()
    # the squares to S_rho^256 alone, built and kept as count(399, 14, 0) builds them
    quantum.orbit_trace(7, 257)
    squares, held = dict(quantum._powers), quantum._held_bits
    assert squares and held <= quantum.POWER_CACHE_BITS
    quantum.orbit_trace.cache_clear()
    assert count(399, 14, 0).value == large
    assert list(quantum._powers.items()) == list(squares.items()) and quantum._held_bits == held
    # by keys: rank 14, 12 and 10 at genus 3 each read one square, S_rho^2 at
    # n = 7, 6 and 5; the hit at n = 7 saves it from the eviction at n = 5
    monkeypatch.setattr(quantum, "POWER_CACHE_BITS", 1 << 25)
    monkeypatch.setattr(quantum, "POWER_CACHE_KEYS", 2)
    quantum.orbit_trace.cache_clear()
    count(3, 14, 0), count(3, 12, 0), count(3, 14, 0), count(3, 10, 0)
    assert list(quantum._powers) == [(7, True, 2), (5, True, 2)]
    assert quantum._held_bits == sum(kept for _rows, kept in quantum._powers.values())
    quantum.orbit_trace.cache_clear()
    assert not quantum._powers and quantum._held_bits == 0
