"""The package's value records: the queries, table entries, evaluation
points, integrand polynomials, quantum elements and count reports.  Each
compares by its fields; the immutable ones hash by them too, so equal
queries share a cache entry.  Each prints as Name(field=value, ...), the
text error messages and answer hashes are made of.  The queries' checks and
messages are pinned beside gw_invariant's and n_tilde's own tests, and
CycloNum's equality and hash beside its arithmetic."""

from fractions import Fraction
from functools import lru_cache

import pytest

from ogq.counting import CountReport, NQuery
from ogq.quantum import EvalPoint, GWQuery, QuantumElement, TableEntry, eval_points
from ogq.symfunc import AlphaPolynomial, parse_alpha_poly


def test_equal_queries_are_equal_hash_equal_and_share_a_cache_entry():
    @lru_cache(maxsize=None)
    def answer(query):
        return object()

    pairs = [
        (GWQuery(3, 1, 2, [[2, 1], (1,)]), GWQuery(3, 1, 2, ((2, 1), (1,)))),
        (NQuery(3, 2, 0, -2), NQuery(3, 2, 0, -2, 0, AlphaPolynomial.one())),
        (NQuery(3, 3, 1, -4, 1, parse_alpha_poly("2*a2 + a1^2")),
         NQuery(3, 3, 1, -4, 1, parse_alpha_poly("a1^2 + 2*a2"))),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
        assert answer(a) is answer(b)
    assert answer.cache_info().hits == len(pairs) and answer.cache_info().misses == len(pairs)
    assert GWQuery(3, 1, 2, ((1,), (2, 1))) != GWQuery(3, 1, 2, ((2, 1), (1,)))
    assert NQuery(3, 2, 0, -2) != NQuery(3, 2, 0, -2, 1)


def test_the_reprs_name_every_field():
    # NonIntegralResultError's text prints the query; scripts/growth.py
    # hashes the structure table's entries by their repr
    assert repr(GWQuery(3, 1, 2, [[2, 1], (1,)])) == "GWQuery(n=3, genus=1, degree=2, insertions=((2, 1), (1,)))"
    assert repr(TableEntry((1,), (1,), (), 1, 2)) == "TableEntry(lam=(1,), mu=(1,), nu=(), d=1, c=2)"
    assert repr(NQuery(3, 2, 0, -2)) == ("NQuery(genus=3, n=2, ell=0, e=-2, u=0, "
                                         "q_poly=AlphaPolynomial(terms=(((), Fraction(1, 1)),)))")


def test_an_n_query_defaults_to_no_insertions_and_the_integrand_one():
    query = NQuery(3, 2, 0, -2)
    assert query.u == 0 and query.q_poly == AlphaPolynomial.one() and str(query.q_poly) == "1"


def test_the_immutable_records_refuse_assignment():
    point = eval_points(2)[0]
    records = [(GWQuery(2, 0, 1, ((1,),)), "degree"), (NQuery(3, 2, 0, -2), "u"),
               (TableEntry((1,), (1,), (), 1, 2), "c"), (point, "doubled"),
               (AlphaPolynomial.one(), "terms")]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert EvalPoint(point.doubled, point.point) == point
    assert hash(EvalPoint(point.doubled, point.point)) == hash(point)


def test_count_reports_compare_by_fields_and_each_owns_its_notes():
    a, b = CountReport(3, 6, 0, -4, True), CountReport(3, 6, 0, -4, True)
    # notes default to an empty tuple, so no two reports share a list to append to
    assert a == b and a.notes == () and type(a.notes) is tuple
    assert a == CountReport(3, 6, 0, -4, True, notes=()) != CountReport(3, 6, 0, -4, True, notes=("checked",))
    assert a != CountReport(3, 6, 0, -4, True, value=1)
    with pytest.raises(TypeError):
        hash(a)
    assert repr(b) == ("CountReport(genus=3, rank=6, ell=0, e0=-4, applicable=True, value=None, "
                       "required_w2=None, reason=None, decomposition=None, notes=())")


def test_quantum_elements_compare_by_their_cleaned_terms():
    a = QuantumElement({((2, 1), 0): Fraction(4, 2), ((1,), 1): 0})
    assert a.terms == {((2, 1), 0): 2} and type(a.terms[((2, 1), 0)]) is int
    assert a == QuantumElement({((2, 1), 0): 2}) and a != QuantumElement({((2, 1), 0): 3})
    with pytest.raises(TypeError):
        hash(a)
    assert repr(a) == "QuantumElement(terms={((2, 1), 0): 2})"
