"""Evaluation tuples, the closed invariant formula, the quantum product and
its structure table, and the Frobenius-algebra trace route."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from ogq.cyclotomic import CycloNum, field_degree, int_mul, root_of_unity
from ogq.partitions import InvalidPartitionError, all_strict, dual, rho, weight
from ogq.quantum import (
    GWQuery,
    GenusTooSmallError,
    NegativeDegreeError,
    QuantumElement,
    TableEntry,
    UnsupportedRankError,
    admissible_degree,
    degree_ok,
    euler_class,
    eval_points,
    genus_recursion_check,
    gw_invariant,
    gw_invariant_float,
    quantum_product,
    session_order,
    structure_table,
    table_json_dict,
    three_point,
    trace_invariant,
)
from ogq import cli, counting, quantum
from ogq.symfunc import _int_ptilde, _ptilde_from_elem, elementary_values, ptilde_alpha, ptilde_value, schur_value


def test_session_order():
    assert session_order(2) == 4
    assert session_order(4) == 12


def test_eval_points_m1():
    pts = eval_points(1)
    assert len(pts) == 2
    assert {ep.doubled for ep in pts} == {(0,), (2,)}
    values = {ep.point[0] for ep in pts}
    assert values == {root_of_unity(4, 0), root_of_unity(4, 2)}
    assert root_of_unity(4, 2) == -1


def _brute_force_tuples(m):
    # exhaustive filter over all m-subsets of the window: no two chosen
    # exponents may be antipodal, i.e. differ by 2m in doubled units mod 4m
    window = [-m + 1 + 2 * i for i in range(2 * m)]
    out = set()
    for combo in itertools.combinations(window, m):
        if any(
            (a - b) % (4 * m) == 2 * m
            for a, b in itertools.permutations(combo, 2)
        ):
            continue
        out.add(tuple(sorted(combo)))
    return out


@pytest.mark.parametrize("m", range(1, 7))
def test_eval_points_match_the_exhaustive_filter(m):
    pts = eval_points(m)
    assert len(pts) == 2 ** m
    got = {ep.doubled for ep in pts}
    assert got == _brute_force_tuples(m)
    order = 4 * m
    for ep in pts:
        assert ep.point == tuple(root_of_unity(order, t) for t in ep.doubled)


def test_degree_condition_examples():
    assert degree_ok(GWQuery(2, 0, 1, ((1,), (1,), (1,))))
    assert degree_ok(GWQuery(2, 0, 0, ((1,),)))
    assert not degree_ok(GWQuery(3, 0, 0, ((1,),)))
    assert admissible_degree(2, 0, ((1,), (1,), (1,))) == 1
    assert admissible_degree(3, 0, ((1,),)) is None
    assert admissible_degree(5, 0, ((2,),)) is None  # excess -8 would give d = -1
    assert admissible_degree(3, 0, ((2, 1), (2, 1))) is None  # excess 3 is not a multiple of 4
    assert admissible_degree(3, 1, ((2, 1), (2, 1), (1,), (1,))) == 2


def test_projective_line_oracle():
    assert gw_invariant(GWQuery(2, 0, 1, ((1,), (1,), (1,)))) == 1


def test_projective_three_space_oracles():
    # OG(3)_0 is P^3 with tau_1 = h, tau_2 = h^2, tau_21 = h^3
    assert three_point(3, (1,), (1,), (2,), 0) == 1
    assert gw_invariant(GWQuery(3, 0, 1, ((1,), (2, 1), (2, 1)))) == 1


# OG(2)_0 = P^1 and OG(3)_0 = P^3, r = 1 and 3, with tau_1 = H and
# QH(P^r) = Z[H, q]/(H^(r+1) - q): <tau_1^k>_(g,d) is the sum over the
# (r+1)-th roots of unity z of z^k ((r+1) z^r)^(g-1), that is (r+1)^g when
# r+1 divides k + r(g-1) and 0 otherwise, with no evaluation point.
P_R_CASES = [(n, g, d) for n, r in ((2, 1), (3, 3)) for g in range(5) for d in range(4)
             if r * (1 - g) + (r + 1) * d >= 0]


@pytest.mark.parametrize("n,genus,d", P_R_CASES)
def test_projective_space_closed_form_at_every_genus(n, genus, d):
    r = n * (n - 1) // 2
    k = r * (1 - genus) + (r + 1) * d  # the one k with degree d admissible
    assert (k + r * (genus - 1)) % (r + 1) == 0
    assert gw_invariant(GWQuery(n, genus, d, ((1,),) * k)) == (r + 1) ** genus
    assert gw_invariant(GWQuery(n, genus, d, ((1,),) * (k + 1))) == 0


def test_degree_violating_query_is_zero():
    assert gw_invariant(GWQuery(3, 0, 0, ((1,),))) == 0
    assert gw_invariant(GWQuery(2, 2, 5, ())) == 0


def test_closed_higher_genus_value_on_og2():
    # two evaluation points 1 and -1; S = x, so the d=1 genus-3 sum is
    # 4 * (1^2 + (-1)^2) = 8
    assert gw_invariant(GWQuery(2, 3, 1, ())) == 8


def test_gw_rejects_bad_queries():
    with pytest.raises(UnsupportedRankError, match=r"^n must be >= 2, got 1$"):
        GWQuery(1, 0, 0, ())
    with pytest.raises(ValueError, match=r"^genus must be >= 0, got -1$"):
        GWQuery(2, -1, 0, ())
    with pytest.raises(NegativeDegreeError, match=r"^degree must be >= 0, got -1$"):
        GWQuery(2, 0, -1, ())
    with pytest.raises(InvalidPartitionError, match=r"^\(2,\) is not a strict partition with parts <= 1$"):
        GWQuery(2, 0, 0, ((2,),))
    # the checks run in field order: the first bad field names the error
    with pytest.raises(UnsupportedRankError):
        GWQuery(1, -1, -1, ((9,),))
    with pytest.raises(NegativeDegreeError):
        GWQuery(2, 0, -1, ((9,),))


PERMUTATION_QUERIES = [
    (2, 0, 1, ((1,), (1,), (1,))),
    (3, 0, 1, ((1,), (2, 1), (2, 1))),
    (4, 1, 2, ((3, 2, 1), (3, 2, 1))),
    (5, 1, 2, ((4, 3, 2, 1), (3, 2, 1))),
]


@pytest.mark.parametrize("n,genus,d,ins", PERMUTATION_QUERIES)
def test_invariant_under_insertion_permutations(n, genus, d, ins):
    rng = random.Random(n)
    base = gw_invariant(GWQuery(n, genus, d, ins))
    for _ in range(50):
        perm = list(ins)
        rng.shuffle(perm)
        assert gw_invariant(GWQuery(n, genus, d, tuple(perm))) == base


def test_sampled_invariants_are_nonnegative_integers():
    rng = random.Random(2026)
    for _ in range(30):
        n = rng.randint(2, 4)
        basis = all_strict(n - 1)
        genus = rng.randint(0, 3)
        ins = tuple(rng.choice(basis) for _ in range(rng.randint(0, 4)))
        d = rng.randint(0, 2)
        value = gw_invariant(GWQuery(n, genus, d, ins))
        assert isinstance(value, int) and value >= 0


def test_structure_table_n2_exactly():
    assert structure_table(2) == (
        TableEntry((), (), (), 0, 1),
        TableEntry((), (1,), (1,), 0, 1),
        TableEntry((1,), (), (1,), 0, 1),
        TableEntry((1,), (1,), (), 1, 1),
    )


def test_structure_table_n3_spot_values():
    product = {
        ((1,), (1,)): [((2,), 0, 1)],
        ((2,), (2,)): [((), 1, 1)],
        ((1,), (2,)): [((2, 1), 0, 1)],
        ((1,), (2, 1)): [((), 1, 1)],
    }
    table = structure_table(3)
    for (lam, mu), want in product.items():
        got = [(e.nu, e.d, e.c) for e in table if e.lam == lam and e.mu == mu]
        assert got == want, (lam, mu)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_structure_constants_are_positive_integers(n):
    for e in structure_table(n):
        assert isinstance(e.c, int)
        assert e.c >= 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_q_grading_of_structure_constants(n):
    for e in structure_table(n):
        assert weight(e.nu) + 2 * (n - 1) * e.d == weight(e.lam) + weight(e.mu)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_empty_partition_is_the_unit(n):
    unit = QuantumElement.basis(())
    for lam in all_strict(n - 1):
        x = QuantumElement.basis(lam)
        assert quantum_product(n, unit, x) == x
        assert quantum_product(n, x, unit) == x


@pytest.mark.parametrize("n", [3, 4])
def test_quantum_product_is_commutative(n):
    basis = all_strict(n - 1)
    for lam, mu in itertools.combinations(basis, 2):
        a, b = QuantumElement.basis(lam), QuantumElement.basis(mu)
        assert quantum_product(n, a, b) == quantum_product(n, b, a)


def test_quantum_product_examples():
    q_unit = QuantumElement.basis((), 1)
    t1 = QuantumElement.basis((1,))
    assert quantum_product(2, t1, t1) == q_unit
    t21 = QuantumElement.basis((2, 1))
    assert quantum_product(3, t1, t21) == q_unit
    got = quantum_product(3, t1, t1)
    assert got == QuantumElement.basis((2,))


def test_quantum_product_is_bilinear():
    t1 = QuantumElement.basis((1,))
    t2 = QuantumElement.basis((2,))
    mixed = t1.scale(2) + t2
    left = quantum_product(3, mixed, t1)
    want = quantum_product(3, t1, t1).scale(2) + quantum_product(3, t2, t1)
    assert left == want


@pytest.mark.parametrize("bad", [(3,), (1, 2)])
def test_quantum_product_refuses_a_class_off_the_basis(bad):
    # (3,) has a part past n - 1 = 2; (1, 2) is (2, 1) written out of order
    for a, b in ((bad, (1,)), ((1,), bad)):
        with pytest.raises(InvalidPartitionError):
            quantum_product(3, QuantumElement.basis(a), QuantumElement.basis(b))


def _int_coefficients(x):
    return all(type(c) is int for c in x.terms.values())


def test_the_ring_stays_on_ints():
    for n in range(2, 6):
        basis = all_strict(n - 1)
        for lam, mu in itertools.product(basis, repeat=2):
            assert _int_coefficients(quantum_product(n, QuantumElement.basis(lam), QuantumElement.basis(mu)))
    for n in range(2, 7):
        assert _int_coefficients(euler_class(n))
    half = QuantumElement.basis((1,)).scale(Fraction(1, 2))
    assert [type(c) for c in half.terms.values()] == [Fraction]
    assert _int_coefficients(half.scale(2)) and _int_coefficients(QuantumElement.basis((1,)).scale(3))


def test_associativity_spot_checks():
    for n in (2, 3):
        basis = all_strict(n - 1)
        for a, b, c in itertools.product(basis, repeat=3):
            ea, eb, ec = (QuantumElement.basis(x) for x in (a, b, c))
            assert quantum_product(n, quantum_product(n, ea, eb), ec) == quantum_product(
                n, ea, quantum_product(n, eb, ec)
            )


def test_euler_class_values():
    e2 = euler_class(2)
    assert e2 == QuantumElement.basis((1,)).scale(2)
    e3 = euler_class(3)
    assert e3 == QuantumElement.basis((2, 1)).scale(4)


def test_euler_class_matches_its_definition():
    for n in (2, 3, 4):
        m = n - 1
        total = QuantumElement.zero()
        for nu in all_strict(m):
            prod = quantum_product(
                n, QuantumElement.basis(nu), QuantumElement.basis(dual(nu, m))
            )
            for (lam, _d), c in prod.terms.items():
                total = total + QuantumElement({(lam, 0): c})
        assert euler_class(n) == total


def test_trace_route_needs_positive_genus():
    with pytest.raises(GenusTooSmallError):
        trace_invariant(GWQuery(2, 0, 1, ((1,), (1,), (1,))))


def test_trace_route_zero_on_degree_violation():
    assert trace_invariant(GWQuery(2, 2, 5, ())) == 0


def test_trace_route_hand_values_on_og2():
    # genus 1, d = 1, two point insertions: 4 * (1/4 + 1/4) = 2
    q = GWQuery(2, 1, 1, ((1,), (1,)))
    assert gw_invariant(q) == 2
    assert trace_invariant(q) == 2
    # genus 2, d = 1, one point insertion: 4 * (1/2 + 1/2) = 4
    q = GWQuery(2, 2, 1, ((1,),))
    assert gw_invariant(q) == 4
    assert trace_invariant(q) == 4
    # genus 3, d = 1, closed
    q = GWQuery(2, 3, 1, ())
    assert trace_invariant(q) == 8


def test_trace_route_og3_sample():
    q = GWQuery(3, 2, 2, ((2,), (2, 1)))
    assert degree_ok(q)
    assert trace_invariant(q) == gw_invariant(q)


def test_trace_route_matches_the_direct_sum_at_n5_to_n7():
    # verify's trace suite stops at n = 4 and genus 3
    for n, lowest_genus in ((5, 4), (6, 1), (7, 1)):
        rng = random.Random(n)
        basis = all_strict(n - 1)
        checked = 0
        while checked < 12:
            genus = rng.randint(lowest_genus, 6)
            ins = tuple(rng.choice(basis) for _ in range(rng.randint(0, 4)))
            d = admissible_degree(n, genus, ins)
            if d is None:
                continue
            q = GWQuery(n, genus, d, ins)
            assert trace_invariant(q) == gw_invariant(q), q
            checked += 1


def test_genus_recursion_examples():
    assert genus_recursion_check(2, 3, 1, (), 0)
    assert genus_recursion_check(2, 3, 1, (), 1)
    assert genus_recursion_check(3, 1, 1, ((2, 1), (1,)), 1)
    assert gw_invariant(GWQuery(2, 3, 1, ())) == gw_invariant(
        GWQuery(2, 3, 3, ((1,),) * 4)
    )
    with pytest.raises(ValueError):
        genus_recursion_check(2, 3, 1, (), -1)


def test_three_point_matches_the_table():
    for e in structure_table(3):
        assert three_point(3, e.lam, e.mu, e.nu, e.d) == e.c


def test_table_json_document():
    doc = table_json_dict(2)
    assert doc["schema"] == "ogq-table/1"
    assert doc["n"] == 2
    assert doc["max_d"] is None
    assert doc["entries"] == [
        {"lambda": "", "mu": "", "nu": "", "d": 0, "c": "1"},
        {"lambda": "", "mu": "1", "nu": "1", "d": 0, "c": "1"},
        {"lambda": "1", "mu": "", "nu": "1", "d": 0, "c": "1"},
        {"lambda": "1", "mu": "1", "nu": "", "d": 1, "c": "1"},
    ]
    assert all(isinstance(e["c"], str) for e in doc["entries"])


def test_table_max_d_truncates():
    full = structure_table(3)
    trimmed = structure_table(3, 0)
    assert set(trimmed) == {e for e in full if e.d == 0}


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("max_d", [0, 1, 2])
def test_table_max_d_filters_the_full_table(n, max_d):
    assert structure_table(n, max_d) == tuple(e for e in structure_table(n) if e.d <= max_d)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_structure_table_matches_three_point_entrywise(n):
    # The reference sums each ordered (lam, mu, nu, d) on its own through
    # gw_invariant, with no use of the symmetry or of the fused dot.
    m = n - 1
    basis = all_strict(m)
    reference = []
    for lam in basis:
        for mu in basis:
            for nu in basis:
                excess = weight(lam) + weight(mu) - weight(nu)
                if excess < 0 or excess % (2 * m):
                    continue
                d = excess // (2 * m)
                c = three_point(n, lam, mu, nu, d)
                if c:
                    reference.append(TableEntry(lam, mu, nu, d, c))
    reference.sort(key=lambda e: (e.lam, e.mu, e.d, e.nu))
    assert structure_table(n) == tuple(reference)


# SHA-256 of `ogq table --n k --format json`: k = 2..6 as recorded in
# perfbench/reference.json, k = 7 as computed by the Fraction-based Pfaffian
# build that the integer build replaced, k = 8 as written by the walk over all
# index triples that the admissible walk replaced.
TABLE_SHA256 = {
    2: "b0336b9fa3c04263a55f204045aadd31008b13613dbaa1544081a3070014570b",
    3: "05c08367c10af692121357d90e48e8ade2cb70c5bda6ba99e489ab648ea66808",
    4: "d7977799eb6863225b696a60e117676cbf589958c1a4cb2934606ba14a38d5a4",
    5: "525f3a116d28c2500cca4244f75c3d4419d09c4a33c5d0c7ca3bd694f2e6ed40",
    6: "c2ed502c7c3bcea725258502fd330266de5cbf5abe73823367993196f8ad04ee",
    7: "c2f8d4685c15f61b56761edfdc73061bf3bd2948f4f834601edb3942436adbe9",
    8: "9e90d4568b3f4a942cdfafd6d70212d4b8e75d9998efbdf03628ffcab91fe307",
}


@pytest.mark.parametrize("n", sorted(TABLE_SHA256))
def test_table_json_bytes_are_unchanged(n):
    payload = cli._table_bytes(n, None, quantum.table_rows(n))
    assert hashlib.sha256(payload).hexdigest() == TABLE_SHA256[n]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("max_d", [None, 0, 1])
def test_table_bytes_equal_the_json_encoder(n, max_d):
    doc = table_json_dict(n, max_d)
    payload = cli._table_bytes(n, max_d, quantum.table_rows(n, max_d))
    assert payload == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def test_table_bytes_of_a_document_with_no_entries():
    doc = {"schema": "ogq-table/1", "n": 9, "max_d": 0, "entries": []}
    assert cli._table_bytes(9, 0, ()) == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_table_rows_index_the_basis_as_the_entries_do(n):
    basis = all_strict(n - 1)
    rows = quantum.table_rows(n)
    assert all(type(x) is int for row in rows for x in row)
    assert tuple(TableEntry(basis[i], basis[j], basis[k], d, c) for i, j, d, k, c in rows) == structure_table(n)
    assert quantum.table_rows(n, 0) == tuple(row for row in rows if row[2] == 0)


@pytest.mark.parametrize("skew", [lambda v: v + Fraction(1, 3), lambda v: -v])
def test_every_three_point_number_is_checked_to_be_a_count(skew, monkeypatch):
    fused = quantum.fused_dot

    def skewed(*args, **kwargs):
        dot = fused(*args, **kwargs)
        return lambda *which: skew(dot(*which))

    monkeypatch.setattr(quantum, "fused_dot", skewed)
    quantum._structure_table.cache_clear()
    with pytest.raises(quantum.NonIntegralResultError, match="three-point"):
        quantum._structure_table(3)


# Dots the structure table takes per n: one per unordered index triple of
# admissible weight.
TABLE_DOTS = {2: 2, 3: 5, 4: 21, 5: 100, 6: 590, 7: 3765}


@pytest.mark.parametrize("n", sorted(TABLE_DOTS))
def test_the_table_dots_exactly_the_admissible_triples(n, monkeypatch):
    calls = []
    fused = quantum.fused_dot

    def recording(*args, **kwargs):
        dot = fused(*args, **kwargs)

        def record(*which):
            calls.append(which)
            return dot(*which)
        return record

    monkeypatch.setattr(quantum, "fused_dot", recording)
    quantum._structure_table.cache_clear()
    quantum._structure_table(n)
    m = n - 1
    weights = [weight(lam) for lam in all_strict(m)]
    kept = []
    for triple in itertools.combinations_with_replacement(range(len(weights)), 3):
        excess = sum(weights[i] for i in triple) - m * (m + 1) // 2
        if excess >= 0 and excess % (2 * m) == 0:
            kept.append(triple)
    assert len(calls) == len(kept) == TABLE_DOTS[n]
    assert all(which[0] == 0 for which in calls)
    assert sorted(tuple(i - 1 for i in which[1:]) for which in calls) == kept
    # in (a, b) order, so each leading (0, a, b) is one run of calls
    leads = [which[:-1] for which in calls]
    assert leads == sorted(leads)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_structure_table_builds_no_cyclonum_once_the_points_are_warm(n, monkeypatch):
    eval_points(n - 1)
    built = []
    original = CycloNum.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    structure_table.cache_clear()
    monkeypatch.setattr(CycloNum, "__init__", counting_init)
    assert structure_table(n)
    assert built == []


@pytest.mark.parametrize("n", [1, 0, -5])
def test_every_table_spelling_refuses_a_rank_below_2(n):
    for build in (structure_table, quantum.table_rows, table_json_dict):
        with pytest.raises(UnsupportedRankError, match="n must be >= 2"):
            build(n)


PAST_GW, PAST_TABLE = quantum.GW_SUM_MAX_N + 1, quantum.TABLE_MAX_N + 1


# Per library entry, a call past its cap and the budget it is past.
PAST_THE_BUDGET = {
    "gw_invariant": (lambda: gw_invariant(GWQuery(PAST_GW, 1, 0, ())), "gw"),
    "gw_invariant_float": (lambda: gw_invariant_float(GWQuery(PAST_GW, 1, 1, ((10,), (10,)))), "gw"),
    "three_point": (lambda: three_point(PAST_GW, (), (), (), 0), "gw"),
    "trivial_bundle_number": (lambda: counting.trivial_bundle_number(1, PAST_GW, 0, 0, ()), "gw"),
    "genus_recursion_check": (lambda: genus_recursion_check(PAST_GW, 1, 0, (), 1), "gw"),
    "table_rows": (lambda: quantum.table_rows(PAST_TABLE), "table"),
    "structure_table": (lambda: structure_table(PAST_TABLE), "table"),
    "table_json_dict": (lambda: table_json_dict(PAST_TABLE), "table"),
    "quantum_product": (lambda: quantum_product(PAST_TABLE, QuantumElement.basis(()),
                                                QuantumElement.basis((1,))), "table"),
    "trace_invariant": (lambda: trace_invariant(GWQuery(PAST_TABLE, 1, 0, ())), "table"),
    "trace_invariant_genus_2": (lambda: trace_invariant(GWQuery(PAST_TABLE, 2, 3, ((9,),))), "table"),
    "euler_class": (lambda: euler_class(PAST_TABLE), "table"),
    "euler_class_n_1e30": (lambda: euler_class(10 ** 30), "table"),
}


@pytest.mark.parametrize("entry", sorted(PAST_THE_BUDGET))
def test_the_library_refuses_past_its_budgets_before_building_a_point(entry, monkeypatch):
    def refuse(*args):
        raise AssertionError("a point, an orbit or the basis was built")

    for name in ("eval_points", "_point_table", "_orbits"):
        monkeypatch.setattr(quantum, name, refuse)
    monkeypatch.setattr(quantum.partitions, "all_strict", refuse)
    call, budget = PAST_THE_BUDGET[entry]
    with pytest.raises(quantum.SizeBudgetError, match="table budget of 2" if budget == "table" else
                       f"size budget of gw, n <= {PAST_GW - 1}"):
        call()


def test_negative_max_d_is_refused():
    with pytest.raises(NegativeDegreeError, match="max_d"):
        structure_table(3, -1)
    with pytest.raises(NegativeDegreeError, match="max_d"):
        table_json_dict(3, -1)


def test_quantum_element_rendering():
    assert str(QuantumElement.zero()) == "0"
    assert str(QuantumElement.basis((), 1)) == "q*t[]"
    assert str(QuantumElement.basis((2, 1))) == "t[2,1]"
    assert str(QuantumElement.basis((1,)).scale(2)) == "2*t[1]"
    mixed = QuantumElement.basis((2, 1)) + QuantumElement.basis((), 2)
    assert str(mixed) == "t[2,1] + q^2*t[]"


def test_quantum_element_bookkeeping():
    x = QuantumElement.basis((1,)).scale(Fraction(1, 2))
    assert x.coefficient((1,)) == Fraction(1, 2)
    assert x.coefficient((1,), 1) == 0
    assert (x + x.scale(-1)) == QuantumElement.zero()
    assert QuantumElement({((1,), 0): Fraction(0)}) == QuantumElement.zero()


def test_gw_float_path_tracks_exact_values():
    for n, genus, d, ins in PERMUTATION_QUERIES:
        q = GWQuery(n, genus, d, ins)
        exact = gw_invariant(q)
        approx = gw_invariant_float(q)
        assert abs(approx - exact) <= 1e-6 * max(1.0, abs(exact))


def _close(z, want):
    # a complex double of the float route against the exact value's image,
    # up to rounding
    want = complex(want)
    return abs(z - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_staircase_table_matches_full_tables(n):
    staircase = rho(n - 1)
    order = session_order(n)
    basis = all_strict(n - 1)
    rows = quantum._point_table(n, False)
    ptildes, ptildes_c = quantum._ptilde_rho(n, False), quantum._column(n, staircase, False)
    schurs_c = quantum._float_schur(n)
    # every class read on demand, exact and complex, at every point
    ints = {lam: quantum._column(n, lam, True) for lam in basis}
    floats = {lam: quantum._column(n, lam, False) for lam in basis}
    assert len(rows) == len(ptildes) == len(ptildes_c) == len(schurs_c) == 2 ** (n - 1)
    assert {len(column) for column in [*ints.values(), *floats.values()]} == {2 ** (n - 1)}
    for k, (ep, (weight, elem, schur), ptilde, ptilde_c, schur_c) in enumerate(zip(
            eval_points(n - 1), rows, ptildes, ptildes_c, schurs_c)):
        assert weight == 1
        assert [CycloNum.from_ints(order, e) for e in elem] == elementary_values(ep.point)
        # recomputed from the point itself, not from the cached values
        schur_rho = CycloNum.from_ints(order, schur)
        assert schur_rho == schur_value(staircase, ep.point)
        want = ptilde_value(staircase, ep.point)
        assert CycloNum.from_ints(order, ptilde, 2 ** (n - 1)) == want
        # the float route computes from the complex points, in complex
        # doubles of its own (S_rho as a product, every P~ a Pfaffian), so it
        # agrees up to rounding
        assert _close(schur_c, schur_rho.embed_complex())
        assert _close(ptilde_c, want.embed_complex())
        for lam in basis:
            value = CycloNum.from_ints(order, ints[lam][k], 2 ** len(lam))
            assert value == ptilde_value(lam, ep.point)
            assert _close(floats[lam][k], value.embed_complex())
    # the memo holds only strict partitions of the basis, the same at every point
    assert all(table.keys() == set(basis) for table in quantum._tables(n))
    assert all(table.keys() == set(basis) for table in quantum._float_tables(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_evaluation_sum_float_is_the_image_of_the_exact_sum(n):
    rng = random.Random(n)
    staircase = rho(n - 1)
    others = [lam for lam in all_strict(n - 1) if lam != staircase]
    for genus in range(4):
        for rho_count in (0, 1, 2):
            ins = [rng.choice(others) for _ in range(rng.randint(0, 3))] + [staircase] * rho_count
            rng.shuffle(ins)
            exact = quantum.evaluation_sum(n, genus, tuple(ins))
            approx = quantum.evaluation_sum(n, genus, tuple(ins), exact=False)
            want = exact.embed_complex()
            assert abs(approx - want) <= 1e-9 * max(1.0, abs(want)), (genus, ins)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_evaluation_sum_integrand_equals_the_insertion(n, full_point_sum):
    # P~_lam written in the a_i and evaluated per point is P~_lam itself
    m = n - 1
    for lam in all_strict(m):
        for genus in (0, 2):
            assert quantum.evaluation_sum(n, genus, (lam, rho(m))) == full_point_sum(
                n, genus, (rho(m),), ptilde_alpha(lam, m)
            )


def _sub_pfaffians(parts):
    # parts and every strict partition its first-row Pfaffian expansion reads
    out = {parts}
    if len(parts) > 2:
        first, rest = parts[0], parts[1:]
        for pos, part in enumerate(rest):
            out |= {(first, part)} | _sub_pfaffians(rest[:pos] + rest[pos + 1:])
        if len(parts) % 2:
            out |= _sub_pfaffians(rest)
    return out


@pytest.mark.parametrize("exact", [True, False])
def test_a_cold_sum_reads_only_the_classes_it_needs(exact):
    # genus 1, four classes and the staircase at n = 10: 63 + 45 = 2 * 9 * 6
    n, classes = 10, ((9, 5, 3, 2, 1), (8, 6, 2), (7, 4), (6, 5, 4, 1))
    query = GWQuery(n, 1, 6, classes + (rho(9),))
    assert degree_ok(query)
    exact_caches = (quantum._point_table, quantum._tables, quantum._ptilde_rho, quantum._schur_powers)
    for cached in exact_caches + (quantum._float_tables, quantum._schur_power):
        cached.cache_clear()
    value = gw_invariant(query) if exact else gw_invariant_float(query)
    if exact:
        # the staircase is read by its sign, never into the tables
        needed = set().union(*map(_sub_pfaffians, classes))
        assert len(needed) < 2 ** 9 and rho(9) not in needed
        assert [set(table) for table in quantum._tables(n)] == [needed] * 2 ** 9
        assert quantum._float_tables.cache_info().currsize == 0
    else:
        # the independence guard: a cold float sum reads nothing the exact
        # route builds, no S_rho power included, and its tables hold the
        # classes, the staircase too
        assert [cached.cache_info().currsize for cached in exact_caches] == [0] * 4
        assert not quantum._powers
        assert [set(table) for table in quantum._float_tables(n)] == [set(query.insertions)] * 2 ** 9
    assert value == pytest.approx(4 ** 6 * Fraction(*quantum.orbit_trace(n, 1, query.insertions)), rel=1e-9)


@pytest.mark.parametrize("n", range(7, 11))
def test_the_full_point_sum_equals_the_orbit_sum_past_n_6(n):
    rng = random.Random(n)
    basis = all_strict(n - 1)
    for _ in range(2):
        while True:
            genus = rng.randint(0, 3)
            ins = tuple(rng.choice(basis) for _ in range(rng.randint(1, 4)))
            d = admissible_degree(n, genus, ins)
            if d is not None:
                break
        query = GWQuery(n, genus, d, ins)
        exact = gw_invariant(query)
        assert exact == 4 ** d * Fraction(*quantum.orbit_trace(n, genus, ins)), query
        assert gw_invariant_float(query) == pytest.approx(exact, rel=1e-9), query


def test_staircase_table_n7_matches_the_direct_evaluation():
    staircase, order = rho(6), session_order(7)
    rows = quantum._point_table(7, False)
    ptildes = quantum._ptilde_rho(7, False)
    assert len(rows) == len(ptildes) == len(eval_points(6))
    for ep, (_w, _e, schur), ptilde in zip(eval_points(6), rows, ptildes):
        assert CycloNum.from_ints(order, schur) == schur_value(staircase, ep.point)
        assert CycloNum.from_ints(order, ptilde, 2 ** 6) == ptilde_value(staircase, ep.point)


@pytest.mark.parametrize("n,orbits", [(n, False) for n in range(2, 9)] + [(9, True), (10, True)])
def test_the_staircase_square_is_a_power_of_two(n, orbits):
    # (2^m * P~_rho)^2 = 2^(m-1) at every point for even n, and 2^(m-1) times
    # e_m = x_1 * ... * x_m = +-1 for odd n; at the orbit representatives
    # only for n = 9, 10
    m, order = n - 1, session_order(n)
    one = [1] + [0] * (field_degree(order) - 1)
    for _w, elem, _s in quantum._point_table(n, orbits):
        assert elem[m] in (one, [-c for c in one])
        value = _int_ptilde(rho(m), elem, order, {})
        square = int_mul(value, value, order)
        assert square == [2 ** (m - 1) * c for c in (elem[m] if n % 2 else one)]


@pytest.mark.parametrize("n", range(2, 21))
def test_the_check_prime_is_the_least_one_and_carries_a_primitive_root(n):
    order = session_order(n)
    p, root = quantum.sign_check_field(n)
    primes = [q for q in range(2, p + 1) if all(q % r for r in range(2, q))]
    assert [q for q in primes if q % order == 1] == [p]
    assert len({pow(root, k, p) for k in range(order)}) == order == next(
        k for k in range(1, order + 1) if pow(root, k, p) == 1)


@pytest.mark.parametrize("m", range(1, 20))
def test_the_staircase_root_squares_to_the_closed_form(m):
    order = 4 * m
    for unit in (1, -1):
        r = quantum._staircase_root(m, unit)
        square = int_mul(r, r, order)
        assert square == [2 ** (m - 1) * (unit if m % 2 == 0 else 1)] + [0] * (field_degree(order) - 1)


@pytest.mark.parametrize("n", range(2, 13))
def test_the_sign_route_is_the_pfaffian_memo_at_the_representatives(n):
    # 2^m * P~_rho as +-r, the sign read mod p, against symfunc's memoized
    # Pfaffian recursion; n = 13..15 agree as well, in seconds each
    m, order = n - 1, session_order(n)
    assert list(quantum._ptilde_rho(n, True)) == [
        _int_ptilde(rho(m), elem, order, {}) for _w, elem, _s in quantum._point_table(n, True)]


@pytest.mark.parametrize("n", range(2, 9))
def test_both_staircase_columns_are_the_pfaffian_memo_at_every_point(n):
    # the exact column by its sign mod p, the complex one by a complex
    # Pfaffian at the complex points, and the on-demand table's own P~_rho by
    # the recursion
    m, order = n - 1, session_order(n)
    memo = [_int_ptilde(rho(m), elem, order, {}) for _w, elem, _s in quantum._point_table(n, False)]
    assert list(quantum._ptilde_rho(n, False)) == memo == quantum._column(n, rho(m), True)
    for value, z in zip(memo, quantum._column(n, rho(m), False)):
        assert _close(z, CycloNum.from_ints(order, value, 2 ** m).embed_complex())


@pytest.mark.parametrize("n", range(2, 9))
def test_the_staircase_square_in_the_structure_table(n):
    # the quantum product the pointwise identity above evaluates:
    # tau_rho * tau_rho = q^(n/2) for even n and q^((n-1)/2) * tau_(n-1) for odd n
    staircase = QuantumElement.basis(rho(n - 1))
    square = QuantumElement.basis((n - 1,) if n % 2 else (), n // 2)
    assert quantum_product(n, staircase, staircase) == square
    basis = all_strict(n - 1)
    i = basis.index(rho(n - 1))
    assert [row for row in quantum.table_rows(n) if row[:2] == (i, i)] == [
        (i, i, n // 2, basis.index((n - 1,) if n % 2 else ()), 1)]


@pytest.mark.parametrize("n", range(2, 9))
def test_the_top_class_squares_to_q_and_lowers_the_staircase(n):
    # tau_(m) * tau_(m) = q and tau_rho * tau_(m) = q * tau_(m-1,...,1), the
    # ring identities that give the staircase square above
    m = n - 1
    top, staircase = QuantumElement.basis((m,)), QuantumElement.basis(rho(m))
    assert quantum_product(n, top, top) == QuantumElement.basis((), 1)
    assert quantum_product(n, staircase, top) == QuantumElement.basis(rho(m - 1), 1)


@pytest.mark.parametrize("n", range(3, 7))
def test_the_top_part_is_a_sign_at_every_point(n):
    # 2 * P~_((m) u lam) = e_m * P~_lam for every strict lam without the part
    # m: in m variables e_(m+k) = 0 for k >= 1, so the part m's row of the
    # pair matrix is e_m * e_b / 4.  Against symfunc's CycloNum Pfaffians.
    m = n - 1
    for ep in eval_points(m):
        evals = elementary_values(ep.point)
        for lam in all_strict(m - 1):
            assert _ptilde_from_elem((m,) + lam, evals) * 2 == evals[m] * _ptilde_from_elem(lam, evals), (ep, lam)


@pytest.mark.parametrize("n", [7, 8])
def test_the_top_part_is_a_sign_on_the_integer_values(n):
    # the same identity scaled into Z[w], 2^(len+1) * P~_((m) u lam) =
    # e_m * 2^len * P~_lam, where the CycloNum oracle would take 6 s and 59 s
    m, order = n - 1, session_order(n)
    for _w, elem, _s in quantum._point_table(n, False):
        memo = {}
        for lam in all_strict(m - 1):
            want = int_mul(elem[m], _int_ptilde(lam, elem, order, memo), order)
            assert _int_ptilde((m,) + lam, elem, order, memo) == want, lam


def _schur_values(n):
    order = session_order(n)
    return [CycloNum.from_ints(order, s) for _w, _e, s in quantum._point_table(n, False)]


def test_schur_powers_read_the_staircase_table():
    assert quantum._schur_powers(4, 3) == tuple(s ** 3 for s in _schur_values(4))


@pytest.mark.parametrize("n,exponent", [(2, 0), (3, -1), (4, -2), (5, 1), (5, 17), (6, 40)])
def test_integer_schur_powers_equal_cyclonum_powers(n, exponent):
    assert quantum._schur_powers(n, exponent) == tuple(s ** exponent for s in _schur_values(n))


def test_schur_powers_cache_evicts_past_its_bound():
    bound = quantum._schur_powers.cache_info().maxsize
    # the queries workload's 45 keys (n 2..6, exponents -1..7) all fit
    assert bound >= 64
    quantum._schur_powers.cache_clear()
    try:
        for exponent in range(bound + 1):
            quantum._schur_powers(2, exponent)
        info = quantum._schur_powers.cache_info()
        assert (info.currsize, info.misses) == (bound, bound + 1)
        quantum._schur_powers(2, bound)
        assert quantum._schur_powers.cache_info().hits == 1
        # the oldest key was evicted, so it is built again
        quantum._schur_powers(2, 0)
        assert quantum._schur_powers.cache_info().misses == bound + 2
    finally:
        quantum._schur_powers.cache_clear()


@pytest.mark.parametrize("n", range(2, 8))
def test_negative_schur_powers_invert_the_positive_ones(n):
    for k in (1, 2, 3):
        for inv, pos in zip(quantum._schur_powers(n, -k), quantum._schur_powers(n, k)):
            assert inv * pos == 1


def test_every_spelling_of_the_full_structure_table_shares_one_cache_entry():
    structure_table.cache_clear()
    full = structure_table(3)
    assert structure_table(3, None) == full
    assert structure_table(n=3) == full
    assert structure_table(3, max_d=None) == full
    assert structure_table(3, 0) == tuple(e for e in full if e.d == 0)
    info = structure_table.cache_info()
    assert (info.hits, info.misses) == (4, 1)


def test_clearing_the_structure_table_also_clears_its_rows():
    structure_table(3)
    quantum_product(3, QuantumElement.basis((1,)), QuantumElement.basis((2,)))
    euler_class(3)
    structure_table.cache_clear()
    assert structure_table.cache_info().currsize == 0
    assert quantum._structure_table.cache_info().currsize == 0
    # and the ring built from the rows
    assert quantum._product_lookup.cache_info().currsize == 0
    assert quantum._mult_trace_weights.cache_info().currsize == 0


def _graded_lookup(n):
    # (lam, mu) -> [(nu, d, c), ...] regrouped straight from the table rows
    basis = all_strict(n - 1)
    lookup = {}
    for i, j, d, k, c in quantum.table_rows(n):
        lookup.setdefault((basis[i], basis[j]), []).append((basis[k], d, c))
    return lookup


@pytest.mark.parametrize("n", range(2, 8))
def test_the_q1_ring_gives_the_graded_product_of_every_basis_pair(n):
    # the ring keeps no degrees: quantum_product reads each d back from the weights
    lookup = _graded_lookup(n)
    for lam, mu in itertools.product(all_strict(n - 1), repeat=2):
        want = {(nu, d): c for nu, d, c in lookup.get((lam, mu), ())}
        got = quantum_product(n, QuantumElement.basis(lam), QuantumElement.basis(mu))
        assert got == QuantumElement(want), (lam, mu)
        if n <= 4:
            shifted = quantum_product(n, QuantumElement.basis(lam, 2), QuantumElement.basis(mu, 1))
            assert shifted == QuantumElement({(nu, d + 3): c for (nu, d), c in want.items()}), (lam, mu)


@pytest.mark.parametrize("n", [3, 5])
def test_the_trace_route_is_built_over_the_product_rows(monkeypatch, n):
    # one copy of the q = 1 ring: the Euler class and its rows are summed
    # over _product_lookup's own row objects
    mult = quantum._product_lookup(n)[0]
    seen, real = [], quantum._times
    monkeypatch.setattr(quantum, "_times", lambda rows, vec: seen.append(rows) or real(rows, vec))
    quantum._mult_trace_weights.cache_clear()
    try:
        quantum._mult_trace_weights(n)
    finally:
        quantum._mult_trace_weights.cache_clear()
    pairing, *per_class = seen
    assert len(per_class) == len(mult)
    assert all(rows is mine for rows, mine in zip(per_class, mult.values()))
    assert all(row is mult[dual(nu, n - 1)][i] for i, (row, nu) in enumerate(zip(pairing, all_strict(n - 1))))
