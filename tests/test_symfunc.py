"""Symmetric-function evaluation layer: e, h, Schur, Pfaffian, P~, alpha."""

import cmath
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ogq import quantum
from ogq.cyclotomic import CycloNum, field_degree, root_of_unity
from ogq.partitions import all_strict, rho
from ogq.symfunc import (
    AlphaPolynomial,
    _int_ptilde,
    NotSkewSymmetricError,
    OddDimensionError,
    alpha_evaluate,
    complete_values,
    determinant,
    elementary_values,
    parse_alpha_poly,
    pfaffian,
    ptilde_alpha,
    ptilde_pair_value,
    ptilde_value,
    schur_value,
)

ORDER = 8


def rational_point(values):
    return tuple(CycloNum.rational(ORDER, Fraction(v)) for v in values)


def random_point(rng, m, order=ORDER):
    return tuple(
        CycloNum.rational(order, Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)))
        for _ in range(m)
    )


def test_elementary_values_examples():
    assert elementary_values(rational_point([1, 1])) == [1, 2, 1]
    assert elementary_values(rational_point([1, -1])) == [1, 0, -1]


def test_elementary_values_at_eighth_roots():
    w = root_of_unity(8)
    evals = elementary_values((w, w.invert()))
    assert evals[2] == 1
    # e_1 = 2cos(pi/4) = sqrt(2)
    assert (evals[1] * evals[1]).as_rational() == 2
    assert abs(evals[1].embed_complex() - cmath.sqrt(2)) <= 1e-9


def test_complete_values_examples():
    hvals = complete_values(rational_point([1, 1]), 3)
    assert hvals[0] == 1
    assert hvals[2] == 3
    assert hvals == [1, 2, 3, 4]


def test_complete_values_on_a_plus_minus_pair():
    x = root_of_unity(8)
    hvals = complete_values((x, -x), 6)
    for k in range(7):
        assert hvals[k] == (x ** k if k % 2 == 0 else 0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_newton_recurrence_holds_at_random_points(m):
    rng = random.Random(m)
    for _ in range(5):
        p = random_point(rng, m)
        evals = elementary_values(p)
        hvals = complete_values(p, 10)
        for k in range(1, 11):
            acc = CycloNum.rational(ORDER, 0)
            for i in range(0, k + 1):
                e_i = evals[i] if i < len(evals) else CycloNum.rational(ORDER, 0)
                term = e_i * hvals[k - i]
                acc = acc - term if i % 2 else acc + term
            assert acc == 0


def test_schur_empty_and_single_row():
    p = rational_point([2, 3])
    assert schur_value((), p) == 1
    assert schur_value((1,), p) == elementary_values(p)[1]
    assert schur_value((0, 0), p) == 1


def test_schur_staircase_on_two_variables():
    # S_(2,1)(x1, x2) = x1 x2 (x1 + x2)
    p = rational_point([2, 5])
    assert schur_value((2, 1), p) == Fraction(2 * 5 * 7)
    w = root_of_unity(8)
    point = (w.invert(), w)
    s = schur_value((2, 1), point)
    assert (s * s).as_rational() == 2
    assert abs(s.embed_complex() - cmath.sqrt(2)) <= 1e-9


def _conjugate(parts):
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0]))


def _weakly_decreasing(max_part, max_len):
    out = [()]
    for size in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(
            range(max_part, 0, -1), size
        ):
            out.append(tuple(sorted(combo, reverse=True)))
    return out


def test_jacobi_trudi_h_form_equals_e_form():
    # dual determinant det[e_{lambda'_i + j - i}] as an independent oracle
    rng = random.Random(31)
    shapes = _weakly_decreasing(3, 3)
    for _ in range(3):
        p = random_point(rng, 3)
        evals = elementary_values(p)
        zero = CycloNum.rational(ORDER, 0)

        def e_at(k):
            return evals[k] if 0 <= k < len(evals) else zero

        for lam in shapes:
            conj = _conjugate(lam)
            size = len(conj)
            rows = [
                [e_at(conj[i] + j - i) for j in range(size)] for i in range(size)
            ]
            assert schur_value(lam, p) == determinant(rows), lam


def test_pfaffian_two_by_two():
    a = CycloNum.rational(ORDER, Fraction(5, 3))
    z = CycloNum.rational(ORDER, 0)
    assert pfaffian([[z, a], [-a, z]]) == a
    assert pfaffian([]) == 1


def test_pfaffian_four_by_four_classical_identity():
    rng = random.Random(4)
    vals = {
        (i, j): CycloNum.rational(ORDER, Fraction(rng.randrange(-5, 6)))
        for i in range(4)
        for j in range(i + 1, 4)
    }
    zero = CycloNum.rational(ORDER, 0)
    rows = [[zero] * 4 for _ in range(4)]
    for (i, j), v in vals.items():
        rows[i][j] = v
        rows[j][i] = -v
    want = (
        vals[(0, 1)] * vals[(2, 3)]
        - vals[(0, 2)] * vals[(1, 3)]
        + vals[(0, 3)] * vals[(1, 2)]
    )
    assert pfaffian(rows) == want


def _random_skew(rng, size, order=ORDER):
    rows = [[CycloNum.rational(order, 0)] * size for _ in range(size)]
    w = root_of_unity(order)
    for i in range(size):
        for j in range(i + 1, size):
            v = CycloNum.rational(order, Fraction(rng.randrange(-4, 5))) + w * Fraction(
                rng.randrange(-2, 3)
            )
            rows[i][j] = v
            rows[j][i] = -v
    return rows


@pytest.mark.parametrize("size", [2, 4, 6])
def test_pfaffian_squared_is_the_determinant(size):
    rng = random.Random(size)
    for _ in range(4):
        rows = _random_skew(rng, size)
        pf = pfaffian(rows)
        assert pf * pf == determinant(rows)


def test_pfaffian_rejects_bad_matrices():
    z = CycloNum.rational(ORDER, 0)
    a = CycloNum.rational(ORDER, 1)
    with pytest.raises(OddDimensionError):
        pfaffian([[z]])
    with pytest.raises(NotSkewSymmetricError):
        pfaffian([[z, a], [a, z]])
    with pytest.raises(NotSkewSymmetricError):
        pfaffian([[a, a], [-a, z]])


def test_ptilde_pair_examples():
    assert ptilde_pair_value(0, 0, rational_point([1, 1])) == 1
    assert ptilde_pair_value(1, 0, rational_point([1, 1])) == 1
    # on two variables e_3 = 0, so the k = 1 term of the pair sum drops out
    rng = random.Random(9)
    for _ in range(4):
        p = random_point(rng, 2)
        evals = elementary_values(p)
        assert ptilde_pair_value(2, 1, p) == evals[2] * evals[1] * Fraction(1, 4)


def test_ptilde_single_is_half_the_elementary_value():
    rng = random.Random(10)
    for m in (1, 2, 3):
        p = random_point(rng, m)
        evals = elementary_values(p)
        for a in range(1, m + 1):
            assert ptilde_value((a,), p) == evals[a] * Fraction(1, 2)


def test_ptilde_empty_is_one():
    assert ptilde_value((), rational_point([3])) == 1


@pytest.mark.parametrize("m", [1, 2])
def test_ptilde_staircase_matches_schur_on_m_variables(m):
    # P~_rho = S_rho / 2^m holds on exactly m variables for m <= 2
    rng = random.Random(20 + m)
    for _ in range(5):
        p = random_point(rng, m)
        assert ptilde_value(rho(m), p) == schur_value(rho(m), p) * Fraction(1, 2 ** m)


def test_ptilde_length_three_pfaffian_hand_expansion():
    # pad (3,2,1) with a trailing zero and expand the 4x4 Pfaffian by hand
    p = rational_point([2, 3, 5])
    got = ptilde_value((3, 2, 1), p)
    want = (
        ptilde_pair_value(3, 2, p) * ptilde_pair_value(1, 0, p)
        - ptilde_pair_value(3, 1, p) * ptilde_pair_value(2, 0, p)
        + ptilde_pair_value(3, 0, p) * ptilde_pair_value(2, 1, p)
    )
    assert got == want
    assert got != 0


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_ptilde_is_symmetric_in_the_coordinates(m):
    rng = random.Random(40 + m)
    p = random_point(rng, m)
    for lam in all_strict(m):
        base = ptilde_value(lam, p)
        for _ in range(20):
            perm = list(p)
            rng.shuffle(perm)
            assert ptilde_value(lam, tuple(perm)) == base


def random_int_point(rng, m, order):
    # Generic elements of Z[w], not roots of unity: the integer builds must
    # hold as polynomial identities, not only at the evaluation points.
    phi = field_degree(order)
    return tuple(CycloNum.from_ints(order, [rng.randrange(-3, 4) for _ in range(phi)])
                 for _ in range(m))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_integer_staircase_schur_is_the_product_formula(m):
    # quantum's rows, which build e and S_rho = e_m * prod_{i<j} (x_i + x_j) by
    # signed rotations, against the Jacobi-Trudi determinant at points of roots of
    # unity w^t, t any residues mod the order, repeats and antipodes included
    rng = random.Random(100 + m)
    order = 12
    for _ in range(4):
        residues = tuple(rng.randrange(order) for _ in range(m))
        point = tuple(root_of_unity(order, t) for t in residues)
        evals, schur = quantum._elementary(residues, order), quantum._staircase_schur(residues, order)
        assert [CycloNum.from_ints(order, e) for e in evals] == elementary_values(point)
        assert CycloNum.from_ints(order, schur) == schur_value(rho(m), point)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_integer_ptilde_recursion_matches_the_pfaffian(m):
    rng = random.Random(200 + m)
    order = 20
    point = random_int_point(rng, m, order)
    evals = [e.int_coeffs() for e in elementary_values(point)]
    memo = {}
    for lam in sorted(all_strict(m), key=len, reverse=True):
        got = CycloNum.from_ints(order, _int_ptilde(lam, evals, order, memo), 2 ** len(lam))
        assert got == ptilde_value(lam, point)
    assert set(memo) == set(all_strict(m))


def test_alpha_polynomial_str_and_parse_round_trip():
    q = parse_alpha_poly("2*a2 + a1^2")
    assert str(q) == "2*a2 + a1^2"
    assert parse_alpha_poly(str(q)) == q
    assert str(parse_alpha_poly("1")) == "1"
    assert str(parse_alpha_poly("a1^2*a3 + 2*a2")) == "2*a2 + a1^2*a3"
    assert parse_alpha_poly("-a1 + a1") == AlphaPolynomial(())
    assert parse_alpha_poly("3/2*a1") == AlphaPolynomial.variable(1) * Fraction(3, 2)


@pytest.mark.parametrize("text", ["", "a0", "2**a1", "b2", "a1^"])
def test_parse_alpha_poly_rejects(text):
    with pytest.raises(ValueError):
        parse_alpha_poly(text)


def test_alpha_polynomial_weighted_degree():
    assert parse_alpha_poly("1").weighted_degree() == 0
    assert parse_alpha_poly("a3").weighted_degree() == 3
    assert parse_alpha_poly("a1^2*a3").weighted_degree() == 5
    assert parse_alpha_poly("2*a2 + a1^2").weighted_degree() == 2
    assert parse_alpha_poly("2*a2 + a1^2").part_of_weight(2) == parse_alpha_poly("2*a2 + a1^2")
    assert parse_alpha_poly("a1 + a2").part_of_weight(2) == parse_alpha_poly("a2")
    assert not parse_alpha_poly("a1 + a2").part_of_weight(3)
    assert AlphaPolynomial(()).weighted_degree() == 0


def test_alpha_polynomial_ring_operations():
    a1 = AlphaPolynomial.variable(1)
    a2 = AlphaPolynomial.variable(2)
    assert (a1 + a2) - a2 == a1
    assert a1 * AlphaPolynomial.one() == a1
    assert (a1 + a2) * (a1 - a2) == a1 * a1 - a2 * a2
    assert 3 * a1 == a1 + a1 + a1


def test_alpha_evaluate_examples():
    p = rational_point([1, 1])
    assert alpha_evaluate(parse_alpha_poly("1"), p) == 1
    assert alpha_evaluate(parse_alpha_poly("a1"), p) == 1
    # variables beyond the number of coordinates act as zero
    assert alpha_evaluate(parse_alpha_poly("a3"), p) == 0
    assert alpha_evaluate(parse_alpha_poly("a3 + 2"), p) == 2


def test_alpha_evaluate_is_multiplicative():
    rng = random.Random(55)
    p = random_point(rng, 3)
    q1 = parse_alpha_poly("a1^2 - 3*a2")
    q2 = parse_alpha_poly("a3 + 1/2*a1")
    assert alpha_evaluate(q1 * q2, p) == alpha_evaluate(q1, p) * alpha_evaluate(q2, p)


def test_alpha_variables_match_single_part_ptilde():
    rng = random.Random(60)
    for m in (1, 2, 3):
        p = random_point(rng, m)
        for k in range(1, m + 1):
            q = AlphaPolynomial.variable(k)
            assert alpha_evaluate(q, p) == ptilde_value((k,), p)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_ptilde_alpha_reproduces_ptilde_value(m):
    rng = random.Random(70 + m)
    for trial in range(3):
        p = random_point(rng, m)
        for lam in all_strict(m):
            q = ptilde_alpha(lam, m)
            assert alpha_evaluate(q, p) == ptilde_value(lam, p), (lam, trial)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_ptilde_alpha_is_weight_homogeneous(m):
    for lam in all_strict(m):
        q = ptilde_alpha(lam, m)
        assert q.part_of_weight(q.weighted_degree()) == q
        if lam:
            assert q.weighted_degree() == sum(lam)


small_polys = st.builds(
    lambda pairs: AlphaPolynomial.from_dict(
        {exps: Fraction(c) for exps, c in pairs}
    ),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.integers(-3, 3),
        ),
        max_size=4,
    ),
)


@given(a=small_polys, b=small_polys, c=small_polys)
def test_alpha_polynomial_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
