"""The cyclotomic kernel against sympy, an oracle that shares none of its code.

Every product, power and root of unity in `ogq.cyclotomic` goes through one
reduction mod Phi, so comparing the kernel with itself shows nothing; here
each result is compared with sympy's remainder of the unreduced polynomial
by sympy's own cyclotomic polynomial, and each inverse with sympy's inverse
mod that polynomial; each trace with sympy's remainder of the sum of the
Galois conjugates.  sympy is used by these tests only.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from ogq.cyclotomic import (  # noqa: E402
    CycloNum,
    cyclotomic_polynomial,
    field_degree,
    fused_dot,
    int_inverse,
    int_mul,
    root_of_unity,
    trace,
)

X = sympy.Symbol("x")


def _poly(coeffs) -> "sympy.Poly":
    # constant term first, as ogq stores coefficients
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction)
                       else c for c in reversed(coeffs)], X, domain="QQ")


def _reduced(poly, order: int) -> list[Fraction]:
    # sympy's remainder mod Phi_order, on the power basis, constant term first
    rem = sympy.rem(poly, sympy.Poly(sympy.cyclotomic_poly(order, X), X, domain="QQ"))
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    return coeffs + [Fraction(0)] * (field_degree(order) - len(coeffs))


@pytest.mark.parametrize("order", range(1, 65))
def test_cyclotomic_polynomial_matches_sympy(order):
    want = sympy.Poly(sympy.cyclotomic_poly(order, X), X).all_coeffs()
    assert cyclotomic_polynomial(order) == tuple(int(c) for c in reversed(want))


orders = st.integers(1, 40)
ints = st.one_of(st.just(0), st.integers(-5, 5), st.integers(-10 ** 20, 10 ** 20))
fractions = st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=40, min_value=-50,
                                                         max_value=50))


@st.composite
def int_pairs(draw):
    order = draw(orders)
    vec = st.lists(ints, min_size=field_degree(order), max_size=field_degree(order))
    return order, draw(vec), draw(vec)


def elements(order: int):
    phi = field_degree(order)
    return st.tuples(*([fractions] * phi)).map(lambda t: CycloNum(order, t))


@st.composite
def element_pairs(draw):
    order = draw(orders)
    return order, draw(elements(order)), draw(elements(order))


@settings(max_examples=60, deadline=None)
@given(int_pairs())
def test_int_mul_matches_sympy(case):
    order, a, b = case
    got = int_mul(a, b, order)
    assert all(type(c) is int for c in got)
    assert got == _reduced(_poly(a) * _poly(b), order)


@settings(max_examples=40, deadline=None)
@given(element_pairs())
def test_cyclonum_mul_matches_sympy(case):
    order, a, b = case
    got = a * b
    assert all(type(c) is Fraction for c in got.coeffs)
    assert list(got.coeffs) == _reduced(_poly(a.coeffs) * _poly(b.coeffs), order)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(-300, 300))
def test_root_of_unity_matches_sympy(order, power):
    got = root_of_unity(order, power)
    assert all(type(c) is Fraction for c in got.coeffs)
    monomial = sympy.Poly(X ** (power % order), X, domain="QQ")
    assert list(got.coeffs) == _reduced(monomial, order)


@st.composite
def dot_cases(draw):
    order = draw(st.integers(1, 30))
    phi = field_degree(order)
    points = draw(st.integers(1, 4))
    element = st.lists(ints, min_size=phi, max_size=phi)
    vectors = draw(st.lists(st.lists(element, min_size=points, max_size=points),
                            min_size=1, max_size=3))
    which = draw(st.lists(st.integers(0, len(vectors) - 1), min_size=3, max_size=3))
    return order, vectors, which


@settings(max_examples=25, deadline=None)
@given(dot_cases())
def test_fused_dot_of_arity_three_matches_sympy(case):
    order, vectors, which = case
    total = sympy.Poly(0, X, domain="QQ")
    for j in range(len(vectors[0])):
        term = sympy.Poly(1, X, domain="QQ")
        for i in which:
            term = term * _poly(vectors[i][j])
        total = total + term
    got = fused_dot(vectors, order)(*which)
    assert type(got) is int
    assert got == _sympy_trace(_reduced(total, order), order)


def _sympy_inverse(coeffs, order: int) -> list[Fraction]:
    phi_poly = sympy.Poly(sympy.cyclotomic_poly(order, X), X, domain="QQ")
    return _reduced(sympy.invert(_poly(coeffs), phi_poly), order)


@st.composite
def nonzero_ints(draw):
    # sympy's inverse at a prime order near 40 takes seconds on 20-digit
    # coefficients, so these stay small; the norm test below takes big ones
    order = draw(orders)
    phi = field_degree(order)
    small = st.one_of(st.just(0), st.integers(-5, 5), st.integers(-100, 100))
    coeffs = draw(st.lists(small, min_size=phi, max_size=phi).filter(any))
    return order, coeffs


@settings(max_examples=40, deadline=None)
@given(nonzero_ints())
def test_int_inverse_matches_sympy(case):
    order, a = case
    b, den = int_inverse(a, order)
    assert den > 0 and all(type(c) is int for c in b)
    assert [Fraction(c, den) for c in b] == _sympy_inverse(a, order)


@settings(max_examples=40, deadline=None)
@given(orders.flatmap(elements).filter(bool))
def test_cyclonum_invert_matches_sympy(a):
    got = a.invert()
    assert all(type(c) is Fraction for c in got.coeffs)
    assert list(got.coeffs) == _sympy_inverse(a.coeffs, a.order)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 64).flatmap(lambda order: st.tuples(
    st.just(order),
    st.lists(ints, min_size=field_degree(order),
             max_size=field_degree(order)).filter(any))))
def test_int_inverse_times_its_element_is_its_positive_norm(case):
    order, a = case
    b, den = int_inverse(a, order)
    assert den > 0
    assert int_mul(a, b, order) == [den] + [0] * (field_degree(order) - 1)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 12, 64])
def test_int_inverse_of_zero_raises(order):
    with pytest.raises(ZeroDivisionError):
        int_inverse([0] * field_degree(order), order)
    with pytest.raises(ZeroDivisionError):
        CycloNum(order, (Fraction(0),) * field_degree(order)).invert()


@pytest.mark.parametrize("order", [1, 2])
def test_int_inverse_folds_a_negative_norm_into_the_inverse(order):
    # Q(w) is Q at orders 1 and 2, where the norm of a is a itself
    assert int_inverse([-6], order) == ([-1], 6)
    assert int_inverse([6], order) == ([1], 6)


def _sympy_trace(coeffs, order: int) -> Fraction:
    # The sum of the conjugates w -> w^a over the units a mod order, reduced
    # by sympy: x^(a*k) is taken mod x^order - 1, which Phi_order divides.
    conj = [0] * order
    for a in range(1, order + 1):
        if sympy.gcd(a, order) == 1:
            for k, c in enumerate(coeffs):
                conj[a * k % order] += c
    rem = _reduced(_poly(conj), order)
    assert not any(rem[1:])
    return rem[0]


@pytest.mark.parametrize("order", range(1, 65))
def test_trace_matches_the_sum_of_the_galois_conjugates(order):
    rng = random.Random(order)
    phi = field_degree(order)
    reduced = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(phi)]
    # an unreduced list, as a product before its reduction: past phi and past order
    unreduced = [rng.randint(-50, 50) for _ in range(2 * order + 3)]
    fractions = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(phi + 5)]
    for coeffs in (reduced, unreduced, fractions):
        assert trace(coeffs, order) == _sympy_trace(coeffs, order)
    # the trace of a list is the trace of its reduction mod Phi
    assert trace(unreduced, order) == trace(_reduced(_poly(unreduced), order), order)
