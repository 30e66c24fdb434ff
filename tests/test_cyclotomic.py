"""Exact arithmetic in Q(w) checked against classical cyclotomic facts."""

import cmath
import itertools
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, given, strategies as st

from ogq import cyclotomic
from ogq.cyclotomic import (
    CycloNum,
    NotRationalError,
    OrderMismatchError,
    cyclotomic_polynomial,
    field_degree,
    fused_dot,
    int_mul,
    int_pow,
    one,
    root_of_unity,
    trace,
    zero,
)

# order -> minimal polynomial of w, constant coefficient first
KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}

SESSION_ORDERS = [4, 8, 12, 20]


@pytest.mark.parametrize("order,coeffs", sorted(KNOWN_PHI.items()))
def test_cyclotomic_polynomial_table(order, coeffs):
    assert cyclotomic_polynomial(order) == coeffs


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("order", range(1, 41))
def test_product_over_divisors_is_x_to_n_minus_one(order):
    prod = [1]
    for d in range(1, order + 1):
        if order % d == 0:
            prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
    assert prod == [-1] + [0] * (order - 1) + [1]


def test_field_degree_matches_polynomial_degree():
    for order in (1, 2, 3, 4, 8, 12, 20, 40):
        assert field_degree(order) == len(cyclotomic_polynomial(order)) - 1
    assert field_degree(20) == 8


def test_root_of_unity_order_four():
    assert root_of_unity(4, 0) == 1
    assert root_of_unity(4, 2) == -1
    w = root_of_unity(4)
    assert w * w == -1
    assert abs(w.embed_complex() - 1j) <= 1e-12


@pytest.mark.parametrize("order", range(1, 41))
def test_root_has_the_stated_order(order):
    w = root_of_unity(order)
    assert w ** order == 1


def test_ring_operations_basic():
    o = one(4)
    assert o + (-o) == 0
    assert zero(4) == 0
    w = root_of_unity(8)
    a = w + Fraction(3, 2)
    assert a * 1 == a
    assert a - a == 0
    assert 2 * a == a + a


def test_order_mismatch_is_rejected():
    with pytest.raises(OrderMismatchError):
        root_of_unity(4) + root_of_unity(8)
    with pytest.raises(OrderMismatchError):
        root_of_unity(4) * root_of_unity(12)


def test_inverse_examples():
    assert one(4).invert() == 1
    assert (-one(4)).invert() == -1
    w = root_of_unity(4)
    assert w.invert() == -w
    assert w * w.invert() == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        zero(8).invert()
    with pytest.raises(ZeroDivisionError):
        zero(8) ** -1


def test_power_examples():
    w = root_of_unity(8)
    assert w ** 0 == 1
    assert (-one(8)) ** 5 == -1
    assert w ** 8 == 1
    assert w ** -1 == w.invert()
    assert w ** -3 == (w ** 3).invert()


def test_division_round_trips():
    w = root_of_unity(12)
    a = w ** 2 + 3
    b = w - Fraction(1, 2)
    assert (a / b) * b == a
    assert (1 / b) * b == 1


def test_as_rational_examples():
    assert CycloNum.rational(4, Fraction(7, 2)).as_rational() == Fraction(7, 2)
    with pytest.raises(NotRationalError):
        root_of_unity(4).as_rational()


def test_sqrt_two_squared():
    w = root_of_unity(8)
    a = w + w.invert()
    assert (a * a).as_rational() == 2
    assert abs(a.embed_complex() - cmath.sqrt(2)) <= 1e-9


def test_embed_complex_of_one():
    assert one(12).embed_complex() == 1.0 + 0.0j


def test_rational_values_compare_across_orders():
    a = CycloNum.rational(4, 2)
    b = CycloNum.rational(8, 2)
    assert a == b
    assert a == 2
    assert hash(a) == hash(b) == hash(Fraction(2))
    assert root_of_unity(4) != root_of_unity(8)


def _random_element(rng, order):
    phi = field_degree(order)
    return CycloNum(
        order,
        tuple(Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(phi)),
    )


@pytest.mark.parametrize("order", SESSION_ORDERS)
def test_field_axioms_on_random_triples(order):
    rng = random.Random(100 + order)
    for _ in range(25):
        a, b, c = (_random_element(rng, order) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("order", SESSION_ORDERS)
def test_inverse_of_200_random_nonzero_elements(order):
    rng = random.Random(order)
    seen = 0
    while seen < 200:
        a = _random_element(rng, order)
        if not a:
            continue
        assert a * a.invert() == 1
        seen += 1


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def cyclo_elements(order):
    phi = field_degree(order)
    return st.tuples(*([small_fractions] * phi)).map(lambda t: CycloNum(order, t))


@given(a=cyclo_elements(8), b=cyclo_elements(8))
def test_embed_complex_is_a_ring_homomorphism(a, b):
    assert abs((a + b).embed_complex() - (a.embed_complex() + b.embed_complex())) <= 1e-9
    assert abs((a * b).embed_complex() - a.embed_complex() * b.embed_complex()) <= 1e-9


@given(a=cyclo_elements(12), j=st.integers(-3, 5), k=st.integers(-3, 5))
def test_power_is_additive_in_the_exponent(a, j, k):
    assume(bool(a))
    assert a ** j * a ** k == a ** (j + k)


@given(
    value=st.fractions(max_denominator=10 ** 6),
    order=st.sampled_from(SESSION_ORDERS),
)
def test_rational_round_trip(value, order):
    num = CycloNum.rational(order, value)
    assert num.is_rational()
    assert num.as_rational() == value


# Integer coefficients, zero often.
dot_ints = st.one_of(st.just(0), st.integers(-300, 300))


@st.composite
def dot_cases(draw):
    order = draw(st.integers(4, 24))
    points = draw(st.integers(1, 6))
    phi = field_degree(order)
    element = st.one_of(st.just([0] * phi), st.lists(dot_ints, min_size=phi, max_size=phi))
    vectors = draw(st.lists(st.lists(element, min_size=points, max_size=points),
                            min_size=1, max_size=4))
    which = draw(st.lists(st.integers(0, len(vectors) - 1), min_size=1, max_size=4))
    return order, vectors, which


@given(dot_cases())
def test_fused_dot_equals_the_plain_sum_of_products(case):
    order, vectors, which = case
    expected = zero(order)
    for j in range(len(vectors[0])):
        term = one(order)
        for i in which:
            term = term * CycloNum.from_ints(order, vectors[i][j])
        expected = expected + term
    got = fused_dot(vectors, order)(*which)
    assert type(got) is int
    assert got == trace(expected.coeffs, order)


@given(dot_cases(), st.randoms(use_true_random=False))
def test_fused_dot_with_a_kept_prefix_equals_a_fresh_dot(case, rng):
    # every call of a shuffled sequence, most of them sharing leading
    # indices with the call before, against a fresh dot for that call alone
    order, vectors, which = case
    calls = [tuple(which)]
    for _ in range(12):
        size = rng.randint(1, 4)
        lead = calls[-1][:size - 1] if rng.random() < 0.7 else ()
        calls.append(lead + tuple(rng.randrange(len(vectors)) for _ in range(size - len(lead))))
    rng.shuffle(calls)
    calls += calls[::-1]
    dot = fused_dot(vectors, order)
    for call in calls:
        assert dot(*call) == fused_dot(vectors, order)(*call)


@given(st.integers(1, 30).flatmap(lambda order: st.tuples(
    st.just(order), *[st.lists(dot_ints, min_size=field_degree(order), max_size=field_degree(order))] * 2)))
def test_trace_dual_pairs_to_the_trace_of_the_product(case):
    order, f, x = case
    dual = cyclotomic.trace_dual(x, order)
    assert len(dual) == field_degree(order)
    assert sum(a * t for a, t in zip(f, dual)) == trace(int_mul(f, x, order), order)
    assert cyclotomic.trace_dual([Fraction(c, 3) for c in x], order) == [Fraction(t, 3) for t in dual]


def test_trace_examples():
    # Tr(1) = phi, and the primitive 12th roots of unity sum to mu(12) = 0
    assert trace([1, 0, 0, 0], 12) == 4
    assert trace([0, 1, 0, 0], 12) == 0
    # w^6 = -1 and w^4 is a primitive cube root, unreduced past phi = 4
    assert trace([0, 0, 0, 0, 1, 0, 3], 12) == -2 - 12
    assert trace([Fraction(1, 2)], 1) == Fraction(1, 2)
    assert trace([], 8) == 0


def test_fused_dot_sums_to_non_rational_and_rational_values():
    # w at order 12 and its inverse w - w^3 (w^4 = w^2 - 1)
    w, w_inv = [0, 1, 0, 0], [0, 1, 0, -1]
    dot = fused_dot([[w, w_inv], [w, w], [w_inv, [0, 36, 0, 0]]], 12)
    # w^2 + 1 is not rational; its trace is Tr(w^2) + phi = 2 + 4
    assert dot(0, 1) == 6
    # 1 + 36, whose trace is phi times itself
    assert dot(0, 2) == 4 * 37
    # 2 * w^2, w^2 a primitive sixth root of unity: 2 * mu(6) * phi(12) / phi(6)
    assert dot(1, 1) == 4


def test_fused_dot_refuses_bad_input(monkeypatch):
    w4, w8 = [0, 1], [0, 1, 0, 0]
    # a coefficient list that is not phi(order) long, as an element of
    # another field
    with pytest.raises(ValueError, match="phi"):
        fused_dot([[w4], [w8]], 4)
    with pytest.raises(ValueError, match="same length"):
        fused_dot([[w4], [w4, w4]], 4)
    with pytest.raises(ValueError, match="at least one point"):
        fused_dot([[], []], 4)
    dot = fused_dot([[w4], [w4]], 4)
    assert dot(0, 1, 1, 0) == dot(0, 0, 0, 0)
    with pytest.raises(ValueError, match="1 to 4"):
        dot(0, 1, 1, 0, 1)
    with pytest.raises(ValueError, match="1 to 4"):
        dot()
    # the slot guard: packed too narrowly, a sum of products spills over
    # its top digit and is refused, not read as a wrong trace
    monkeypatch.setattr(cyclotomic, "_dot_slot", lambda *args: 4)
    dot = fused_dot([[[100, 0]], [[100, 0]]], 4)
    with pytest.raises(cyclotomic.SlotOverflowError, match="overflowed its slot"):
        dot(0, 1)
    # and on a call that reuses the kept product of the call before
    dot = fused_dot([[[100, 0]], [[0, 1]], [[100, 0]]], 4)
    dot(0, 1)
    with pytest.raises(cyclotomic.SlotOverflowError, match="overflowed its slot"):
        dot(0, 2)


@pytest.mark.parametrize("order", [4, 12, 15, 20, 24, 36])
def test_fused_dot_at_the_extreme_of_its_slot(order):
    # four indices with every entry +-top, the largest digits _dot_slot sizes for:
    # the slot bound, not the runtime check on the summed magnitude, guards
    # each digit, so every dot must equal the trace of the explicit products
    rng = random.Random(order)
    phi, top, points = field_degree(order), 10 ** 9, 5
    vectors = [[[sign * top] * phi for _ in range(points)] for sign in (1, -1)]
    vectors += [[[rng.choice((top, -top)) for _ in range(phi)] for _ in range(points)] for _ in range(2)]
    dot = fused_dot(vectors, order)
    for which in itertools.product(range(4), repeat=4):
        expected = sum(trace(reduce(lambda a, b: int_mul(a, b, order), (vectors[i][j] for i in which)), order)
                       for j in range(points))
        assert dot(*which) == expected, which


# Integer coefficients of Z[w]: zeros often, small values, and values far
# past a machine word, as in high powers of S_rho.
int_coeffs = st.one_of(st.just(0), st.integers(-5, 5), st.integers(-10 ** 30, 10 ** 30))


@st.composite
def int_cases(draw):
    order = draw(st.integers(4, 28))
    phi = field_degree(order)
    vec = st.lists(int_coeffs, min_size=phi, max_size=phi)
    return order, draw(vec), draw(vec)


@given(int_cases())
def test_int_mul_equals_cyclonum_mul(case):
    order, a, b = case
    got = int_mul(a, b, order)
    assert len(got) == field_degree(order)
    assert CycloNum.from_ints(order, got) == CycloNum.from_ints(order, a) * CycloNum.from_ints(order, b)


@given(int_cases(), st.integers(0, 9))
def test_int_pow_equals_cyclonum_pow(case, exponent):
    order, a, _ = case
    assert CycloNum.from_ints(order, int_pow(a, exponent, order)) == CycloNum.from_ints(order, a) ** exponent


@pytest.mark.parametrize("order", [1, 2, 3, 4, 12, 20])
def test_products_powers_and_roots_keep_fraction_coefficients(order):
    w = root_of_unity(order, 1)
    for x in (w, w * w, w ** 0, w ** 3, w ** -2, root_of_unity(order, -1), root_of_unity(order, 0)):
        assert len(x.coeffs) == field_degree(order)
        assert all(type(c) is Fraction for c in x.coeffs)
    assert type((w ** order).as_rational()) is Fraction
    assert w ** order == 1


def test_int_pow_refuses_negative_exponents():
    with pytest.raises(ValueError, match="nonnegative"):
        int_pow([0, 1], -1, 4)


def test_from_ints_and_int_coeffs_round_trip():
    w = root_of_unity(12, 1)
    x = 3 * w * w - 7 + w.invert()
    assert CycloNum.from_ints(12, x.int_coeffs()) == x
    assert CycloNum.from_ints(12, [2, 0, 0, 6], 4) == Fraction(1, 2) + Fraction(3, 2) * w ** 3
    with pytest.raises(ArithmeticError, match=r"Z\[w\]"):
        (x * Fraction(1, 2)).int_coeffs()
