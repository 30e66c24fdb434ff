"""The affine orbits of the evaluation points, the one integer point table at
every point and at the orbit representatives, and the exact orbit sum, against
the sum over all 2^m points (quantum.evaluation_sum, and the symfunc oracle
for integrands) and against the orbit formula taken one representative at a
time.  An integrand reaches the orbit sum only through counting._scaled_sum,
as single-row insertions; the per-representative reference here evaluates it
on its own, in Z[w] over one denominator."""

import math
import random
from fractions import Fraction

import pytest

from ogq import counting, quantum
from ogq.cyclotomic import field_degree, int_inverse, int_mul, int_pow, trace
from ogq.partitions import all_strict, rho, weight
from ogq.quantum import WeightConditionError, eval_points, orbit_count, orbit_trace
from ogq.symfunc import AlphaPolynomial, _int_ptilde, parse_alpha_poly, ptilde_alpha

ORBIT_COUNTS = {1: 1, 2: 1, 3: 2, 4: 1, 5: 3, 6: 4, 7: 5, 8: 3, 9: 11, 10: 13, 11: 15, 12: 31,
                13: 37, 14: 65, 15: 184}


@pytest.mark.parametrize("m", sorted(ORBIT_COUNTS))
def test_orbit_counts_and_sizes(m):
    orbits = quantum._orbits(m)
    assert len(orbits) == ORBIT_COUNTS[m] == orbit_count(m + 1)
    assert sum(size for _index, size in orbits) == 2 ** m


def _residue_sets(m: int) -> dict[frozenset, int]:
    # each evaluation point as its set of residues mod 4m -> its index
    return {frozenset(t % (4 * m) for t in ep.doubled): i for i, ep in enumerate(eval_points(m))}


def _closure(start: frozenset, order: int) -> set[frozenset]:
    # the orbit of a residue set under the generators J -> aJ (a a unit) and
    # J -> J + 2, grown until nothing new appears
    units = [a for a in range(1, order) if math.gcd(a, order) == 1]
    orbit, todo = {start}, [start]
    while todo:
        point = todo.pop()
        images = [frozenset(a * t % order for t in point) for a in units]
        images.append(frozenset((t + 2) % order for t in point))
        for image in images:
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


@pytest.mark.parametrize("m", range(1, 10))
def test_each_orbit_is_closed_under_the_galois_action_and_the_shift_by_2(m):
    order = 4 * m
    points = _residue_sets(m)
    covered: set[frozenset] = set()
    for residues, size in quantum._orbits(m):
        orbit = _closure(frozenset(residues), order)
        assert orbit <= points.keys()
        assert len(orbit) == size
        # the first point of the orbit in eval_points order represents it
        assert min(points[point] for point in orbit) == points[frozenset(residues)]
        assert not orbit & covered
        covered |= orbit
    assert covered == points.keys()


def _admissible(n: int, genus: int, insertions) -> bool:
    m = n - 1
    return ((genus - 1) * m * (m + 1) // 2 + sum(map(weight, insertions))) % (2 * m) == 0


@pytest.mark.parametrize("n", range(2, 8))
def test_orbit_sum_equals_the_point_sum(n):
    rng = random.Random(n)
    basis = all_strict(n - 1)
    checked = 0
    while checked < 20:
        genus = rng.randint(0, 5)
        insertions = tuple(rng.choice(basis) for _ in range(rng.randint(0, 4)))
        if not _admissible(n, genus, insertions):
            continue
        full = quantum.evaluation_sum(n, genus, insertions).as_rational()
        assert Fraction(*orbit_trace(n, genus, insertions)) == full, (genus, insertions)
        checked += 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_sum_with_a_ptilde_integrand_equals_the_point_sum(n, full_point_sum):
    rng = random.Random(10 + n)
    m = n - 1
    basis = all_strict(m)
    checked = 0
    while checked < 20:
        genus = rng.randint(0, 5)
        insertions = (rho(m),) * rng.randint(0, 2)
        factors = [rng.choice(basis) for _ in range(rng.randint(1, 3))]
        q_poly = AlphaPolynomial.one()
        for lam in factors:
            q_poly = q_poly * ptilde_alpha(lam, m) * Fraction(rng.randint(1, 5), rng.randint(1, 3))
        if not q_poly or not _admissible(n, genus, insertions + tuple(factors)):
            continue
        full = full_point_sum(n, genus, insertions, q_poly).as_rational()
        exact = counting._scaled_sum(True, n, genus, len(insertions), 0, q_poly)
        assert Fraction(*exact) == full, (genus, insertions, factors)
        checked += 1


@pytest.mark.parametrize("n, genus, staircases, text", [
    (3, 1, 0, "5/3*a1^4 - 7/2*a2^2 + 1/4*a1^2*a2"),  # Fraction coefficients
    (3, 1, 0, "a4 + 2*a1*a3"),  # every term in a variable past m = 2: 0
    (3, 1, 0, "-4/3"),  # a constant term
    (4, 2, 1, "1/6*a3^2 - a1^2*a4 + 3*a2^3 + 3"),  # one term past m = 3 among live ones
])
def test_the_integrand_rule_on_fractions_dead_variables_and_constants(n, genus, staircases, text, full_point_sum):
    # each term is its coefficient times more single-row insertions, on the
    # exact and the float route alike; a term past m is 0 on both
    q_poly = parse_alpha_poly(text)
    full = full_point_sum(n, genus, (rho(n - 1),) * staircases, q_poly).as_rational()
    exact = counting._scaled_sum(True, n, genus, staircases, 0, q_poly)
    assert Fraction(*exact) == full
    assert counting._scaled_sum(False, n, genus, staircases, 0, q_poly) == pytest.approx(float(full), abs=1e-9)
    if all(len(exps) >= n for exps, _c in q_poly.terms):
        assert full == 0 and exact == (0, 1)


def test_orbit_sum_refuses_an_off_weight_summand():
    # one P~_(1) at n = 3, genus 1: total degree 1, not divisible by 2m = 4,
    # so the shift by 2 turns the sum into -i times itself and it is 0
    assert quantum.evaluation_sum(3, 1, ((1,),)) == 0
    with pytest.raises(WeightConditionError, match="not divisible by 2m = 4"):
        orbit_trace(3, 1, ((1,),))
    with pytest.raises(WeightConditionError):
        counting._scaled_sum(True, 3, 1, 0, 0, ptilde_alpha((1,), 2))
    # a weight error is a failed proof (exit 1), never an input error (exit 2)
    assert issubclass(WeightConditionError, ArithmeticError)
    assert not issubclass(WeightConditionError, ValueError)


def test_orbit_sum_of_the_zero_integrand_is_zero():
    assert Fraction(*counting._scaled_sum(True, 3, 1, 0, 0, AlphaPolynomial(()))) == 0


@pytest.mark.parametrize("n", range(2, 9))
def test_orbit_rows_are_the_full_rows_at_the_representatives(n):
    m = n - 1
    orbits = quantum._orbits(m)
    full = quantum._point_table(n, False)
    rows = quantum._point_table(n, True)
    assert len(full) == 2 ** m and all(weight == 1 for weight, _e, _s in full)
    assert len(rows) == len(orbits)
    assert sum(weight for weight, _e, _s in rows) == 2 ** m
    index = [_residue_sets(m)[frozenset(residues)] for residues, _size in orbits]
    for (_r, size), (weight, elem, schur), i in zip(orbits, rows, index):
        assert weight == size
        assert (elem, schur) == full[i][1:]
    full_rho = quantum._ptilde_rho(n, False)
    assert len(full_rho) == 2 ** m
    assert list(quantum._ptilde_rho(n, True)) == [full_rho[i] for i in index]


GENERA = tuple(range(13)) + (64, 200, 401)


def _integrand_at(q_poly, evals, order):
    # (num, den) with num / den the integrand at a_i = e_i/2, from the
    # elementary values [e_0, ..., e_m] in Z[w]; variables beyond m are zero
    phi = len(evals[0])
    den = math.lcm(1, *(c.denominator << sum(exps) for exps, c in q_poly.terms))
    num = [0] * phi
    for exps, coeff in q_poly.terms:
        if any(k and i >= len(evals) for i, k in enumerate(exps, 1)):
            continue
        term = [int(coeff * den) >> sum(exps)] + [0] * (phi - 1)
        for i, k in enumerate(exps, 1):
            if k:
                term = int_mul(term, int_pow(evals[i], k, order), order)
        num = [a + b for a, b in zip(num, term)]
    return num, den


def _per_representative(n, genus, insertions=(), q_poly=None):
    # The orbit formula one representative at a time: the product of the
    # insertions and the integrand, times S_rho^(genus-1) by square and
    # multiply (S_rho^-1 = b / den at genus 0), one trace and one Fraction each.
    order = quantum.session_order(n)
    total = Fraction(0)
    for size, elem, base in quantum._point_table(n, True):
        memo = {}
        value, den = elem[0], 1
        for lam in insertions:
            value = int_mul(value, _int_ptilde(lam, elem, order, memo), order)
            den <<= len(lam)
        if q_poly is not None:
            integrand, qden = _integrand_at(q_poly, elem, order)
            value = int_mul(value, integrand, order)
            den *= qden
        if genus == 0:
            base, norm = int_inverse(base, order)
            den *= norm
        value = int_mul(value, int_pow(base, abs(genus - 1), order), order)
        total += Fraction(size * trace(value, order), den)
    return total / field_degree(order)


def _engine_cases(n):
    # (genus, insertions, q_poly) on the weight condition: 0..4 staircase
    # insertions at every genus, then other insertions and, for n <= 5,
    # a P~ integrand at every third genus
    rng = random.Random(100 + n)
    m = n - 1
    basis = all_strict(m)
    cases = [(g, (rho(m),) * p, None) for g in GENERA for p in range(5) if _admissible(n, g, (rho(m),) * p)]
    for g in GENERA[::3]:
        for _ in range(50 if n > 2 else 0):  # n = 2 has no class but 1 and rho
            insertions = tuple(rng.choice(basis[1:-1]) for _ in range(rng.randint(1, 3)))
            if _admissible(n, g, insertions):
                cases.append((g, insertions, None))
                break
        for _ in range(50 if n <= 5 else 0):
            factor, insertions = rng.choice(basis[1:]), (rho(m),) * rng.randint(0, 2)
            if _admissible(n, g, insertions + (factor,)):
                cases.append((g, insertions, ptilde_alpha(factor, m) * Fraction(rng.randint(1, 5), 3)))
                break
    return cases


@pytest.mark.parametrize("n", range(2, 9))
def test_the_engine_equals_the_point_sum_and_the_per_representative_formula(n, full_point_sum):
    staircase = rho(n - 1)
    cases = _engine_cases(n)
    assert {len(ins) for _g, ins, q in cases if set(ins) <= {staircase} and q is None} == set(range(5))
    expected = {}
    for genus, insertions, q_poly in cases:
        expected[genus, insertions, q_poly] = value = _per_representative(n, genus, insertions, q_poly)
        # the sum over all 2^m points: symfunc's public evaluators to n = 7;
        # at n = 8, where they take seconds per point set, quantum's exact
        # full sum, for the staircase cases
        if n <= 7:
            assert value == full_point_sum(n, genus, insertions, q_poly).as_rational()
        elif set(insertions) <= {staircase}:
            assert value == quantum.evaluation_sum(n, genus, insertions).as_rational()

    def ask(calls):
        # an integrand's cases go through counting, which reads it as insertions
        for genus, insertions, q_poly in calls:
            got = (orbit_trace(n, genus, insertions) if q_poly is None
                   else counting._scaled_sum(True, n, genus, len(insertions), 0, q_poly))
            assert Fraction(*got) == expected[genus, insertions, q_poly], (genus, insertions, q_poly)

    # descending first grows the ladder to the top bit at once and ascending
    # reads it; after a clear, ascending grows it one bit at a time
    descending = sorted(cases, key=lambda case: -case[0])
    quantum.orbit_trace.cache_clear()
    ask(descending)
    ask(descending[::-1])
    quantum.orbit_trace.cache_clear()
    ask(descending[::-1])
    order = quantum.session_order(n)
    for rungs in quantum._schur_ladder(n):
        assert len(rungs) == (401 - 1).bit_length()
        assert all(b == int_mul(a, a, order) for a, b in zip(rungs, rungs[1:]))


def test_a_warm_orbit_sum_multiplies_once_per_extra_bit(monkeypatch):
    # with the duals and the ladder warm, S_rho^(g-1) costs popcount(g-1) - 1
    # multiplies per representative, and nothing else multiplies; the power
    # is then kept per (n, genus), so the same call again multiplies nothing
    n = 5
    reps = orbit_count(n)
    cases = [(genus, ()) for genus in (401, 257, 65, 13, 5, 1)] + [(0, (rho(4),))]
    for genus, insertions in cases:
        orbit_trace(n, genus, insertions)
    calls = []
    real = quantum.int_mul
    monkeypatch.setattr(quantum, "int_mul", lambda *args: calls.append(args) or real(*args))
    for genus, insertions in cases:
        quantum._orbit_powers.cache_clear()
        calls.clear()
        assert Fraction(*orbit_trace(n, genus, insertions)) == _per_representative(n, genus, insertions)
        assert len(calls) == reps * max(bin(genus - 1).count("1") - 1, 0), genus
        calls.clear()
        orbit_trace(n, genus, insertions)
        assert calls == [], genus


def test_orbit_sum_refuses_a_negative_genus():
    with pytest.raises(ValueError, match="genus"):
        orbit_trace(3, -3)
