"""The affine orbits of the evaluation points, the one integer point table at
every point and at the orbit representatives, and the exact orbit sum, against
the sum over all 2^m points (quantum.evaluation_sum, and the symfunc oracle
for integrands)."""

import math
import random
from fractions import Fraction

import pytest

from ogq import quantum
from ogq.partitions import all_strict, rho, weight
from ogq.quantum import WeightConditionError, eval_points, orbit_count, orbit_sum
from ogq.symfunc import AlphaPolynomial, ptilde_alpha

ORBIT_COUNTS = {1: 1, 2: 1, 3: 2, 4: 1, 5: 3, 6: 4, 7: 5, 8: 3, 9: 11, 10: 13, 11: 15, 12: 31}


@pytest.mark.parametrize("m", sorted(ORBIT_COUNTS))
def test_orbit_counts_and_sizes(m):
    orbits = quantum._orbits(m)
    assert len(orbits) == ORBIT_COUNTS[m] == orbit_count(m + 1)
    assert sum(size for _index, size in orbits) == 2 ** m


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
    points = {frozenset(t % order for t in ep.doubled) for ep in eval_points(m)}
    covered: set[frozenset] = set()
    for index, size in quantum._orbits(m):
        orbit = _closure(frozenset(t % order for t in eval_points(m)[index].doubled), order)
        assert orbit <= points
        assert len(orbit) == size
        assert not orbit & covered
        covered |= orbit
    assert covered == points


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
        assert orbit_sum(n, genus, insertions) == full, (genus, insertions)
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
        assert orbit_sum(n, genus, insertions, q_poly) == full, (genus, insertions, factors)
        checked += 1


def test_orbit_sum_refuses_an_off_weight_summand():
    # one P~_(1) at n = 3, genus 1: total degree 1, not divisible by 2m = 4,
    # so the shift by 2 turns the sum into -i times itself and it is 0
    assert quantum.evaluation_sum(3, 1, ((1,),)) == 0
    with pytest.raises(WeightConditionError, match="not divisible by 2m = 4"):
        orbit_sum(3, 1, ((1,),))
    with pytest.raises(WeightConditionError):
        orbit_sum(3, 1, (), ptilde_alpha((1,), 2))
    # a weight error is a failed proof (exit 1), never an input error (exit 2)
    assert issubclass(WeightConditionError, ArithmeticError)
    assert not issubclass(WeightConditionError, ValueError)


def test_orbit_sum_of_the_zero_integrand_is_zero():
    assert orbit_sum(3, 1, (), AlphaPolynomial(())) == 0


@pytest.mark.parametrize("n", range(2, 9))
def test_orbit_rows_are_the_full_rows_at_the_representatives(n):
    m = n - 1
    orbits = quantum._orbits(m)
    full = quantum._point_table(n, False)
    rows = quantum._point_table(n, True)
    assert len(full) == 2 ** m and all(weight == 1 for weight, _e, _s in full)
    assert len(rows) == len(orbits)
    assert sum(weight for weight, _e, _s in rows) == 2 ** m
    for (index, size), (weight, elem, schur) in zip(orbits, rows):
        assert weight == size
        assert (elem, schur) == full[index][1:]
    full_rho = quantum._ptilde_rho(n, False)
    assert len(full_rho) == 2 ** m
    assert list(quantum._ptilde_rho(n, True)) == [full_rho[index] for index, _size in orbits]
