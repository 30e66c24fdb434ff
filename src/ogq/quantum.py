"""Gromov-Witten invariants of the maximal orthogonal Grassmannian OG(n)_0.

The ambient space is one component OG(n)_0 of the space of maximal isotropic
subspaces of a 2n-dimensional orthogonal vector space.  Its Schubert classes
tau_lambda are indexed by strict partitions lambda inside {1..n-1}, and the
genus-g degree-d invariants with those insertions are computed by a closed
finite sum: writing m = n-1 and zeta = exp(pi*i/m), the sum runs over the 2^m
admissible evaluation tuples zeta^J, each contributing the (g-1)-th power of
the staircase Schur value S_rho(zeta^J) times the product of the Schubert
polynomials P~_lambda(zeta^J) of the insertions.  Everything is exact: zeta^j
lives in the cyclotomic field of order 4m (the exponents j are half-integers
when m is even, so doubled exponents are used throughout).

At a point, the elementary values, S_rho and 2^len(lambda) * P~_lambda lie in
Z[w].  One integer table (_point_table) holds S_rho, and e where a caller
reads it, at every point or at the orbit representatives, built from the
exponents by signed rotations.  Every staircase factor 2^m * P~_rho is +-r,
r^2 = 2^(m-1) * e_m, with its sign read mod a prime p (_ptilde_rho): the
square is checked mod p, not proved (sign_check_prime).
The public symfunc evaluators stay the independent oracle in the tests.

The sum is invariant under the affine maps J -> aJ + b of the doubled
exponents mod 4m, a a unit and b even, whenever the summand's total degree
in the coordinates is divisible by 2m (the weight condition): the unit acts
as the Galois automorphism w -> w^a, and the shift multiplies the summand
by zeta^(b/2 * degree) = 1.  So the sum over all 2^m points equals
(1/phi(4m)) * sum over the orbits O of |O| * Tr(summand at a representative
of O), a few traces where there are 2^m points (4 orbits for 64 points at
n = 7; _orbits walks the residue sets as bit masks).  orbit_trace carries
that exact route for the counts and n_tilde, over one denominator, on
insertions only (an integrand arrives as single-row insertions).  It
caches, per insertions, the trace dual of the genus-free factors at each
representative (_orbit_duals), and reads S_rho^(genus-1) from the one store
of S_rho^k, squares and powers, at the representatives and at the points
(_schur_power), so a call at a seen (n, genus) takes one inner product per
representative.
The structure table's genus-0 three-point numbers are each the integer trace
of one fused dot, one per unordered index triple of admissible weight; it is
kept once, as index rows (table_rows), and structure_table builds its
TableEntry objects from them on each call.

evaluation_sum keeps the sum over all 2^m points, exact (products in Z[w],
P~_rho by the same sign route mod p, then one CycloNum product by the S_rho
power from the same store) or in complex doubles from the complex points
alone (every P~ by _pair_pfaffian, the evaluator that also gives P~_rho's
sign mod p), building only the classes it reads.  It carries gw_invariant
(hence three_point) and every float route, which shares only the residues
and the formula with the exact routes.  The table rows yield one cached
quantum ring, at q = 1 on integers (_product_lookup): per class,
multiplication rows over the basis positions.  The graded quantum product reads each degree back from the
weights, as the table fixes it; the quantum Euler class and an independent
trace-formula route to every positive-genus invariant (_mult_trace_weights)
multiply in the same rows, cross-checking the direct sum.

The size budgets live here, four caps and one checker (check_budget) called
where each route starts.  A verdict is a library type: a Refusal (not
applicable, not covered, past a budget) or a cyclotomic.ProofFailure (a
failed self-check); as_count is the one check that a value is a count,
and scaled_double the one rule that a float route's value is a finite double.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial, reduce

from . import partitions
from .cyclotomic import (CycloNum, ProofFailure, _reduce, field_degree, fused_dot, int_inverse, int_mul,
                         root_of_unity, trace_dual, zero)
from .partitions import InvalidInput, Partition
from .symfunc import _int_ptilde


class Refusal(ValueError):
    """The query is declined with a reason, not answered: not applicable, not
    covered, or past a size budget."""


class SizeBudgetError(Refusal):
    """n is past the route's size budget; refused before any point or orbit is built."""


class UnsupportedRankError(InvalidInput):
    pass


class NegativeDegreeError(InvalidInput):
    pass


class GenusTooSmallError(InvalidInput):
    pass


class NonIntegralResultError(ProofFailure):
    pass


class StaircaseSignError(ProofFailure):
    """2^m * P~_rho is neither r nor -r mod p at a row: the staircase square fails."""


class WeightConditionError(ProofFailure):
    """An orbit sum was asked for a summand off the weight condition.

    The full point sum of such a summand is 0, but the orbit formula would
    give a wrong nonzero value, so this is a failed proof, not bad input."""


# The size budgets, the largest n per route (check_budget).  The table grows
# as the cube of its 2^(n-1) classes.  gw's sums run over all 2^(n-1) points
# for any classes: a cold exact sum of four of the longest takes 1.22 s at
# n = 10 (BENCH_33.json's gw_n10_four_long, CPU on a 2-CPU x86-64 VM) and
# about 13 s at n = 11 (not re-measured).  The exact counts walk the 2^(n-1)
# residue sets once (n = 20, rank 40: 0.73 s, BENCH_33.json's count_3_40_0);
# the float counts sum all 2^(n-1) points.
TABLE_MAX_N, GW_SUM_MAX_N, EXACT_MAX_N, FLOAT_MAX_N = 9, 10, 20, 12
_CAPS = {"table": TABLE_MAX_N, "gw": GW_SUM_MAX_N, "exact": EXACT_MAX_N, "float": FLOAT_MAX_N}


def check_budget(n: int, route: str) -> None:
    """Raise SizeBudgetError when n is past the cap of route, before any point
    or orbit is built: "table" (the structure table and its readers), "gw"
    (gw's sums on the weight condition), "exact" or "float" (the counts)."""
    limit = _CAPS[route]
    if n <= limit:
        return
    if route == "table":
        budget = f"the table budget of 2^(n-1) <= {2 ** (limit - 1)} classes"
    elif route == "gw":
        budget = f"the size budget of gw, n <= {limit}: its sum runs over all 2^(n-1) points"
    else:
        budget = f"the size budget of the {route} route, n <= {limit}"
    raise SizeBudgetError(f"n = {n} is past {budget}")


def as_count(num: int, den: int, context: str) -> int:
    """num / den (den > 0) as a nonnegative integer, else NonIntegralResultError:
    the check every count, invariant and structure constant passes."""
    value, rest = divmod(num, den)
    if rest or value < 0:
        raise NonIntegralResultError(f"{context}: expected a nonnegative integer, got {Fraction(num, den)}")
    return value


def scaled_double(total: complex, exponent: int) -> float:
    """2^exponent * Re(total), a float route's value, or OverflowError past
    the range of a double (as 2.0 ** exponent itself raises), never inf."""
    value = (2.0 ** exponent * total).real
    if not math.isfinite(value):
        raise OverflowError(f"2^{exponent} times the float sum is not a finite double")
    return value


def session_order(n: int) -> int:
    """Cyclotomic order 4(n-1) carrying all evaluation values for OG(n)_0."""
    return 4 * (n - 1)


class EvalPoint(namedtuple("EvalPoint", "doubled point")):
    """One admissible evaluation tuple.

    `doubled` holds the strictly increasing doubled exponents 2*j, so the
    k-th coordinate of `point` (a tuple of CycloNum) is w^(2*j_k) = zeta^(j_k)
    for w the primitive root of order 4m.
    """

    __slots__ = ()


@lru_cache(maxsize=None)
def eval_points(m: int) -> tuple[EvalPoint, ...]:
    """The 2^m evaluation tuples for m >= 1, in deterministic order.

    The admissible window holds 2m consecutive (half-)integer exponents and
    splits into m antipodal pairs (j, j+m); a tuple picks one member of each
    pair, sorted increasingly.  No two chosen exponents may differ by m
    modulo 2m, which is exactly the one-per-pair condition.
    """
    if m < 1:
        raise UnsupportedRankError("need m >= 1")
    order = 4 * m
    base = [-m + 1 + 2 * i for i in range(m)]
    # Only the order's 4m roots occur as coordinates: build each once.
    roots = [root_of_unity(order, t) for t in range(order)]
    out = []
    for mask in range(1 << m):
        doubled = tuple(
            sorted(b + 2 * m if mask & (1 << i) else b for i, b in enumerate(base))
        )
        point = tuple(roots[t % order] for t in doubled)
        out.append(EvalPoint(doubled, point))
    return tuple(out)


def _residues(m: int, mask: int) -> tuple[int, ...]:
    # eval_points(m)[mask]'s doubled exponents mod 4m
    return tuple((2 * i - m + 1 + (2 * m if mask >> i & 1 else 0)) % (4 * m) for i in range(m))


@lru_cache(maxsize=None)
def _orbits(m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(residues mod 4m, orbit size) per orbit of the affine maps J -> aJ + b
    mod 4m, gcd(a, 4m) = 1 and b even, on the doubled exponents.

    A point holds one of each antipodal pair (t, t + 2m) of the residues of
    its parity: a 2m-bit word, bit k for m + 1 + 2k, whose low m bits are
    eval_points' mask.  A shift by 2s rotates the word by s, a unit permutes
    its bits.  The first unseen mask in eval_points order represents its
    orbit, and every image in the orbit is marked seen.
    """
    width, low, full, order = 2 * m, (1 << m) - 1, (1 << 2 * m) - 1, 4 * m
    perms = [[(a * (m + 1 + 2 * k) - m - 1) % order // 2 for k in range(width)]
             for a in range(1, order) if math.gcd(a, order) == 1]
    seen, out, mask = bytearray(1 << m), [], 0
    while (mask := seen.find(0, mask)) >= 0:
        bits = [i if mask >> i & 1 else i + m for i in range(m)]
        orbit = set()
        for perm in perms:
            image = sum(1 << perm[k] for k in bits)
            orbit.update((image << s | image >> width - s) & full for s in range(width))
        for image in orbit:
            seen[image & low] = 1
        out.append((_residues(m, mask), len(orbit)))
    return tuple(out)


def orbit_count(n: int) -> int:
    """How many orbit representatives orbit_trace visits for OG(n)_0, against
    2^(n-1) evaluation points."""
    if n < 2:
        raise UnsupportedRankError(f"n must be >= 2, got {n}")
    return len(_orbits(n - 1))


class GWQuery(namedtuple("GWQuery", "n genus degree insertions")):
    """A single invariant: rank parameter n, genus, degree, insertions (a
    tuple of partitions, each validated for OG(n)_0)."""

    __slots__ = ()

    def __new__(cls, n: int, genus: int, degree: int, insertions):
        if n < 2:
            raise UnsupportedRankError(f"n must be >= 2, got {n}")
        if genus < 0:
            raise InvalidInput(f"genus must be >= 0, got {genus}")
        if degree < 0:
            raise NegativeDegreeError(f"degree must be >= 0, got {degree}")
        ins = tuple(partitions.validate(lam, n - 1) for lam in insertions)
        return super().__new__(cls, n, genus, degree, ins)


def admissible_degree(n: int, genus: int, insertions) -> int | None:
    """The one degree d >= 0 meeting the weight condition, total insertion
    weight = n(n-1)(1-g)/2 + 2(n-1)d, or None when no degree does.

    >>> admissible_degree(2, 0, ((1,), (1,), (1,)))
    1
    """
    excess = sum(partitions.weight(lam) for lam in insertions) - n * (n - 1) * (1 - genus) // 2
    if excess < 0 or excess % (2 * (n - 1)):
        return None
    return excess // (2 * (n - 1))


def degree_ok(query: GWQuery) -> bool:
    """Whether the query's degree is the admissible one."""
    return admissible_degree(query.n, query.genus, query.insertions) == query.degree


def _turn(v: list[int], t: int) -> list[int]:
    # v * w^t in Z[x]/(x^h + 1), h = len(v), where w^h = -1: a signed rotation.
    h, k = len(v), t % len(v)
    if t // h % 2:
        return v[h - k:] + [-c for c in v[:h - k]]
    return [-c for c in v[h - k:]] + v[:h - k]


def _elementary(residues: tuple[int, ...], order: int) -> list[list[int]]:
    # [e_0, ..., e_m] at the point x_i = w^t_i, by signed rotations mod
    # x^(order/2) + 1 (at even order, w^(order/2) = -1), reduced mod Phi once per value
    values = [[1] + [0] * (order // 2 - 1)]
    for t in residues:
        turned = [_turn(e, t) for e in values]
        values = values[:1] + [list(map(operator.add, e, x)) for e, x in zip(values[1:], turned)] + turned[-1:]
    return [_reduce(e, order) for e in values]


def _staircase_schur(residues: tuple[int, ...], order: int) -> list[int]:
    # S_rho = e_m * prod_{i<j} (x_i + x_j) at the same point, as the monomial
    # e_m * prod_i x_i^(m-1-i) times prod_{i<j} (1 + w^(t_j - t_i))
    schur = [1] + [0] * (order // 2 - 1)
    for s, t in itertools.combinations(residues, 2):
        schur = list(map(operator.add, schur, _turn(schur, t - s)))
    m = len(residues)
    return _reduce(_turn(schur, sum((m - i) * t for i, t in enumerate(residues))), order)


def _rows(n: int, orbits: bool):
    # (residues, weight) per row of _point_table(n, orbits)
    m = n - 1
    return _orbits(m) if orbits else ((_residues(m, mask), 1) for mask in range(1 << m))


@lru_cache(maxsize=None)
def _point_table(n: int, orbits: bool, elem: bool = True) -> tuple[tuple[int, list | None, list[int]], ...]:
    # Per row, as Z[w] coefficient lists: its weight, [e_0, ..., e_m] (None
    # unless elem; readers of e call with two arguments) and S_rho, at every
    # point in eval_points order (weight 1) or, with orbits, at the orbit
    # representatives (weight |O|), all from the residues.  The rows with e
    # take S_rho from the rows without, which check once that it is nonzero.
    order = session_order(n)
    if elem:
        return tuple((w, _elementary(residues, order), s)
                     for (residues, _), (w, _e, s) in zip(_rows(n, orbits), _point_table(n, orbits, False)))
    rows = tuple((size, None, _staircase_schur(residues, order)) for residues, size in _rows(n, orbits))
    if zero := [residues for (residues, _), (_w, _e, s) in zip(_rows(n, orbits), rows) if not any(s)]:
        raise ProofFailure(f"S_rho is 0 at the residues {zero[0]} of n = {n}, where no two coordinates are antipodal")
    return rows


@lru_cache(maxsize=None)
def sign_check_field(n: int) -> tuple[int, int]:
    """(p, root) mod which _ptilde_rho reads P~_rho's sign for OG(n)_0: the
    least prime p = 1 (mod 4m), and a root of unity of order exactly 4m mod p,
    a root of Phi_4m, so w -> root maps Z[w] to F_p."""
    order = session_order(n)
    p = order + 1
    while not all(p % d for d in range(2, math.isqrt(p) + 1)):
        p += order
    primes = [q for q in range(2, order + 1) if order % q == 0 and all(q % d for d in range(2, q))]
    for a in range(2, p):
        if all(pow(root := pow(a, (p - 1) // order, p), order // q, p) != 1 for q in primes):
            return p, root


def _staircase_root(m: int, unit: int) -> list[int]:
    # r in Z[w] with r^2 = 2^(m-1) * e_m, e_m = unit = +-1: 2^((m-1)/2) for odd
    # m; for even m, 2^((m-2)/2) times zeta8 + zeta8^-1 = zeta8 - w^(3m/2)
    # (sqrt 2) when e_m = 1 and zeta8 + zeta8^3 = zeta8 + w^(3m/2) (sqrt -2)
    # when e_m = -1, with zeta8 = w^(m/2).
    if m % 2:
        return [1 << (m - 1) // 2] + [0] * (field_degree(4 * m) - 1)
    root = [0] * (2 * m)
    root[m // 2], root[3 * m // 2] = 1 << (m - 2) // 2, -unit << (m - 2) // 2
    return _reduce(root, 4 * m)


def _pair_pfaffian(parts: Partition, xs: list, inverse, norm):
    # 2^len * P~_parts, parts strict and at most m, at the point x_1..x_m of
    # any field (norm maps into it): the Pfaffian of the pair matrix, 4 *
    # P~_(a,b) = e_a e_b + 2 sum_k (-1)^k e_(a+k) e_(b-k), k = 1..b, with a 0
    # part appended for odd length, whose column is e_a.  With f_j = (-1)^j e_j
    # the sum is (-1)^a conv_a(a + b), conv_a(s) = sum over j > a of f_j
    # e_(s-j), grown over every j as a falls: O(m^2).
    m = len(xs)
    e = [1] + [0] * m
    for i, x in enumerate(xs, 1):
        for k in range(i, 0, -1):
            e[k] = norm(e[k] + x * e[k - 1])
    parts = list(parts) + [0] * (len(parts) % 2)
    rows = [[0] * len(parts) for _ in parts]
    conv = [0] * (2 * m + 1)
    for i, a in enumerate(parts[:-1]):  # the last row is filled by antisymmetry
        for j in range(parts[i - 1] if i else m, a, -1):
            f = -e[j] if j % 2 else e[j]
            for k in range(m + 1):
                conv[j + k] = norm(conv[j + k] + f * e[k])
        sign = -2 if a % 2 else 2
        for j in range(i + 1, len(parts)):
            value = norm(e[a] * e[parts[j]] + sign * conv[a + parts[j]])
            rows[i][j], rows[j][i] = value, norm(-value)
    # Elimination, O(m^3): with A_0j row 0's largest entry, clear the rest of
    # row and column 0 by the congruence row_i -= c_i row_j, col_i -= c_i
    # col_j, c_i = A_0i / A_0j; then Pf(A) = (-1)^(j-1) A_0j Pf(A') on the
    # other indices, A'_ik = A_ik - c_i A_jk + c_k A_ji.
    value = 1
    while rows:
        first = rows[0]
        j = max(range(1, len(rows)), key=list(map(abs, first)).__getitem__)
        pivot = rows[j]
        if not first[j]:
            return norm(0)
        value = norm(value * first[j] * (-1) ** (j - 1))
        inv = inverse(first[j])
        c = [norm(x * inv) for x in first]
        keep = [k for k in range(1, len(rows)) if k != j]
        rows = [[norm(rows[i][k] - c[i] * pivot[k] + c[k] * pivot[i]) for k in keep] for i in keep]
    return value


@lru_cache(maxsize=None)
def _ptilde_rho(n: int, orbits: bool) -> tuple[list[int], ...]:
    """2^m * P~_rho per row of _point_table(n, orbits), as +-r (_staircase_root).

    The sign is read from one Pfaffian of the pair matrix mod p, w sent to a
    primitive 4m-th root (sign_check_field).  r's norm is a power of two, so
    r and -r differ mod p, and given the staircase square the sign is exact.
    The square is a check mod p, not a proof: a value that is neither r nor
    -r mod p raises StaircaseSignError.
    """
    m, order = n - 1, session_order(n)
    p, root = sign_check_field(n)
    powers = [pow(root, k, p) for k in range(order)]
    roots = {unit: _staircase_root(m, unit) for unit in (1, -1)}
    images = {unit: sum(c * powers[k] for k, c in enumerate(r)) % p for unit, r in roots.items()}
    inverse, norm = partial(pow, exp=-1, mod=p), p.__rmod__
    out = []
    for residues, _size in _rows(n, orbits):
        # e_m = w^(sum t) = +-1: the base exponents sum to 0, each upper antipode adds 2m
        unit = -1 if sum(residues) % order else 1
        value = _pair_pfaffian(partitions.rho(m), [powers[t] for t in residues], inverse, norm)
        if value not in (images[unit], -images[unit] % p):
            raise StaircaseSignError(f"2^m * P~_rho at the residues {residues} of n = {n} is {value} mod {p}, "
                                     f"neither r nor -r: the staircase square fails")
        out.append([c if value == images[unit] else -c for c in roots[unit]])
    return tuple(out)


def sign_check_prime(n: int, insertions) -> int | None:
    """The prime p mod which an exact sum over these insertions read each P~_rho by its
    sign (_ptilde_rho, a check mod p, not a proof), or None with no staircase class."""
    return sign_check_field(n)[0] if partitions.rho(n - 1) in insertions else None


@lru_cache(maxsize=256)
def _orbit_duals(n: int, insertions: tuple[Partition, ...]) -> tuple[tuple[list[int], ...], int]:
    # orbit_trace's genus-free part, per sorted insertions: at each representative
    # the trace dual of |O| * prod of 2^len * P~_lam, and their one denominator.
    # Each key holds a dual per representative, hence the bound.  A staircase
    # factor is +-r (_ptilde_rho), multiplied in like any class; the elementary
    # values are built only for another class.
    m, order = n - 1, session_order(n)
    staircase = partitions.rho(m)
    rho_values = _ptilde_rho(n, True) if staircase in insertions else None
    elems = ([e for _w, e, _s in _point_table(n, True)] if set(insertions) - {staircase}
             else itertools.repeat(None))
    duals = []
    for k, ((_residues, size), elem) in enumerate(zip(_orbits(m), elems)):
        memo = {}
        factors = [rho_values[k] if lam == staircase else _int_ptilde(lam, elem, order, memo)
                   for lam in insertions]
        value = reduce(lambda a, b: int_mul(a, b, order), factors) if factors else [1]
        duals.append([size * t for t in trace_dual(value, order)])
    return tuple(duals), 1 << sum(map(len, insertions))


# The one store of S_rho^k, k != 0, squares and powers alike: per (n, orbits,
# k) its rows as (vectors b, denominators den) and their bits, least recently
# used first, in one order under one bit total (_held_bits).  A power past
# POWER_CACHE_BITS is used and not kept.  At n = 20 and genus near 400 one
# power is about 30 MB, at n <= 7 each a few kB.
POWER_CACHE_BITS, POWER_CACHE_KEYS = 1 << 25, 256
_Power = tuple[tuple[list[int], ...], tuple[int, ...]]
_powers: dict[tuple[int, bool, int], tuple[_Power, int]] = {}
_held_bits = 0


def _stored(key: tuple[int, bool, int]) -> _Power | None:
    # the power kept under key, now the most recently used, or None
    if key in _powers:
        _powers[key] = entry = _powers.pop(key)
        return entry[0]


def _keep(key: tuple[int, bool, int], power: _Power) -> None:
    global _held_bits
    vectors, dens = power
    bits = sum(map(int.bit_length, itertools.chain(dens, *vectors)))
    if bits <= POWER_CACHE_BITS:
        _powers[key] = power, bits
        _held_bits += bits
        while len(_powers) > POWER_CACHE_KEYS or _held_bits > POWER_CACHE_BITS:
            _held_bits -= _powers.pop(next(iter(_powers)))[1]


def _schur_power(n: int, orbits: bool, k: int) -> _Power:
    # S_rho^k per row of _point_table(n, orbits), as b / den row by row: the
    # product of the squares S_rho^(+-2^j) at |k|'s bits, each the square of
    # the one below it; for k < 0 the squares of b / den with S_rho * b = den
    # (int_inverse).  Every ell at one (n, genus), the odd-rank companion and
    # n_tilde there share one entry.
    if (power := _stored((n, orbits, k))) is not None:
        return power
    order, rows = session_order(n), _point_table(n, orbits, False)
    if k == 0:
        return ([1] + [0] * (field_degree(order) - 1),) * len(rows), (1,) * len(rows)
    size, sign, squares = abs(k), 1 if k > 0 else -1, {}
    # the squares this call reads, from the top bit down: one at each of |k|'s
    # bits and one below each square not kept; held here, so that one the
    # store drops within the call is not built again
    for j in range(size.bit_length() - 1, -1, -1):
        if size >> j & 1 or j + 1 in squares and squares[j + 1] is None:
            squares[j] = _stored((n, orbits, sign << j)) if j or sign < 0 else None
    for j in reversed(squares):
        if squares[j] is None and j:
            vectors, dens = squares[j - 1]
            dens = dens if sign > 0 else tuple(d * d for d in dens)
            squares[j] = tuple(int_mul(b, b, order) for b in vectors), dens
            _keep((n, orbits, sign << j), squares[j])
        elif squares[j] is None and sign < 0:
            squares[j] = tuple(zip(*(int_inverse(s, order) for _w, _e, s in rows)))
            _keep((n, orbits, -1), squares[j])
        elif squares[j] is None:  # S_rho itself, the point table's own, is not kept
            squares[j] = tuple(s for _w, _e, s in rows), (1,) * len(rows)
    chosen = [squares[j] for j in range(size.bit_length()) if size >> j & 1]
    if len(chosen) == 1:
        return chosen[0]
    # row by row, so that no second power's worth of partial products is held;
    # a positive power keeps its squares' denominators, all 1
    power = (tuple(reduce(lambda x, y: int_mul(x, y, order), row) for row in zip(*(v for v, _d in chosen))),
             chosen[0][1] if sign > 0 else tuple(map(math.prod, zip(*(d for _v, d in chosen)))))
    _keep((n, orbits, k), power)
    return power


def _forget_powers() -> None:
    global _held_bits
    _powers.clear()
    _held_bits = 0


_schur_power.cache_clear = _forget_powers


def orbit_trace(n: int, genus: int, insertions: tuple[Partition, ...] = ()) -> tuple[int, int]:
    """(numerator, denominator), not in lowest terms, of the closed formula's
    exact sum over all evaluation points (evaluation_sum's value), summed
    over their affine orbits: (1/phi(4m)) * sum over the orbits O of |O|
    times the trace of S_rho^(genus-1) * prod of P~_lam at O's representative.

    A term is the inner product of S_rho^(genus-1) from the power store
    (b / den at genus 0), with the cached trace dual of the rest; the terms
    share one denominator, so a caller divides once.  Raises
    WeightConditionError when the total degree is not divisible by 2m,
    where the orbit formula does not hold (the full sum is 0 there).
    """
    if n < 2:
        raise UnsupportedRankError(f"n must be >= 2, got {n}")
    if genus < 0:
        raise InvalidInput(f"genus must be >= 0, got {genus}")
    m = n - 1
    order = session_order(n)
    weight = (genus - 1) * m * (m + 1) // 2 + sum(partitions.weight(lam) for lam in insertions)
    if weight % (2 * m):
        raise WeightConditionError(
            f"summand of total degree {weight} at n = {n}: not divisible by 2m = {2 * m}, "
            "so the orbit sum does not apply")
    duals, den = _orbit_duals(n, tuple(sorted(insertions)))
    powers, dens = _schur_power(n, True, genus - 1)
    if (common := 1 if genus else math.lcm(*dens)) > 1:  # genus 0: the terms over one denominator
        duals = [[c * (common // d) for c in dual] for d, dual in zip(dens, duals)]
    total = sum(sum(map(operator.mul, b, dual)) for b, dual in zip(powers, duals))
    return total, common * den * field_degree(order)


orbit_trace.cache_clear = lambda: [f.cache_clear() for f in (_orbit_duals, _schur_power)]


@lru_cache(maxsize=None)
def _tables(n: int) -> tuple[dict[Partition, list[int]], ...]:
    # Per point, _int_ptilde's memo: 2^len * P~ in Z[w] of the classes read
    # (_column) and their sub-Pfaffians, the same keys at every point.
    return tuple({} for _ in range(1 << n - 1))


@lru_cache(maxsize=64)
def _schur_powers(n: int, exponent: int) -> tuple[CycloNum, ...]:
    # S_rho^exponent at every point as CycloNum, for the exact full sum: a
    # view of the power store at the points, which builds nothing itself
    order = session_order(n)
    return tuple(CycloNum.from_ints(order, b, den) for b, den in zip(*_schur_power(n, False, exponent)))


@lru_cache(maxsize=None)
def _float_tables(n: int) -> tuple[dict[Partition, complex], ...]:
    # Per point, P~ in complex doubles of the classes a float sum has read.
    return tuple({} for _ in range(1 << n - 1))


def _complex_points(n: int) -> list[list[complex]]:
    # x_k = exp(i pi t_k / 2m) in complex doubles at every point, from the residues
    roots = [cmath.exp(1j * math.pi * t / (2 * n - 2)) for t in range(session_order(n))]
    return [[roots[t] for t in residues] for residues, _w in _rows(n, False)]


def _column(n: int, lam: Partition, exact: bool) -> list:
    # 2^len * P~_lam at every point in Z[w] (exact), else P~_lam in complex
    # doubles by _pair_pfaffian at the complex points, with nothing from the
    # exact route; built into the tables on the first read, in point order,
    # so a build cut short misses the last point.
    tables = _tables(n) if exact else _float_tables(n)
    if lam not in tables[-1]:
        if exact:
            for (_w, elem, _s), memo in zip(_point_table(n, False), tables):
                _int_ptilde(lam, elem, session_order(n), memo)
        else:
            for xs, slot in zip(_complex_points(n), tables):
                slot[lam] = _pair_pfaffian(lam, xs, (1 + 0j).__truediv__, operator.pos) / 2 ** len(lam)
    return [table[lam] for table in tables]


@lru_cache(maxsize=None)
def _float_schur(n: int) -> tuple[complex, ...]:
    # S_rho = e_m * prod_{i<j} (x_i + x_j) at every complex point, for the float route
    return tuple(math.prod(xs) * math.prod(x + y for x, y in itertools.combinations(xs, 2))
                 for xs in _complex_points(n))


def evaluation_sum(n: int, genus: int, insertions: tuple[Partition, ...] = (), *,
                   exact: bool = True) -> CycloNum | complex:
    """The closed formula's sum over the evaluation points of OG(n)_0:
    S_rho^(genus-1) * prod of P~_lam over the insertions.

    A CycloNum when exact: a point multiplies 2^len * P~_lam in Z[w] (P~_rho
    by its sign mod p), then once in CycloNum, over 2^(sum of lengths), by
    S_rho^(genus-1) from the power store at the points (_schur_powers).
    Otherwise a complex double from the complex points alone, every class
    (P~_rho too) a complex Pfaffian.
    """
    if n < 2:
        raise UnsupportedRankError(f"n must be >= 2, got {n}")
    order, staircase = session_order(n), partitions.rho(n - 1)
    columns = [_ptilde_rho(n, False) if exact and lam == staircase else _column(n, lam, exact) for lam in insertions]
    if not exact:
        spows = [s ** (genus - 1) for s in _float_schur(n)]
        return sum((reduce(operator.mul, row) for row in zip(*columns, spows)), 0j)
    mul, den = partial(int_mul, order=order), 1 << sum(map(len, insertions))
    return sum((CycloNum.from_ints(order, reduce(mul, row), den) * s if row else s
                for *row, s in zip(*columns, _schur_powers(n, genus - 1))), zero(order))


def gw_invariant(query: GWQuery) -> int:
    """The genus-g degree-d invariant with the given insertions.

    Zero when the weight condition fails; otherwise 4^d times evaluation_sum,
    over all 2^(n-1) evaluation tuples of S_rho^(g-1) times the product of
    insertion values, refused past n = GW_SUM_MAX_N.  The result is checked
    to be rational (NotRationalError) and a nonnegative integer.  A staircase
    insertion takes P~_rho at every point by its sign mod a prime
    (_ptilde_rho, sign_check_field): that step is checked mod p, not proved.

    >>> gw_invariant(GWQuery(2, 0, 1, ((1,), (1,), (1,))))
    1
    """
    if not degree_ok(query):
        return 0
    check_budget(query.n, "gw")
    total = (evaluation_sum(query.n, query.genus, query.insertions) * Fraction(4) ** query.degree).as_rational()
    return as_count(total.numerator, total.denominator, f"invariant {query}")


def gw_invariant_float(query: GWQuery) -> float:
    """Float fast path for the same sum, from the complex points, under the
    same budget; raises OverflowError when the result is not a finite double."""
    if not degree_ok(query):
        return 0.0
    check_budget(query.n, "gw")
    return scaled_double(evaluation_sum(query.n, query.genus, query.insertions, exact=False), 2 * query.degree)


def three_point(n: int, lam, mu, nu, d: int) -> int:
    """Structure-constant invariant: genus 0, insertions lam, mu and the
    Poincare dual of nu."""
    m = n - 1
    ins = (
        partitions.validate(lam, m),
        partitions.validate(mu, m),
        partitions.dual(nu, m),
    )
    return gw_invariant(GWQuery(n, 0, d, ins))


class TableEntry(namedtuple("TableEntry", "lam mu nu d c")):
    __slots__ = ()


def structure_table(n: int, max_d: int | None = None) -> tuple[TableEntry, ...]:
    """All nonzero quantum structure constants c^{nu,d}_{lam,mu} for the
    given n, ordered by (lam, mu, d, nu); with max_d, those with d <= max_d.

    tau_lam * tau_mu = sum over (nu, d) of c q^d tau_nu, where c is the
    genus-0 three-point number against the dual of nu and the admissible d
    satisfy |nu| = |lam| + |mu| - 2(n-1)d.  The entries are built on each
    call from the cached index rows (table_rows).
    """
    rows = table_rows(n, max_d)  # first: it refuses max_d < 0, n < 2 and n past the table budget
    basis = partitions.all_strict(n - 1)
    return tuple(TableEntry(basis[i], basis[j], basis[k], d, c) for i, j, d, k, c in rows)


def table_rows(n: int, max_d: int | None = None) -> tuple[tuple[int, int, int, int, int], ...]:
    """structure_table(n, max_d) as rows (i, j, d, k, c) of indices into
    partitions.all_strict(n - 1), so c^{basis[k],d}_{basis[i],basis[j]} = c."""
    if max_d is not None and max_d < 0:
        raise NegativeDegreeError(f"max_d must be >= 0, got {max_d}")
    full = _structure_table(n)
    return full if max_d is None else tuple(row for row in full if row[2] <= max_d)


@lru_cache(maxsize=None)
def _structure_table(n: int) -> tuple[tuple[int, int, int, int, int], ...]:
    # orbit_trace at genus 0, fused on Z[w] ints at the representatives:
    # vector 0 is |O| * S_rho^-1 = |O| * b / den (int_inverse), vector i+1 is
    # 2^len * P~ of basis[i] over 2^len; a three-point number is 4^d / phi
    # times the integer trace that one dot returns, over those denominators.
    if n < 2:
        raise UnsupportedRankError(f"n must be >= 2, got {n}")
    check_budget(n, "table")
    m = n - 1
    order = session_order(n)
    basis = partitions.all_strict(m)
    vectors: list[list[list[int]]] = [[] for _ in range(len(basis) + 1)]
    inverses = []
    for (size, elem, _s), inv, den in zip(_point_table(n, True), *_schur_power(n, True, -1)):
        # lowest terms keep the common denominator, hence the slot, small
        g = math.gcd(den, *(size * c for c in inv))
        inverses.append(([size * c // g for c in inv], den // g))
        memo: dict[Partition, list[int]] = {}
        for vec, lam in zip(vectors[1:], basis):
            vec.append(_int_ptilde(lam, elem, order, memo))
    common = math.lcm(*(den for _inv, den in inverses))
    vectors[0] = [[c * (common // den) for c in inv] for inv, den in inverses]
    dot = fused_dot(vectors, order)
    scale = common * field_degree(order)
    weights = [partitions.weight(lam) for lam in basis]
    by_weight = {w: [c for c, x in enumerate(weights) if x == w] for w in set(weights)}
    duals = [basis.index(partitions.dual(lam, m)) for lam in basis]
    top = m * (m + 1) // 2
    # The three-point number is symmetric in its insertions: sum each
    # unordered triple a <= b <= c of weight top + 2md once, in (a, b) order so
    # that dot keeps the product of vectors 0, a and b, and emit it for each of
    # its 1, 3 or 6 distinct orderings; basis is sorted, so rows of indices
    # sort as entries.
    rows = []
    for a, b in itertools.combinations_with_replacement(range(len(basis)), 2):
        pair, pair_den = weights[a] + weights[b], scale << len(basis[a]) + len(basis[b])
        for d in range(pair // (2 * m) + 1):
            ends = by_weight.get(top + 2 * m * d - pair, ())
            for c in ends[bisect.bisect_left(ends, b):]:
                value, den = dot(0, a + 1, b + 1, c + 1) * 4 ** d, pair_den << len(basis[c])
                count, rest = divmod(value, den)
                if rest or count < 0:
                    as_count(value, den, f"three-point {basis[a], basis[b], basis[c]}")
                if count:
                    turns = [(a, b, c), (b, c, a), (c, a, b)][:1 if a == c else 3]
                    turns += [(i, k, j) for i, j, k in turns] if a != b != c else []
                    rows += [(i, j, d, duals[k], count) for i, j, k in turns]
    rows.sort()
    return tuple(rows)


# The one cache behind every spelling of a structure_table call, the rows
# keyed by n; clearing it also clears the ring built from them.
structure_table.cache_info = _structure_table.cache_info
structure_table.cache_clear = lambda: [f.cache_clear() for f in (_structure_table, _product_lookup,
                                                                 _mult_trace_weights)]


def table_json_dict(n: int, max_d: int | None = None) -> dict:
    """JSON-ready structure table; coefficients as decimal strings."""
    rows = table_rows(n, max_d)
    label = [partitions.format_partition(lam) for lam in partitions.all_strict(n - 1)]
    entries = [{"lambda": label[i], "mu": label[j], "nu": label[k], "d": d, "c": str(c)}
               for i, j, d, k, c in rows]
    return {"schema": "ogq-table/1", "n": n, "max_d": max_d, "entries": entries}


@lru_cache(maxsize=None)
def _product_lookup(n: int) -> tuple[dict[Partition, list[dict[int, int]]], dict[Partition, int], list[Partition]]:
    # The quantum ring at q = 1 on basis positions: per class mu, multiplication
    # by it as rows i -> {k: c^{k,d}_{i,mu}} in the table's (d, k) order; each
    # class's position; the basis.  |nu| = |lam| + |mu| - 2(n-1)d fixes d, so
    # q = 1 loses nothing: quantum_product reads d back from the weights.
    rows = table_rows(n)  # first: it refuses n past the table budget
    basis = partitions.all_strict(n - 1)
    mult: list[list[dict[int, int]]] = [[{} for _ in basis] for _ in basis]
    for i, j, _d, k, c in rows:
        mult[j][i][k] = c
    return dict(zip(basis, mult)), {lam: i for i, lam in enumerate(basis)}, basis


class QuantumElement:
    """A finite combination sum c * q^d * tau_lambda with rational c, an int
    when integral: a Fraction only after a non-integral scale.  `terms` maps
    (lambda, d) to c; elements compare by their terms and are unhashable."""

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms: dict[tuple[Partition, int], int | Fraction]):
        clean = {}
        for (lam, d), c in terms.items():
            if type(c) is not int and (c := Fraction(c)).denominator == 1:
                c = c.numerator
            if c:
                clean[(tuple(lam), d)] = c
        self.terms = clean

    def __eq__(self, other):
        return self.terms == other.terms if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"QuantumElement(terms={self.terms!r})"

    @staticmethod
    def basis(lam, d: int = 0) -> "QuantumElement":
        return QuantumElement({(tuple(lam), d): 1})

    @staticmethod
    def zero() -> "QuantumElement":
        return QuantumElement({})

    def coefficient(self, lam, d: int = 0) -> int | Fraction:
        return self.terms.get((tuple(lam), d), 0)

    def __add__(self, other: "QuantumElement") -> "QuantumElement":
        data = dict(self.terms)
        for key, c in other.terms.items():
            data[key] = data.get(key, 0) + c
        return QuantumElement(data)

    def scale(self, factor) -> "QuantumElement":
        return QuantumElement({k: c * Fraction(factor) for k, c in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for (lam, d), c in sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            factors = []
            if c != 1:
                factors.append(str(c))
            if d == 1:
                factors.append("q")
            elif d > 1:
                factors.append(f"q^{d}")
            factors.append(f"t[{partitions.format_partition(lam)}]")
            chunks.append("*".join(factors))
        return " + ".join(chunks)


def quantum_product(n: int, a: QuantumElement, b: QuantumElement) -> QuantumElement:
    """Bilinear extension of the basis product read off the structure table;
    a class off the basis raises partitions.InvalidPartitionError."""
    mult, position, basis = _product_lookup(n)
    for lam, _d in itertools.chain(a.terms, b.terms):
        partitions.validate(lam, n - 1)
    data: dict[tuple[Partition, int], int | Fraction] = {}
    for (lam, da), ca in a.terms.items():
        for (mu, db), cb in b.terms.items():
            pair = sum(lam) + sum(mu)
            for k, c in mult[mu][position[lam]].items():
                nu = basis[k]
                key = (nu, (pair - sum(nu)) // (2 * n - 2) + da + db)
                data[key] = data.get(key, 0) + ca * cb * c
    return QuantumElement(data)


def _times(rows: list[dict[int, int]], vec: dict[int, int]) -> dict[int, int]:
    # vec times the class whose multiplication rows (position i -> {k: c}) are rows
    out: dict[int, int] = {}
    for i, x in vec.items():
        for k, c in rows[i].items():
            out[k] = out.get(k, 0) + x * c
    return out


@lru_cache(maxsize=None)
def _mult_trace_weights(n: int) -> tuple[list[dict[int, int]], list[int]]:
    # Over _product_lookup's rows: the rows of multiplication by the Euler
    # class E (E is the unit's row, 0), and per position i the trace of
    # multiplication by its class, the sum over j and d of c^{j,d}_{i,j}.
    mult, _position, basis = _product_lookup(n)  # first: it refuses n past the table budget
    by_position = list(mult.values())
    weights = [sum(rows[i].get(j, 0) for j, rows in enumerate(by_position)) for i in range(len(basis))]
    # E = sum over nu of tau_nu * tau_dual(nu); its row at position i is tau_i * E
    euler = _times([mult[partitions.dual(nu, n - 1)][i] for i, nu in enumerate(basis)],
                   dict.fromkeys(range(len(basis)), 1))
    return [_times(rows, euler) for rows in by_position], weights


def euler_class(n: int) -> QuantumElement:
    """Quantum Euler class at q = 1: sum over the basis of tau_nu times the
    basis element dual under the classical Poincare pairing."""
    euler_rows, _weights = _mult_trace_weights(n)  # first: it refuses n past the table budget
    basis = partitions.all_strict(n - 1)
    return QuantumElement({(basis[k], 0): c for k, c in euler_rows[basis.index(())].items()})


def trace_invariant(query: GWQuery) -> int:
    """The same invariant through the finite-dimensional Frobenius algebra:
    the trace of multiplication by E^(g-1) * tau_{lam_1} * ... * tau_{lam_k}
    on the quantum cohomology at q = 1, E the quantum Euler class.

    The product is an integer vector over the basis positions in the q = 1
    ring; its trace weighs each coefficient by the trace of multiplication by
    its class.  Only defined for genus >= 1; zero when the weight condition
    fails; refused past n = TABLE_MAX_N, as the table is.
    """
    if query.genus < 1:
        raise GenusTooSmallError("trace route needs genus >= 1")
    if not degree_ok(query):
        return 0
    euler, weights = _mult_trace_weights(query.n)
    mult = _product_lookup(query.n)[0]
    vec = {0: 1}  # the unit tau_(): all_strict sorts () first, to position 0
    for rows in [mult[lam] for lam in query.insertions] + [euler] * (query.genus - 1):
        vec = _times(rows, vec)
    return as_count(sum(x * weights[k] for k, x in vec.items()), 1, f"trace route for {query}")


def genus_recursion_check(n: int, genus: int, degree: int, insertions, s: int) -> bool:
    """Appending 4s staircase insertions while raising the degree by s*n must
    not change the invariant; returns whether the two agree."""
    if s < 0:
        raise InvalidInput("s must be >= 0")
    base = GWQuery(n, genus, degree, tuple(insertions))
    extended = GWQuery(
        n,
        genus,
        degree + s * n,
        tuple(insertions) + (partitions.rho(n - 1),) * (4 * s),
    )
    return gw_invariant(base) == gw_invariant(extended)
