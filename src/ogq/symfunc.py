"""Symmetric-function values at tuples of cyclotomic numbers.

Everything here is evaluation, not symbolic algebra: a point is a tuple of
CycloNum values x_1..x_m, and the module produces elementary and complete
symmetric values, Schur values via the Jacobi-Trudi determinant in the h's,
and the Pragacz-Ratajski polynomials P~_lambda used for Schubert classes on
the maximal orthogonal Grassmannian.  P~ on one or two rows is an explicit
quadratic expression in the e's; longer indices reduce to a Pfaffian of the
two-row values.

The private _int_ptilde computes 2^len * P~ from elementary values in Z[w]
on integer coefficient lists, for the per-point tables in quantum, by a
first-row Pfaffian expansion memoized over sub-partitions.

The small AlphaPolynomial ring tracks polynomials in a_i := e_i/2, which is
how intersection-number integrands are fed in from the outside.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .cyclotomic import CycloNum, int_mul
from .partitions import InvalidInput, InvalidPartitionError, Partition, validate


PointTuple = tuple[CycloNum, ...]


class NotSkewSymmetricError(ValueError):
    pass


class OddDimensionError(ValueError):
    pass


def elementary_values(point: PointTuple) -> list[CycloNum]:
    """[e_0, e_1, ..., e_m] at the point, with e_0 = 1.

    Built by multiplying out prod_i (1 + x_i t) one factor at a time.
    """
    if not point:
        raise ValueError("point must have at least one coordinate")
    one = CycloNum.rational(point[0].order, 1)
    evals = [one]
    for x in point:
        nxt = [evals[0]]
        for k in range(1, len(evals)):
            nxt.append(evals[k] + x * evals[k - 1])
        nxt.append(x * evals[-1])
        evals = nxt
    return evals


def _elem_at(evals: list[CycloNum], k: int) -> CycloNum:
    # e_k with the convention e_k = 0 outside 0 <= k <= m.
    if 0 <= k < len(evals):
        return evals[k]
    return CycloNum.rational(evals[0].order, 0)


def _complete_from_elementary(evals: list[CycloNum], kmax: int) -> list[CycloNum]:
    zero = CycloNum.rational(evals[0].order, 0)
    hvals = [evals[0]]
    for k in range(1, kmax + 1):
        acc = zero
        for i in range(1, k + 1):
            e_i = _elem_at(evals, i)
            if e_i:
                term = e_i * hvals[k - i]
                acc = acc + term if i % 2 else acc - term
        hvals.append(acc)
    return hvals


def complete_values(point: PointTuple, kmax: int) -> list[CycloNum]:
    """[h_0, ..., h_kmax] at the point, from the Newton-style recurrence
    sum_{i=0..k} (-1)^i e_i h_{k-i} = 0."""
    return _complete_from_elementary(elementary_values(point), kmax)


def determinant(rows: list[list]) -> object:
    """Exact determinant by expansion over column subsets; any ring entries."""
    n = len(rows)
    if n == 0:
        return 1
    memo: dict[int, object] = {}

    def minor(mask: int) -> object:
        if mask == 0:
            return 1
        if mask in memo:
            return memo[mask]
        i = n - bin(mask).count("1")
        acc = None
        sign = 1
        for j in range(n):
            if mask & (1 << j):
                term = rows[i][j] * minor(mask & ~(1 << j))
                if sign < 0:
                    term = -term
                acc = term if acc is None else acc + term
                sign = -sign
        memo[mask] = acc
        return acc

    return minor((1 << n) - 1)


def schur_value(parts, point: PointTuple) -> CycloNum:
    """Schur value S_lambda(x_1..x_m) via det[h_{lambda_i + j - i}].

    lambda may be any weakly decreasing tuple of nonnegative integers.
    """
    evals = elementary_values(point)
    parts = tuple(p for p in parts if p != 0)
    if any(a < b for a, b in zip(parts, parts[1:])) or any(p < 0 for p in parts):
        raise InvalidPartitionError(f"{parts} is not weakly decreasing and nonnegative")
    order = evals[0].order
    if not parts:
        return CycloNum.rational(order, 1)
    size = len(parts)
    hvals = _complete_from_elementary(evals, parts[0] + size - 1)
    zero = CycloNum.rational(order, 0)

    def h_at(k: int) -> CycloNum:
        return hvals[k] if 0 <= k < len(hvals) else zero

    rows = [[h_at(parts[i] + j - i) for j in range(size)] for i in range(size)]
    return determinant(rows)


def pfaffian(rows: list[list]) -> object:
    """Pfaffian of a skew-symmetric matrix of even size, by expansion along
    the first row; the empty matrix has Pfaffian 1.
    """
    n = len(rows)
    if n % 2:
        raise OddDimensionError(f"Pfaffian needs even size, got {n}")
    for i in range(n):
        if len(rows[i]) != n:
            raise NotSkewSymmetricError("matrix is not square")
        if not rows[i][i] == -rows[i][i]:
            raise NotSkewSymmetricError(f"nonzero diagonal entry at {i}")
        for j in range(i + 1, n):
            if not rows[i][j] == -rows[j][i]:
                raise NotSkewSymmetricError(f"entry ({i},{j}) is not minus entry ({j},{i})")

    def expand(idx: tuple[int, ...]) -> object:
        if not idx:
            return 1
        if len(idx) == 2:
            return rows[idx[0]][idx[1]]
        first = idx[0]
        acc = None
        for pos in range(1, len(idx)):
            sub = idx[1:pos] + idx[pos + 1:]
            term = rows[first][idx[pos]] * expand(sub)
            if pos % 2 == 0:
                term = -term
            acc = term if acc is None else acc + term
        return acc

    return expand(tuple(range(n)))


def ptilde_pair_value(a: int, b: int, point: PointTuple) -> CycloNum:
    """P~ on a two-row index (a, b), a > b >= 0 or (0, 0), at the point."""
    return _ptilde_pair_from_elem(a, b, elementary_values(point))


def _ptilde_pair_from_elem(a: int, b: int, evals: list[CycloNum]) -> CycloNum:
    if a == 0 and b == 0:
        return evals[0]
    if not (a > b >= 0):
        raise InvalidPartitionError(f"pair index ({a},{b}) needs a > b >= 0")
    if b == 0:
        return _elem_at(evals, a) * Fraction(1, 2)
    acc = _elem_at(evals, a) * _elem_at(evals, b)
    for k in range(1, b + 1):
        term = 2 * (_elem_at(evals, a + k) * _elem_at(evals, b - k))
        acc = acc - term if k % 2 else acc + term
    return acc * Fraction(1, 4)


def ptilde_value(parts, point: PointTuple) -> CycloNum:
    """P~_lambda(x_1..x_m) for a strict partition with parts <= m.

    One- and two-row indices use the closed quadratic expressions in the
    elementary values; longer ones are the Pfaffian of the pair matrix, with
    a trailing zero part appended when the length is odd.
    """
    m = len(point)
    parts = validate(parts, m)
    evals = elementary_values(point)
    return _ptilde_from_elem(parts, evals)


def _ptilde_from_elem(parts: Partition, evals: list[CycloNum]) -> CycloNum:
    order = evals[0].order
    if len(parts) == 0:
        return CycloNum.rational(order, 1)
    if len(parts) == 1:
        return _elem_at(evals, parts[0]) * Fraction(1, 2)
    if len(parts) == 2:
        return _ptilde_pair_from_elem(parts[0], parts[1], evals)
    padded = parts if len(parts) % 2 == 0 else parts + (0,)
    size = len(padded)
    zero = CycloNum.rational(order, 0)
    rows = [[zero] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            val = _ptilde_pair_from_elem(padded[i], padded[j], evals)
            rows[i][j] = val
            rows[j][i] = -val
    return pfaffian(rows)


# Integer builds from elementary values in Z[w].  A value of Z[w] is the list
# of its power-basis coefficients; products go through cyclotomic.int_mul.

IntVec = list[int]


def _int_ptilde(parts: Partition, evals: list[IntVec], order: int,
                memo: dict[Partition, IntVec]) -> IntVec:
    """2^len(parts) * P~_parts at the point with elementary values `evals`.

    The scaled values lie in Z[w].  Lengths 1 and 2 use the closed forms in
    the e's.  Longer indices expand the Pfaffian of the pair matrix along its
    first row, P~_lam = sum_k (-1)^k P~_(lam_1,lam_k) P~_(lam minus lam_1, lam_k),
    plus P~_(lam_1,0) P~_(lam minus lam_1) for odd length (the padded zero
    part); each factor is a smaller strict partition, built once in `memo`.
    """
    if parts in memo:
        return memo[parts]
    phi = len(evals[0])

    def e(k: int) -> IntVec:
        return evals[k] if k < len(evals) else [0] * phi

    if len(parts) == 0:
        val = evals[0]
    elif len(parts) == 1:
        val = e(parts[0])
    elif len(parts) == 2:
        a, b = parts
        val = int_mul(e(a), e(b), order)
        for k in range(1, b + 1):
            term = int_mul(e(a + k), e(b - k), order)
            sign = -2 if k % 2 else 2
            val = [v + sign * t for v, t in zip(val, term)]
    else:
        first, rest = parts[0], parts[1:]
        val = [0] * phi
        for pos, part in enumerate(rest):
            term = int_mul(_int_ptilde((first, part), evals, order, memo),
                           _int_ptilde(rest[:pos] + rest[pos + 1:], evals, order, memo), order)
            sign = -1 if pos % 2 else 1
            val = [v + sign * t for v, t in zip(val, term)]
        if len(parts) % 2:
            term = int_mul(e(first), _int_ptilde(rest, evals, order, memo), order)
            val = [v + t for v, t in zip(val, term)]
    memo[parts] = val
    return val


_TERM_FACTOR = re.compile(r"^a(\d+)(?:\^(\d+))?$")


class AlphaPolynomial(namedtuple("AlphaPolynomial", "terms")):
    """Polynomial in the halved elementary values a_i = e_i/2.

    Terms map trailing-zero-trimmed exponent tuples (k_1, k_2, ...) to
    Fraction coefficients; the weighted degree of a term is sum_i i*k_i.
    `terms` is a tuple of (exponents, coefficient) pairs.
    """

    __slots__ = ()

    @staticmethod
    def from_dict(data: dict[tuple[int, ...], Fraction]) -> "AlphaPolynomial":
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in data.items():
            exps = tuple(exps)
            while exps and exps[-1] == 0:
                exps = exps[:-1]
            coeff = Fraction(coeff)
            if coeff:
                clean[exps] = clean.get(exps, Fraction(0)) + coeff
        items = tuple(sorted((e, c) for e, c in clean.items() if c))
        return AlphaPolynomial(items)

    @staticmethod
    def one() -> "AlphaPolynomial":
        return AlphaPolynomial.from_dict({(): Fraction(1)})

    @staticmethod
    def variable(index: int) -> "AlphaPolynomial":
        if index < 1:
            raise InvalidInput("variable index is 1-based")
        return AlphaPolynomial.from_dict({(0,) * (index - 1) + (1,): Fraction(1)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "AlphaPolynomial") -> "AlphaPolynomial":
        data = dict(self.terms)
        for exps, coeff in other.terms:
            data[exps] = data.get(exps, Fraction(0)) + coeff
        return AlphaPolynomial.from_dict(data)

    def __neg__(self) -> "AlphaPolynomial":
        return AlphaPolynomial(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "AlphaPolynomial") -> "AlphaPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return AlphaPolynomial(())
            return AlphaPolynomial(tuple((e, c * other) for e, c in self.terms))
        if not isinstance(other, AlphaPolynomial):
            return NotImplemented
        data: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                width = max(len(e1), len(e2))
                merged = tuple(
                    (e1[i] if i < len(e1) else 0) + (e2[i] if i < len(e2) else 0)
                    for i in range(width)
                )
                data[merged] = data.get(merged, Fraction(0)) + c1 * c2
        return AlphaPolynomial.from_dict(data)

    __rmul__ = __mul__

    @staticmethod
    def term_weight(exps: tuple[int, ...]) -> int:
        """The weighted degree sum_i i*k_i of the term with exponents exps."""
        return sum(i * k for i, k in enumerate(exps, 1))

    def weighted_degree(self) -> int:
        """Largest term weight; the zero polynomial has weight 0."""
        return max((self.term_weight(e) for e, _ in self.terms), default=0)

    def part_of_weight(self, weight: int) -> "AlphaPolynomial":
        """The terms of weighted degree `weight`."""
        return AlphaPolynomial(tuple(t for t in self.terms if self.term_weight(t[0]) == weight))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in self.terms:
            factors = [
                f"a{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(exps)
                if k
            ]
            if not factors:
                chunks.append(str(coeff))
            elif coeff == 1:
                chunks.append("*".join(factors))
            else:
                chunks.append(str(coeff) + "*" + "*".join(factors))
        return " + ".join(chunks)


def parse_alpha_poly(text: str) -> AlphaPolynomial:
    """Parse "2*a2 + a1^2" style input; "1" is the constant polynomial.

    >>> str(parse_alpha_poly("a1^2*a3 + 2*a2"))
    '2*a2 + a1^2*a3'
    """
    data: dict[tuple[int, ...], Fraction] = {}
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise InvalidInput("empty polynomial text")
    from .quantum import EXACT_MAX_N  # read at call time: quantum imports this module

    chunks = cleaned.replace("-", "+-").split("+")
    for k, chunk in enumerate(chunks):
        if not chunk:
            # the rewrite leaves one before each "-", and a leading "+" one at the
            # start; any other is a "+" with no term after it
            if k and not (k + 1 < len(chunks) and chunks[k + 1].startswith("-")):
                raise InvalidInput(f"dangling sign in {text!r}")
            continue
        coeff = Fraction(1)
        if chunk.startswith("-"):
            coeff = Fraction(-1)
            chunk = chunk[1:]
        if not chunk:
            raise InvalidInput(f"dangling sign in {text!r}")
        exps: dict[int, int] = {}
        for factor in chunk.split("*"):
            match = _TERM_FACTOR.match(factor)
            if match:
                idx = int(match.group(1))
                if idx < 1:
                    raise InvalidInput(f"variable index must be >= 1 in {factor!r}")
                if idx >= EXACT_MAX_N:  # a_i for i >= n is 0, and every route refuses n > EXACT_MAX_N
                    raise InvalidInput(f"variable index must be <= {EXACT_MAX_N - 1} in {factor!r}")
                exps[idx] = exps.get(idx, 0) + int(match.group(2) or 1)
            else:
                try:
                    coeff *= Fraction(factor)
                except (ValueError, ZeroDivisionError) as exc:
                    raise InvalidInput(f"cannot parse factor {factor!r} in {text!r}") from exc
        width = max(exps) if exps else 0
        key = tuple(exps.get(i, 0) for i in range(1, width + 1))
        data[key] = data.get(key, Fraction(0)) + coeff
    return AlphaPolynomial.from_dict(data)


def alpha_evaluate(poly: AlphaPolynomial, point: PointTuple) -> CycloNum:
    """Evaluate at a_i = e_i(point)/2; variables beyond len(point) are zero."""
    return _alpha_from_elem(poly, elementary_values(point))


def _alpha_from_elem(poly: AlphaPolynomial, evals: list[CycloNum]) -> CycloNum:
    # evals = [e_0, ..., e_m]; a_i is halved on first use only.
    order = evals[0].order
    half = Fraction(1, 2)
    alpha: dict[int, CycloNum] = {}
    total = CycloNum.rational(order, 0)
    for exps, coeff in poly.terms:
        term = CycloNum.rational(order, coeff)
        dead = False
        for i, k in enumerate(exps, 1):
            if not k:
                continue
            if i >= len(evals):
                dead = True
                break
            if i not in alpha:
                alpha[i] = evals[i] * half
            term = term * alpha[i] ** k
        if not dead:
            total = total + term
    return total


def ptilde_alpha(parts, m: int) -> AlphaPolynomial:
    """P~_lambda written as a polynomial in a_1..a_m (a_i beyond m drop out)."""
    parts = validate(parts, m)

    def var(i: int) -> AlphaPolynomial:
        if i == 0:
            return AlphaPolynomial.one()
        if i > m:
            return AlphaPolynomial(())
        return AlphaPolynomial.variable(i)

    def pair(a: int, b: int) -> AlphaPolynomial:
        if b == 0:
            return var(a)
        acc = var(a) * var(b)
        for k in range(1, b + 1):
            term = var(a + k) * var(b - k)
            if k < b:
                term = term * 2
            acc = acc - term if k % 2 else acc + term
        return acc

    if len(parts) == 0:
        return AlphaPolynomial.one()
    if len(parts) == 1:
        return var(parts[0])
    if len(parts) == 2:
        return pair(parts[0], parts[1])
    padded = parts if len(parts) % 2 == 0 else parts + (0,)
    size = len(padded)
    zero = AlphaPolynomial(())
    rows = [[zero] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            val = pair(padded[i], padded[j])
            rows[i][j] = val
            rows[j][i] = -val
    result = pfaffian(rows)
    if isinstance(result, int):
        return AlphaPolynomial.from_dict({(): Fraction(result)})
    return result
