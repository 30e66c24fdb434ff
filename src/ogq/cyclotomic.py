"""Exact arithmetic in cyclotomic fields Q(w), w a primitive N-th root of unity.

Elements are stored on the power basis 1, w, ..., w^(phi(N)-1) of the quotient
Q[x]/(Phi_N(x)) with Fraction coefficients, so every operation is exact.  The
N-th cyclotomic polynomial Phi_N is obtained by exact division of x^N - 1 by
the product of Phi_d over proper divisors d of N.  An inverse is taken in
Z[w] (int_inverse): a times the product of its other Galois conjugates is
its norm, a nonzero integer, so no polynomial division is needed.

One private kernel, _reduce, reduces an unreduced coefficient list mod Phi_N
from the top down, on int and Fraction coefficients alike: at even N by
w^(N/2) = -1 first, then by Phi's nonzero lower terms.  Every product
(int_mul, which CycloNum's * calls), power (int_pow, which ** calls) and
root of unity goes through it.  The trace to Q (trace) reads the Ramanujan
sums off any coefficient list, reduced or not, and the trace dual of a fixed
factor (trace_dual) pairs with any other factor's coefficients to give their
product's trace; so the fused dot over packed integer vectors (fused_dot)
returns traces with no reduction at all.

>>> w = root_of_unity(8, 1)
>>> ((w + w.invert()) ** 2).as_rational()
Fraction(2, 1)
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import lru_cache


class OrderMismatchError(ValueError):
    """Raised when two elements of different cyclotomic fields are combined."""


class ProofFailure(ArithmeticError):
    """A self-check of a computed value failed: the base of every failed proof."""


class NotRationalError(ProofFailure):
    """Raised when a rational value is demanded of a non-rational element."""


class SlotOverflowError(ProofFailure):
    """A fused dot's packed sum outgrew its slot, so its trace cannot be read."""


def _exact_int_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Long division of integer polynomials, constant term first.  The divisor
    # is monic, and the quotient must be exact.
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + dd]
        if c:
            quot[k] = c
            for i, d in enumerate(den):
                num[k + i] -= c * d
    if any(num):
        raise ArithmeticError("division was not exact")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_order, constant term first, monic.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(8)
    (1, 0, 0, 0, 1)
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    poly = [-1] + [0] * (order - 1) + [1]
    quot = list(poly)
    for d in range(1, order):
        if order % d == 0:
            quot = _exact_int_div(quot, cyclotomic_polynomial(d))
    return tuple(quot)


@lru_cache(maxsize=None)
def field_degree(order: int) -> int:
    """Degree phi(order) of the cyclotomic field of the given order."""
    return len(cyclotomic_polynomial(order)) - 1


@lru_cache(maxsize=None)
def _modulus_tail(order: int) -> tuple[tuple[int, int], ...]:
    # x^phi = sum of r * x^i over these (i, r) mod Phi_order: the nonzero
    # lower terms of Phi, negated.
    mod = cyclotomic_polynomial(order)
    return tuple((i, -c) for i, c in enumerate(mod[:-1]) if c)


def _reduce(conv: list, order: int) -> list:
    # The one reduction mod Phi_order: folds an unreduced coefficient list
    # (constant term first, at least phi long, ints or Fractions) down from
    # its top term, in place, and returns its first phi entries.  At even
    # order, w^(order/2) = -1 folds each term above order/2 in one step
    # first (Phi_order divides x^(order/2) + 1); without it a product at
    # order 4p, p prime, pays phi/2 Fraction adds per term above phi.
    phi = field_degree(order)
    if order % 2 == 0:
        half = order // 2
        for k in range(len(conv) - 1, half - 1, -1):
            if conv[k]:
                conv[k - half] -= conv[k]
        del conv[half:]
    tail = _modulus_tail(order)
    for k in range(len(conv) - 1, phi - 1, -1):
        c = conv[k]
        if c:
            # Phi's terms are +-1 below order 105; a Fraction multiply by
            # +-1 would cost as much as the add.
            neg = -c
            for i, r in tail:
                conv[k - phi + i] += c if r == 1 else neg if r == -1 else c * r
    return conv[:phi]


def int_mul(a: Sequence, b: Sequence, order: int) -> list:
    """Product of two elements of Q(w) given by their phi(order) power-basis
    coefficients, ints (an element of Z[w]) or Fractions, reduced mod
    Phi_order.

    >>> int_mul([0, 1], [0, 1], 4)
    [-1, 0]
    """
    # Seeded with the operands' own zero: an int 0 would send every Fraction
    # sum through the slower mixed-type path.
    conv = [a[0] * 0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    conv[j] += x * y
    return _reduce(conv, order)


def int_pow(a: Sequence, exponent: int, order: int) -> list:
    """a^exponent in Q(w) by square-and-multiply with `int_mul`, exponent >= 0;
    the coefficients keep the type of a's."""
    if exponent < 0:
        raise ValueError("integer powers need a nonnegative exponent")
    zero = a[0] * 0
    result = [zero + 1] + [zero] * (len(a) - 1)
    base = list(a)
    while exponent:
        if exponent & 1:
            result = int_mul(result, base, order)
        exponent >>= 1
        if exponent:
            base = int_mul(base, base, order)
    return result


@lru_cache(maxsize=None)
def _ramanujan_sums(order: int) -> tuple[int, ...]:
    # Tr(w^k) for k = 0..order-1, the Ramanujan sum c_order(k): w^k is a
    # primitive q-th root of unity, q = order / gcd(k, order), whose trace
    # is mu(q) * phi(order) / phi(q).
    out = []
    for k in range(order):
        q = order // math.gcd(k, order)
        mu, rest, p = 1, q, 2
        while p * p <= rest:
            if rest % p == 0:
                rest //= p
                if rest % p == 0:
                    mu = 0
                    break
                mu = -mu
            p += 1
        if mu and rest > 1:
            mu = -mu
        out.append(mu * (field_degree(order) // field_degree(q)))
    return tuple(out)


def trace(coeffs: Sequence, order: int):
    """Tr_{Q(w)/Q} of sum_k coeffs[k] * w^k, w a primitive order-th root of
    unity: sum_k coeffs[k] * c_order(k), c the Ramanujan sum.

    Any list length is accepted, so an unreduced product needs no reduction
    mod Phi before its trace; the result has the coefficients' type.

    >>> trace([1, 1], 4)
    2
    >>> trace([0, 0, 0, 0, 1], 8)
    -4
    """
    sums = _ramanujan_sums(order)
    return sum(c * sums[k % order] for k, c in enumerate(coeffs) if c)


def trace_dual(coeffs: Sequence, order: int) -> list:
    """The trace dual t of x = sum_l coeffs[l] * w^l: Tr(y * x) = sum_k y_k * t_k
    for every y on the power basis, where t_k = sum_l coeffs[l] * c_order(k + l).
    So a trace against a fixed x needs no product and no reduction.

    >>> trace_dual([0, 1], 4)
    [0, -2]
    """
    size = len(coeffs)
    ring = _ramanujan_sums(order) * (2 + size // order)  # past phi(order) + size
    return [sum(map(operator.mul, coeffs, ring[k:k + size])) for k in range(field_degree(order))]


def int_inverse(a: Sequence[int], order: int) -> tuple[list[int], int]:
    """b and den > 0 with a * b = den, for a nonzero element a of Z[w] given
    by its phi(order) integer power-basis coefficients.

    b is the product of the Galois conjugates sigma_k(a), w -> w^k, over the
    units k != 1 mod order, so a * b is the norm of a, a nonzero integer;
    den is its absolute value, and its sign (negative only at orders 1 and
    2) is folded into b.

    >>> int_inverse([1, 1], 4)
    ([1, -1], 2)
    """
    if not any(a):
        raise ZeroDivisionError("inverse of zero in cyclotomic field")
    b = [1] + [0] * (len(a) - 1)
    for k in range(2, order):
        if math.gcd(k, order) == 1:
            conj = [0] * order
            for i, c in enumerate(a):
                conj[i * k % order] += c
            b = int_mul(b, _reduce(conj, order), order)
    norm = int_mul(a, b, order)[0]
    if norm < 0:
        b = [-c for c in b]
    return b, abs(norm)


class CycloNum:
    """An element of Q(w) for w a fixed primitive root of unity.

    `coeffs` always has length phi(order).  Mixed arithmetic with int and
    Fraction operands is supported and treats them as rational constants.
    Elements are values: nothing assigns to a built one, and the hash relies
    on that.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        self.order = order
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloNum):
            if self.order == other.order:
                return self.coeffs == other.coeffs
            return (
                self.is_rational()
                and other.is_rational()
                and self.coeffs[0] == other.coeffs[0]
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    @staticmethod
    def from_ints(order: int, coeffs: Sequence[int], den: int = 1) -> "CycloNum":
        """The element (sum_i coeffs[i] * w^i) / den, from phi(order) integers."""
        return CycloNum(order, tuple(Fraction(c, den) for c in coeffs))

    def int_coeffs(self) -> list[int]:
        """The power-basis coefficients of an element of Z[w], as ints."""
        if any(c.denominator != 1 for c in self.coeffs):
            raise ArithmeticError(f"element is not in Z[w]: {self!r}")
        return [c.numerator for c in self.coeffs]

    def _check(self, other: "CycloNum") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"cannot combine roots of unity of orders {self.order} and {other.order}"
            )

    @staticmethod
    def rational(order: int, value: Fraction | int) -> "CycloNum":
        coeffs = [Fraction(0)] * field_degree(order)
        coeffs[0] = Fraction(value)
        return CycloNum(order, tuple(coeffs))

    @staticmethod
    def _coerce(order: int, value) -> "CycloNum | None":
        if isinstance(value, CycloNum):
            return value
        if isinstance(value, (int, Fraction)):
            return CycloNum.rational(order, value)
        return None

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __add__(self, other):
        o = self._coerce(self.order, other)
        if o is None:
            return NotImplemented
        self._check(o)
        return CycloNum(self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(self.order, other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(self.order, other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return CycloNum.rational(self.order, 0)
            return CycloNum(self.order, tuple(a * other for a in self.coeffs))
        if not isinstance(other, CycloNum):
            return NotImplemented
        self._check(other)
        return CycloNum(self.order, tuple(int_mul(self.coeffs, other.coeffs, self.order)))

    __rmul__ = __mul__

    def invert(self) -> "CycloNum":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
        inv, norm = int_inverse(ints, self.order)
        return CycloNum.from_ints(self.order, [den * c for c in inv], norm)

    def __truediv__(self, other):
        o = self._coerce(self.order, other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce(self.order, other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    def __pow__(self, exponent: int) -> "CycloNum":
        if not isinstance(exponent, int):
            return NotImplemented
        base = self.invert() if exponent < 0 else self
        return CycloNum(self.order, tuple(int_pow(base.coeffs, abs(exponent), self.order)))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        """The element as a Fraction, if it lies in Q.

        >>> root_of_unity(4, 2).as_rational()
        Fraction(-1, 1)
        """
        if not self.is_rational():
            raise NotRationalError(f"element is not rational: {self!r}")
        return self.coeffs[0]

    def embed_complex(self) -> complex:
        """Numerical image under w -> exp(2*pi*i/order)."""
        root = cmath.exp(2j * cmath.pi / self.order)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * root + complex(c)
        return acc

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    terms.append(str(c))
                elif i == 1:
                    terms.append(f"{c}*w" if c != 1 else "w")
                else:
                    terms.append(f"{c}*w^{i}" if c != 1 else f"w^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"CycloNum({self.order}; {body})"


def root_of_unity(order: int, power: int = 1) -> CycloNum:
    """w^power in Q(w), any integer power.

    >>> root_of_unity(4, 1) ** 2 == root_of_unity(4, 2)
    True
    """
    power %= order
    coeffs = [Fraction(0)] * max(field_degree(order), power + 1)
    coeffs[power] = Fraction(1)
    return CycloNum(order, tuple(_reduce(coeffs, order)))


def _dot_slot(points: int, phi: int, fold: int, top: int) -> int:
    # A digit of a folded product of up to three lists of entries up to top
    # is at most lead, of a trace dual phi^2 * top, and a digit of a dot sums
    # points * fold products of the two; two bits hold sign and rounding.
    lead = 4 * (phi * top) ** 3
    return (points * fold * lead * phi * phi * top).bit_length() + 2


def fused_dot(vectors: Sequence[Sequence[Sequence[int]]], order: int) -> Callable[..., int]:
    """Traces of sums of pointwise products over equal-length vectors of Z[w].

    vectors[i][J] is an element of Z[w], its phi(order) integer power-basis
    coefficients.  `dot(i, j, ...)` takes 1 to 4 indices (the structure
    table's inverse of S_rho and three classes) and returns the integer
    Tr_{Q(w)/Q} of the sum over J of vectors[i][J] * vectors[j][J] * ...; a
    caller with denominators divides by their product itself.

    Each coefficient list is packed into one int, sum c_k * 2^(slot*k), so a
    product of packed ints is the packed unreduced product.  The product f of
    all but the last index, folded below w^fold = -+1 (fold = order/2 at even
    order, else order) by one remainder, is kept while the calls repeat those
    indices.  Tr(f * x) = sum_k f_k * t_k, where t_k = sum_l x_l * c(k + l)
    is the trace dual of the last index's x (c the Ramanujan sums), packed in
    reverse.  So a dot is one multiply per point and its trace one signed
    digit, with nothing reduced mod Phi.  The slot bound (_dot_slot) guards
    each digit; the runtime check bounds only the summed magnitude, so a sum
    past the top digit raises SlotOverflowError but a spilled digit would not.
    """
    lengths = {len(vec) for vec in vectors}
    if len(lengths) != 1:
        raise ValueError("need one or more vectors, all of the same length")
    (points,) = lengths
    if not points:
        raise ValueError("need at least one point")
    phi = field_degree(order)
    if any(len(x) != phi for vec in vectors for x in vec):
        raise ValueError(f"every coefficient list needs phi({order}) = {phi} entries")
    top = max(abs(c) for vec in vectors for x in vec for c in x)
    fold = order // 2 if order % 2 == 0 else order
    slot = _dot_slot(points, phi, fold, top)
    packed = [[sum(c << slot * k for k, c in enumerate(x)) for x in vec] for vec in vectors]
    # x times the Ramanujan sums packed in reverse holds t_k at digit span - k;
    # residues within half of 0 mod block (the dual) or modulus (a fold) are exact.
    sums, span, low = _ramanujan_sums(order), fold + phi - 2, slot * (phi - 1)
    pairing = sum(sums[j % order] << slot * (span - j) for j in range(span + 1))
    block, half = 1 << slot * fold, 1 << slot * fold - 1
    duals = [[((x * pairing + (1 << low >> 1) >> low) + half) % block - half for x in vec] for vec in packed]
    modulus = block + (1 if order % 2 == 0 else -1)
    shift, mask, limit = slot * (fold - 1), (1 << slot) - 1, slot * (2 * fold - 1)
    lead, folded = (), [1] * points  # the last call's leading indices and their fold

    def dot(*which: int) -> int:
        nonlocal lead, folded
        if not 1 <= len(which) <= 4:
            raise ValueError(f"a dot takes 1 to 4 vectors, got {len(which)}")
        if which[:-1] != lead:
            lead = which[:-1]
            folded = [(math.prod(xs) + half) % modulus - half
                      for xs in zip(*map(packed.__getitem__, lead))] or [1] * points
        total = sum(map(int.__mul__, folded, duals[which[-1]]))
        if abs(total).bit_length() >= limit:
            raise SlotOverflowError("packed sum overflowed its slot")
        # Rounding at digit fold - 1 drops the digits below it, which sum to
        # less than half of one unit there.
        tr = (total + (1 << shift >> 1) >> shift) & mask
        return tr - mask - 1 if tr > mask >> 1 else tr

    return dot


def zero(order: int) -> CycloNum:
    return CycloNum.rational(order, 0)


def one(order: int) -> CycloNum:
    return CycloNum.rational(order, 1)
