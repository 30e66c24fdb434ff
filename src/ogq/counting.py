"""Counts of maximal isotropic subbundles of orthogonal bundles over a curve.

For a stable orthogonal bundle V of rank r and even Stiefel-Whitney-compatible
degree data on a smooth curve of genus g, the number of maximal isotropic
subbundles of the extremal degree e_0 is finite, and it is computed here by
specializing the evaluation sum behind the Gromov-Witten invariants.  One
scaled sum (_scaled_sum) carries every number: a power of two times a sum
over the evaluation tuples of staircase-Schur powers, staircase P~ powers
and an integrand.  Its exact value is summed over the affine orbits of the
tuples (quantum.orbit_trace, a few traces over one denominator), with the
prime mod which a term read P~_rho by its sign; its float value over all
2^(n-1) complex points (evaluation_sum), so `--mode float` is an
independent summation of the same formula.  One plan (_plan) picks the
power of two and the staircase power at rank 2n and degree e; n_tilde_answer
and the one count plan (_count_plan), which count_answer reads on both
routes and for both rank parities, read it.  The intermediate quantity
n_tilde covers arbitrary degree e and an arbitrary polynomial integrand in
the halved elementary classes a_i = P~_(i), each term on the expected
weight read as single-row insertions on both routes (_integrand_terms),
the others integrating to 0; n_tilde_answer plans it once and returns the
value with that prime (quantum.Answer).  An even-rank count is n_tilde's
sum at e_0 with the integrand 1, doubled for even ell; an odd-rank count is
half the even-rank count one rank up, the same sum with one power of two
less; count_answer returns it as a CountReport built once, or on the
float route as a quantum.Answer.  A count off a CATALOG closed form is a
failed proof (CatalogMismatchError).  The trivial-bundle case is literally a
Gromov-Witten invariant, which gives an independent bridge for testing.

Parity limits are first-class outcomes: a query whose extremal degree does
not exist raises NotApplicableError, and the even-rank route with n even but
e_0 odd raises NotCoveredError (the two documented low-rank values in that
regime are quoted in the diagnostic, not computed).  Both are refusals
(quantum.Refusal), as is a query past a size budget (the caps EXACT_MAX_N
and FLOAT_MAX_N live in quantum, and the scaled sum checks its route's cap
before anything is enumerated).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from . import partitions, quantum
from .cyclotomic import ProofFailure
from .partitions import InvalidInput
from .symfunc import AlphaPolynomial
# The routes' caps and their refusal are quantum's, named here for callers of the counts too.
from .quantum import (EXACT_MAX_N, FLOAT_MAX_N, GWQuery, NonIntegralResultError, Refusal,  # noqa: F401
                      SizeBudgetError, UnsupportedRankError)


class NotApplicableError(Refusal):
    """No subbundle of the requested kind exists: a parity condition fails."""


class NotCoveredError(Refusal):
    """The even-rank route does not cover this regime (n even, degree odd);
    e0 is the odd degree the route was asked at, when known."""

    def __init__(self, message: str, e0: int | None = None):
        super().__init__(message)
        self.e0 = e0


class CatalogMismatchError(ProofFailure):
    """A count contradicts a closed form of CATALOG whose hypotheses it meets."""


class OddEllUnsupportedError(InvalidInput):
    pass


class OddDegreeUnsupportedError(InvalidInput):
    pass


_NOT_COVERED_KNOWN = (
    "documented values outside this route, recorded not computed: "
    "N(g, rank 4, ell 0, e0 = 1-g) = 2*2^g and N(g, rank 3, ell 0, e0 = 1-g) = 2^g"
)


def expected_dim(n: int, ell: int, e: int, genus: int) -> int:
    """Expected dimension of the space of rank-n isotropic subbundles of
    degree e in a rank-2n bundle with invariant ell, over genus g."""
    return -(n - 1) * e - n * (n - 1) * (genus - 1 - ell) // 2


def expected_dim_t(n: int, ell: int, e: int, genus: int, t: int) -> int:
    """Expected dimension shifted t steps down the degree ladder."""
    return expected_dim(n, ell, e, genus) - n * (n - 1) * t // 2


def max_iso_degree(rank: int, genus: int, ell: int) -> int:
    """Largest degree e_0 of a maximal isotropic subbundle of a generic
    stable orthogonal bundle of the given rank and invariant ell.

    Raises NotApplicableError when the parity conditions rule the degree
    out, and OddEllUnsupportedError for odd rank with odd ell.
    """
    if rank < 3:
        raise UnsupportedRankError(f"rank must be >= 3, got {rank}")
    if genus < 2:
        raise InvalidInput(f"genus must be >= 2 for stable orthogonal bundles, got {genus}")
    if rank % 2 == 0:
        n = rank // 2
        if (n * (genus - 1 - ell)) % 2:
            raise NotApplicableError(
                f"rank {rank}: n*(g-1-ell) = {n * (genus - 1 - ell)} is odd, "
                "no extremal isotropic degree exists"
            )
        return -n * (genus - 1 - ell) // 2
    n = (rank - 1) // 2
    if ell % 2:
        raise OddEllUnsupportedError(f"odd rank supports even ell only, got {ell}")
    if ((n + 1) * (genus - 1)) % 2:
        raise NotApplicableError(
            f"rank {rank}: (n+1)*(g-1) = {(n + 1) * (genus - 1)} is odd, "
            "no extremal isotropic degree exists"
        )
    return -(n + 1) * (genus - 1) // 2 + n * ell // 2


class NQuery(namedtuple("NQuery", "genus n ell e u q_poly")):
    """Arbitrary-bundle intersection query: genus, n (half the rank), the
    invariant ell, subbundle degree e, u staircase insertions, and the
    integrand Q as a polynomial in a_1..a_{n-1}."""

    __slots__ = ()

    # the default integrand is one shared AlphaPolynomial, a value no call can change
    def __new__(cls, genus: int, n: int, ell: int, e: int, u: int = 0,
                q_poly: AlphaPolynomial = AlphaPolynomial.one()):
        if n < 2:
            raise UnsupportedRankError(f"n must be >= 2, got {n}")
        if genus < 0:
            raise InvalidInput(f"genus must be >= 0, got {genus}")
        if u < 0:
            raise InvalidInput(f"u must be >= 0, got {u}")
        return super().__new__(cls, genus, n, ell, e, u, q_poly)


def _plan(n: int, ell: int, e: int) -> tuple[int, int]:
    # (power-of-two exponent, staircase power): the number at rank 2n,
    # invariant ell and degree e is 2^exponent times the evaluation sum with
    # that many staircase insertions.  Even e splits ell = 4m - a, odd e with
    # odd n splits ell = 4k + 2 - b, with a, b in 0..3 the staircase power.
    if e % 2 == 0:
        m = (ell + 3) // 4
        return 2 * m * n - e, 4 * m - ell
    if n % 2:
        k = (ell + 1) // 4
        return (2 * k + 1) * n - e, 4 * k + 2 - ell
    raise NotCoveredError(
        f"rank {2 * n}: degree e = {e} is odd while n = {n} is even, "
        f"outside the evaluated route; {_NOT_COVERED_KNOWN}",
        e0=e,
    )


def _integrand_terms(n: int, staircases: int,
                     integrand: AlphaPolynomial | None) -> list[tuple[Fraction | int, tuple]]:
    # The one integrand rule: a_i = e_i/2 = P~_(i), so a term c * a_1^k1 *
    # a_2^k2 ... is c times the sum with k_i more single-row insertions (i,),
    # after the staircases; a term with an a_i past m = n - 1 is 0 and dropped.
    # None, a count's, is the one term 1.
    staircase = (partitions.rho(n - 1),) * staircases
    if integrand is None:
        return [(1, staircase)]
    return [(c, staircase + tuple((i,) for i, k in enumerate(exps, 1) for _ in range(k)))
            for exps, c in integrand.terms if len(exps) < n]


def _scaled_sum(exact: bool, n: int, genus: int, staircases: int, exponent: int,
                integrand: AlphaPolynomial | None = None) -> tuple[int, int, int | None] | float:
    # 2^exponent times the sum over the evaluation points of S_rho^(genus-1)
    # * P~_rho^staircases * the integrand (None: 1), under the route's cap,
    # checked before the staircase is built: exact as (numerator,
    # denominator, sign-check prime or None) over the terms' orbit traces,
    # the prime that of the first term to read P~_rho; else a double from
    # their full float sums.  Every count and n_tilde is this sum.
    quantum.check_budget(n, "exact" if exact else "float")
    terms = _integrand_terms(n, staircases, integrand)
    if not terms:  # nothing to sum
        return (0, 1, None) if exact else 0.0
    if not exact:
        return quantum.scaled_double(sum(float(c) * quantum.evaluation_sum(n, genus, insertions, exact=False)
                                         for c, insertions in terms), exponent)
    num, den, prime = 0, 1, None
    for c, insertions in terms:  # c * t / d over the lcm of the denominators so far
        t, d = quantum.orbit_trace(n, genus, insertions)
        d *= c.denominator
        common = math.lcm(den, d)
        num, den = num * (common // den) + c.numerator * t * (common // d), common
        prime = prime or quantum.sign_check_prime(n, insertions)
    return (num << exponent, den, prime) if exponent >= 0 else (num, den << -exponent, prime)


def n_tilde_answer(query: NQuery, exact: bool = True) -> quantum.Answer:
    """The intersection number behind the counts, for an arbitrary orthogonal
    bundle of rank 2n, invariant ell and isotropic degree e, exact (a
    Fraction) or as a double, planned once.

    Linear in the integrand: its terms off the expected weight integrate to
    0, and a term c * a_1^k1 * ... on it is c times the sum with k_i more
    insertions (i,), a_i = P~_(i).  Raises NotCoveredError when n is even and
    e is odd.  On the exact route a term whose insertions hold P~_rho (a
    staircase, or a_1 at n = 2) reads it by its sign, a check mod the
    answer's sign_check_prime, not a proof; the float route sums any
    integrand (0.0 with no term on the expected weight) and raises
    OverflowError past the range of a double.
    """
    exponent, rho_power = _plan(query.n, query.ell, query.e)
    kept = query.q_poly.part_of_weight(expected_dim_t(query.n, query.ell, query.e, query.genus, query.u))
    total = _scaled_sum(exact, query.n, query.genus, rho_power + query.u, exponent, kept)
    return quantum.Answer(Fraction(total[0], total[1]), total[2]) if exact else quantum.Answer(total, None)


def n_tilde(query: NQuery) -> Fraction:
    """n_tilde_answer's exact value."""
    return n_tilde_answer(query).value


def n_tilde_float(query: NQuery) -> float:
    """n_tilde_answer's float value, a fast path from the complex points."""
    return n_tilde_answer(query, exact=False).value


def decimal_string(value: int | Fraction) -> str:
    """What str() writes for an int or a Fraction, at any size.

    str() refuses ints past sys.get_int_max_str_digits(); this splits such a
    value into halves that str() accepts, and leaves the limit alone.
    """
    if isinstance(value, Fraction):
        if value.denominator != 1:
            return f"{decimal_string(value.numerator)}/{decimal_string(value.denominator)}"
        value = value.numerator
    if value < 0:
        return "-" + decimal_string(-value)
    limit = sys.get_int_max_str_digits()
    # 2^(3L) < 10^(0.91L), so fewer than 3L bits means at most L digits
    if not limit or value.bit_length() < 3 * limit:
        return str(value)
    low_digits = value.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(value, 10 ** low_digits)
    return decimal_string(high) + decimal_string(low).zfill(low_digits)


class CountReport(SimpleNamespace):
    """An exact count's outcome, built once: the count with its decomposition
    and catalogue notes, or the refusal's reason.  Compares by its fields."""

    def __init__(self, genus, rank, ell, e0, applicable, value=None, required_w2=None, reason=None,
                 decomposition=None, notes=()):
        super().__init__(genus=genus, rank=rank, ell=ell, e0=e0, applicable=applicable, value=value,
                         required_w2=required_w2, reason=reason, decomposition=decomposition, notes=notes)

    def to_json_dict(self) -> dict:
        out = {
            "schema": "ogq-count/1",
            "g": self.genus,
            "rank": self.rank,
            "ell": self.ell,
            "e0": self.e0,
            "applicable": self.applicable,
        }
        if self.required_w2 is not None:
            out["required_w2"] = self.required_w2
        if self.applicable:
            out["N"] = decimal_string(self.value)
            out["decomposition"] = self.decomposition
        else:
            out["reason"] = self.reason
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _count_plan(genus: int, rank: int, ell: int) -> tuple[int, int, int, int, dict]:
    # (e0, n, exponent, staircase power, the decomposition's route keys): the
    # count is _scaled_sum at that n, staircase power and exponent.  Even rank
    # 2n: the plan at e0, doubled when ell is even.  Odd rank: the companion
    # plan one rank up, whose count is twice this one, so one power of two less.
    e0 = max_iso_degree(rank, genus, ell)
    if rank % 2:
        try:
            companion_e0, n, exponent, rho_power, _keys = _count_plan(genus, rank + 1, ell)
        except NotCoveredError as exc:
            raise NotCoveredError(
                f"rank {rank}: companion even-rank query is not covered ({exc})",
                e0=e0,
            ) from exc
        if companion_e0 != e0 + ell // 2:
            raise NonIntegralResultError(
                f"rank {rank}: companion extremal degree {companion_e0} "
                f"is not e0 + ell/2 = {e0 + ell // 2}"
            )
        return e0, n, exponent - 1, rho_power, {
            "route": "odd_rank_halving", "companion_rank": rank + 1, "companion_e0": companion_e0}
    n = rank // 2
    doubling = 1 if ell % 2 == 0 else 0
    exponent, rho_power = _plan(n, ell, e0)
    exponent += doubling
    # the prefactor is an exact power of two; its square matches the
    # closed form in n, the staircase power and g, which pins the decomposition
    _check_prefactor(exponent, n, rho_power, genus, doubling)
    return e0, n, exponent, rho_power, {
        "route": "even_e0" if e0 % 2 == 0 else "odd_e0_odd_n", "prefactor_log2": exponent,
        "staircase_power": rho_power, "doubled": ell % 2 == 0}


def _check_prefactor(exponent: int, n: int, shift: int, genus: int, doubling: int) -> None:
    closed = n * (shift + genus - 1) + 2 * doubling
    if 2 * exponent != closed:
        raise NonIntegralResultError(
            f"prefactor 2^{exponent} does not match the closed form: "
            f"2 * {exponent} != n*(shift+g-1) + 2*doubling = {closed}"
        )


def count_answer(genus: int, rank: int, ell: int, exact: bool = True) -> CountReport | quantum.Answer:
    """Count for rank >= 3, invariant ell, at the extremal degree e_0, planned
    once (_count_plan) and summed on one route: exact, one orbit trace
    divided once, as a CountReport; float, a double over all 2^(n-1) complex
    points, as a quantum.Answer with no prime (OverflowError past the range
    of a double).  Even rank 2n: n_tilde at e_0 with constant integrand,
    doubled when ell is even.  Odd rank 2n+1 (ell even): half the even-rank
    count one rank up, whose extremal degree is e_0 + ell/2, so the
    companion's sum with one power of two less.  Parity failures raise
    NotApplicableError and NotCoveredError.

    The exact route checks the power-of-two prefactor against its closed
    form (_check_prefactor), the companion's extremal degree, that the count
    is a nonnegative integer (the orbit sum is a trace, rational by
    construction; at odd rank this is that the companion count is even), and
    the closed forms of CATALOG: a count off one whose hypotheses it meets
    raises CatalogMismatchError, a ProofFailure; else the report notes
    whether one applies.  Each staircase factor 2^m * P~_rho = +-r has its
    sign read mod a prime p at every representative: the square is checked
    mod p, not proved, and the decomposition names p.  The float route reads
    neither the orbits, nor a prime, nor CATALOG: `--mode float` is an
    independent summation of the same plan.
    """
    e0, n, exponent, rho_power, route_keys = _count_plan(genus, rank, ell)
    total = _scaled_sum(exact, n, genus, rho_power, exponent)
    if not exact:
        return quantum.Answer(total, None)
    num, den, prime = total
    value = quantum.as_count(num, den, "count")
    decomposition = {**route_keys, "orbits": quantum.orbit_count(n), "points": 2 ** (n - 1)}
    if prime is not None:
        decomposition["sign_check_prime"] = prime
    return CountReport(genus, rank, ell, e0, True, value, e0 % 2, None, decomposition,
                       _check_catalog(genus, rank, ell, value))


def count(genus: int, rank: int, ell: int) -> CountReport:
    """count_answer's exact report, with the parity failures returned as a
    report with applicable = False instead of an exception."""
    try:
        return count_answer(genus, rank, ell)
    except NotApplicableError as exc:
        return CountReport(genus, rank, ell, None, False, reason=f"not applicable: {exc}")
    except NotCoveredError as exc:
        return CountReport(genus, rank, ell, exc.e0, False, reason=f"not covered: {exc}",
                           required_w2=None if exc.e0 is None else exc.e0 % 2)


def count_float(genus: int, rank: int, ell: int) -> float:
    """count_answer's float value, a fast path from the complex points."""
    return count_answer(genus, rank, ell, exact=False).value


# (rank, ell): hypotheses, their test on g, the closed form and its name.
# Notes and the mismatch error name the form instead of printing its value,
# which can have more digits than str() accepts.
CATALOG = {
    (4, 0): ("g odd", lambda g: g % 2 == 1, lambda g: 2 ** (g + 1), "2^(g+1)"),
    (3, 0): ("g odd", lambda g: g % 2 == 1, lambda g: 2 ** g, "2^g"),
    (6, 0): ("g odd", lambda g: g % 2 == 1, lambda g: 2 ** (2 * g + 1), "2^(2g+1)"),
    (6, 1): ("g even", lambda g: g % 2 == 0, lambda g: 2 ** (2 * g), "2^(2g)"),
    (5, 0): ("g odd", lambda g: g % 2 == 1, lambda g: 2 ** (2 * g), "2^(2g)"),
}


def _check_catalog(genus: int, rank: int, ell: int, value: int) -> tuple[str, ...]:
    # a note where a catalogued form applies or not; a count off it is a failed proof
    entry = CATALOG.get((rank, ell))
    if entry is None:
        return ()
    label, predicate, value_fn, form = entry
    if not predicate(genus):
        return (f"outside catalogued hypotheses ({label}) for this family",)
    if value != value_fn(genus):
        raise CatalogMismatchError(f"count(g={genus}, rank={rank}, ell={ell}) contradicts "
                                   f"the catalogued closed form {form} (hypotheses: {label})")
    return (f"matches catalogued closed form {form}",)


def trivial_bundle_number(genus: int, n: int, e: int, u: int, insertions) -> int:
    """Count-type invariant of the trivial rank-2n orthogonal bundle: equals
    the genus-g Gromov-Witten invariant of degree |e|/2 with u staircase
    insertions in front.

    The subbundle degree e must be even and nonpositive.
    """
    if e % 2:
        raise OddDegreeUnsupportedError(f"subbundle degree must be even, got {e}")
    if e > 0:
        raise InvalidInput(f"subbundle degree must be <= 0, got {e}")
    if u < 0:
        raise InvalidInput(f"u must be >= 0, got {u}")
    ins = (partitions.rho(n - 1),) * u + tuple(tuple(lam) for lam in insertions)
    return quantum.gw_invariant(GWQuery(n, genus, (-e) // 2, ins))
