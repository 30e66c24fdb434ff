"""Counts of maximal isotropic subbundles of orthogonal bundles over a curve.

For a stable orthogonal bundle V of rank r and even Stiefel-Whitney-compatible
degree data on a smooth curve of genus g, the number of maximal isotropic
subbundles of the extremal degree e_0 is finite, and it is computed here by
specializing the evaluation sum behind the Gromov-Witten invariants.  One
scaled sum (_scaled_sum) carries every number: a power of two times a sum
over the evaluation tuples of staircase-Schur powers, staircase P~ powers
and an integrand.  Its exact value is summed over the affine orbits of the
tuples (quantum.orbit_trace, a few traces over one denominator), its float
value over all 2^(n-1) tuples (evaluation_sum), so `--mode float` is an
independent summation of the same formula.  One plan (_plan) picks the
power of two and the staircase power at rank 2n and degree e; n_tilde's
plan (_n_tilde_plan) and the one count plan (_count_plan), which count and
count_float share for both rank parities, read it.  The intermediate
quantity n_tilde covers arbitrary degree e and an arbitrary polynomial
integrand in the halved elementary classes a_i, read term by term: only the
terms on the expected weight are summed, the others integrate to 0.  An
even-rank count is n_tilde's sum at e_0 with the integrand 1, doubled for
even ell; an odd-rank count is half the even-rank count one rank up, the
same sum with one power of two less.  The trivial-bundle case is literally
a Gromov-Witten invariant, which gives an independent bridge for testing.

Parity limits are first-class outcomes: a query whose extremal degree does
not exist raises NotApplicableError, and the even-rank route with n even but
e_0 odd raises NotCoveredError (the two documented low-rank values in that
regime are quoted in the diagnostic, not computed).  Both are refusals
(quantum.Refusal), as is a query past a size budget (the caps EXACT_MAX_N
and FLOAT_MAX_N live in quantum, and the scaled sum checks its route's cap
before anything is enumerated) and an integrand the float route does not
evaluate, one whose terms on the expected weight are not a constant.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction

from . import partitions, quantum
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


@dataclasses.dataclass(frozen=True)
class NQuery:
    """Arbitrary-bundle intersection query: genus, n (half the rank), the
    invariant ell, subbundle degree e, u staircase insertions, and the
    integrand Q as a polynomial in a_1..a_{n-1}."""

    genus: int
    n: int
    ell: int
    e: int
    u: int = 0
    q_poly: AlphaPolynomial = dataclasses.field(default_factory=AlphaPolynomial.one)

    def __post_init__(self):
        if self.n < 2:
            raise UnsupportedRankError(f"n must be >= 2, got {self.n}")
        if self.genus < 0:
            raise InvalidInput(f"genus must be >= 0, got {self.genus}")
        if self.u < 0:
            raise InvalidInput(f"u must be >= 0, got {self.u}")


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


def _scaled_sum(exact: bool, n: int, genus: int, staircases: int, exponent: int,
                integrand: AlphaPolynomial | None = None) -> tuple[int, int] | float:
    # 2^exponent times the sum over the evaluation points of S_rho^(genus-1)
    # * P~_rho^staircases * the integrand (None: 1), under the route's cap,
    # checked before the staircase is built: exact as (numerator,
    # denominator) from the orbit trace, else a double from the full float
    # sum, which takes a constant integrand only.  Every count and n_tilde
    # is this sum.
    quantum.check_budget(n, "exact" if exact else "float")
    if integrand is not None and not integrand:  # no term: nothing to sum
        return (0, 1) if exact else 0.0
    insertions = (partitions.rho(n - 1),) * staircases
    if exact:
        num, den = quantum.orbit_trace(n, genus, insertions, q_poly=integrand)
        return (num << exponent, den) if exponent >= 0 else (num, den << -exponent)
    if integrand is not None and integrand.weighted_degree():
        raise Refusal("the float route evaluates only the constant integrand")
    total = quantum.evaluation_sum(n, genus, insertions, exact=False)
    return quantum.scaled_double(total if integrand is None else total * float(integrand.terms[0][1]), exponent)


def _n_tilde_plan(query: NQuery) -> tuple[int, int, int, int, AlphaPolynomial | None]:
    # _scaled_sum's arguments for n_tilde: the integrand's terms on the
    # expected weight, None for the constant 1; every other term integrates to 0.
    exponent, rho_power = _plan(query.n, query.ell, query.e)
    kept = query.q_poly.part_of_weight(expected_dim_t(query.n, query.ell, query.e, query.genus, query.u))
    return query.n, query.genus, rho_power + query.u, exponent, None if kept == AlphaPolynomial.one() else kept


def n_tilde(query: NQuery) -> Fraction:
    """The intersection number behind the counts, for an arbitrary orthogonal
    bundle of rank 2n, invariant ell and isotropic degree e.

    Linear in the integrand: its terms off the expected weight integrate to
    0.  Raises NotCoveredError when n is even and e is odd.  Each staircase
    factor reads P~_rho by its sign, checked mod a prime, not proved
    (n_tilde_sign_prime).
    """
    return Fraction(*_scaled_sum(True, *_n_tilde_plan(query)))


def n_tilde_sign_prime(query: NQuery) -> int | None:
    """The prime p mod which n_tilde(query) checked the staircase square, or
    None: a staircase power summed with a nonzero integrand reads each factor
    P~_rho by its sign (quantum.sign_check_prime), a check mod p, not a proof."""
    n, _genus, staircases, _exponent, integrand = _n_tilde_plan(query)
    quantum.check_budget(n, "exact")  # before the staircase is built
    if integrand is not None and not integrand:
        return None
    return quantum.sign_check_prime(n, (partitions.rho(n - 1),) * staircases)


def n_tilde_float(query: NQuery) -> float:
    """Float fast path of n_tilde, where the integrand's terms on the expected
    weight are a constant (0.0 with none), else a Refusal; raises
    OverflowError when the value is past the range of a double."""
    return _scaled_sum(False, *_n_tilde_plan(query))


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


@dataclasses.dataclass
class CountReport:
    """Outcome of a maximal-isotropic-subbundle count."""

    genus: int
    rank: int
    ell: int
    e0: int | None
    applicable: bool
    value: int | None = None
    required_w2: int | None = None
    reason: str | None = None
    decomposition: dict | None = None
    notes: list[str] = dataclasses.field(default_factory=list)

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


def count(genus: int, rank: int, ell: int) -> CountReport:
    """Count for rank >= 3, invariant ell, at the extremal degree e_0, from
    one exact orbit trace, divided once.  Even rank 2n: n_tilde at e_0 with
    constant integrand, doubled when ell is even.  Odd rank 2n+1 (ell even):
    half the even-rank count one rank up, whose extremal degree is
    e_0 + ell/2, so the companion's sum with one power of two less.  Parity
    failures come back as a report with applicable = False instead of an
    exception.

    What is checked: the power-of-two prefactor against its closed form
    (_check_prefactor), the companion's extremal degree, that the count is a
    nonnegative integer (the orbit sum is a trace, rational by construction;
    at odd rank this is that the companion count is even), and the
    catalogued closed forms (a note on the report).  Each staircase factor
    2^m * P~_rho = +-r has its sign read mod a prime p at every
    representative: the square is checked mod p, not proved, and the
    decomposition names p (quantum.sign_check_prime).  Outside this call,
    `--mode float` re-sums the same plan over all 2^(n-1) points in complex
    doubles, with the sign from a complex Pfaffian, and `verify`'s
    trivial-bundle bridge compares n_tilde with Gromov-Witten invariants
    (whose exact sum reads P~_rho's sign mod the same p).
    """
    try:
        e0, n, exponent, rho_power, route_keys = _count_plan(genus, rank, ell)
    except NotApplicableError as exc:
        return CountReport(genus=genus, rank=rank, ell=ell, e0=None, applicable=False,
                           reason=f"not applicable: {exc}")
    except NotCoveredError as exc:
        return CountReport(genus=genus, rank=rank, ell=ell, e0=exc.e0, applicable=False,
                           reason=f"not covered: {exc}",
                           required_w2=None if exc.e0 is None else exc.e0 % 2)
    value = quantum.as_count(*_scaled_sum(True, n, genus, rho_power, exponent), "count")
    report = CountReport(genus=genus, rank=rank, ell=ell, e0=e0, applicable=True, value=value,
                         required_w2=e0 % 2, decomposition={
                             **route_keys, "orbits": quantum.orbit_count(n), "points": 2 ** (n - 1)})
    if (prime := quantum.sign_check_prime(n, (partitions.rho(n - 1),) * rho_power)) is not None:
        report.decomposition["sign_check_prime"] = prime
    _catalog_note(report)
    return report


def count_float(genus: int, rank: int, ell: int) -> float:
    """Float fast path of count(): the same plan summed in doubles; raises
    the parity verdicts as exceptions, and OverflowError when the count is
    past the range of a double."""
    _e0, n, exponent, rho_power, _keys = _count_plan(genus, rank, ell)
    return _scaled_sum(False, n, genus, rho_power, exponent)


# (rank, ell): hypotheses, their test on g, the closed form and its name.
# Notes name the form instead of printing its value, which can have more
# digits than str() accepts.
CATALOG = {
    (4, 0): ("g odd", lambda g: g % 2 == 1, lambda g: 2 ** (g + 1), "2^(g+1)"),
    (3, 0): ("g odd", lambda g: g % 2 == 1, lambda g: 2 ** g, "2^g"),
    (6, 0): ("g odd", lambda g: g % 2 == 1, lambda g: 2 ** (2 * g + 1), "2^(2g+1)"),
    (6, 1): ("g even", lambda g: g % 2 == 0, lambda g: 2 ** (2 * g), "2^(2g)"),
    (5, 0): ("g odd", lambda g: g % 2 == 1, lambda g: 2 ** (2 * g), "2^(2g)"),
}


def _catalog_note(report: CountReport) -> None:
    entry = CATALOG.get((report.rank, report.ell))
    if entry is None:
        return
    label, predicate, value_fn, form = entry
    if predicate(report.genus):
        if report.value == value_fn(report.genus):
            report.notes.append(f"matches catalogued closed form {form}")
        else:
            report.notes.append(
                f"MISMATCH against catalogued closed form {form} (hypotheses: {label})"
            )
    else:
        report.notes.append(f"outside catalogued hypotheses ({label}) for this family")


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
