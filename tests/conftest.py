from functools import lru_cache

import pytest
from hypothesis import HealthCheck, settings

from ogq.cyclotomic import zero
from ogq.partitions import rho
from ogq.quantum import eval_points, session_order
from ogq.symfunc import alpha_evaluate, ptilde_value, schur_value

# Exact arithmetic makes per-example timing noisy; disable the deadline and
# keep the suite deterministic.
settings.register_profile(
    "ogq",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ogq")


# the per-point values repeat across calls; keep them
_schur_value = lru_cache(maxsize=None)(schur_value)
_ptilde_value = lru_cache(maxsize=None)(ptilde_value)


def _full_point_sum(n, genus, insertions=(), q_poly=None):
    # The closed formula summed over all 2^m evaluation points from the
    # public symfunc evaluators alone: S_rho^(genus-1) * prod of P~_lam *
    # Q(a_i = e_i/2) per point, sharing no integer table with quantum.
    staircase = rho(n - 1)
    total = zero(session_order(n))
    for ep in eval_points(n - 1):
        term = _schur_value(staircase, ep.point) ** (genus - 1)
        for lam in insertions:
            term = term * _ptilde_value(lam, ep.point)
        if q_poly is not None:
            term = term * alpha_evaluate(q_poly, ep.point)
        total = total + term
    return total


@pytest.fixture
def full_point_sum():
    """The oracle for the integrand routes: the exact sum over all points,
    built with symfunc's public evaluators only."""
    return _full_point_sum
