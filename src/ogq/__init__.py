"""Exact quantum cohomology of OG(n)_0 and isotropic subbundle counts."""

from .cyclotomic import CycloNum, cyclotomic_polynomial, root_of_unity
from .partitions import (
    Partition,
    all_strict,
    dual,
    format_partition,
    parse_partition,
    rho,
)
from .symfunc import (
    AlphaPolynomial,
    alpha_evaluate,
    complete_values,
    elementary_values,
    parse_alpha_poly,
    pfaffian,
    ptilde_alpha,
    ptilde_value,
    schur_value,
)
from .quantum import (
    EvalPoint,
    GWQuery,
    QuantumElement,
    admissible_degree,
    degree_ok,
    euler_class,
    eval_points,
    genus_recursion_check,
    gw_invariant,
    gw_invariant_float,
    quantum_product,
    structure_table,
    three_point,
    trace_invariant,
)
from .counting import (
    CountReport,
    NQuery,
    count,
    expected_dim,
    expected_dim_t,
    max_iso_degree,
    n_tilde,
    trivial_bundle_number,
)

__version__ = "0.1.0"
