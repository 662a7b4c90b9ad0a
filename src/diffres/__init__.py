"""Exact determinant formulas and elimination for linear ODE systems.

``__all__`` holds the names that the README, the benchmark and the
acceptance tests use; every other public name is imported from its
submodule.  ``cli`` and ``sysfile`` are submodules, loaded on first use.
"""

from .algebra import Frac, Poly, const_sym, exact_div, sym
from .formulas import (
    Verdict,
    assemble,
    certify_nonzero,
    co_order,
    dfres,
    order_bounds,
    rank_homogeneous,
    spec_cres,
    spec_fres,
    zero_columns,
)
from .perturb import (
    decompose_linear,
    default_perturbation,
    eliminate,
    extract_resultant,
    gcld,
    id_primitive_part,
    lowest_p_coefficient,
    perturbed_matrix,
    verify_membership,
)
from .structure import (
    enumerate_super_essential,
    is_differentially_essential,
    is_super_essential,
    pattern_matrix,
    pattern_sym,
    restrict,
    row_deleted_matching,
    super_essential_subsystem,
)
from .systems import (
    LinearSystem,
    constant,
    linear_poly,
    order_profile,
    specialize,
)

__all__ = [
    "Frac",
    "LinearSystem",
    "Poly",
    "Verdict",
    "assemble",
    "certify_nonzero",
    "cli",
    "co_order",
    "const_sym",
    "constant",
    "decompose_linear",
    "default_perturbation",
    "dfres",
    "eliminate",
    "enumerate_super_essential",
    "exact_div",
    "extract_resultant",
    "gcld",
    "id_primitive_part",
    "is_differentially_essential",
    "is_super_essential",
    "linear_poly",
    "lowest_p_coefficient",
    "order_bounds",
    "order_profile",
    "pattern_matrix",
    "pattern_sym",
    "perturbed_matrix",
    "rank_homogeneous",
    "restrict",
    "row_deleted_matching",
    "spec_cres",
    "spec_fres",
    "specialize",
    "super_essential_subsystem",
    "sym",
    "sysfile",
    "verify_membership",
    "zero_columns",
]
