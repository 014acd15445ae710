"""Exact lower bounds and candidate values for Seshadri constants.

For an ample line bundle L on an abelian or bielliptic surface (more
generally, any smooth surface whose irreducible curves with C^2 > 0
satisfy C^2 >= m(m-1) + 2 at a point of multiplicity m), a submaximal
Seshadri constant epsilon(L, x) < sqrt(L^2) not computed by an elliptic
curve or fiber is a rational number d/m with d^2 >= L^2 (2 + m(m-1)),
m >= 2, and is bounded below by

    min{ ceil(sqrt(L^2 (2+m(m-1)))) / m : m in 2..7 },

which settles at m = 4 for large L^2.  Everything here is computed in
exact integer arithmetic, with certificates replacing infinite case
checks by finite scans.
"""

from .bounds import (
    BoundCertificate,
    CensusReport,
    SmallBound,
    TailWitness,
    analytic_threshold,
    candidate_values,
    ceiling_threshold,
    census,
    certified_min,
    check_f7,
    d_min,
    lower_bound_small,
    m_max,
    omega_contains,
    sqrt58_threshold,
)
from .bielliptic import (
    SURFACE_KINDS,
    DivisorClass,
    SurfaceKind,
    fiber_degrees,
    intersect,
    seshadri_ratio,
    star_check_reducible,
    surface_kind,
)
from .comparison import comparison_table, dominance_check, prior_bound
from .exactmath import (
    RadicalBound,
    ceil_sqrt,
    format_decimal,
    sqrt_linear_cmp,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCertificate",
    "CensusReport",
    "DivisorClass",
    "RadicalBound",
    "SURFACE_KINDS",
    "SmallBound",
    "SurfaceKind",
    "TailWitness",
    "analytic_threshold",
    "candidate_values",
    "ceil_sqrt",
    "ceiling_threshold",
    "census",
    "certified_min",
    "check_f7",
    "comparison_table",
    "d_min",
    "dominance_check",
    "fiber_degrees",
    "format_decimal",
    "intersect",
    "lower_bound_small",
    "m_max",
    "omega_contains",
    "prior_bound",
    "seshadri_ratio",
    "sqrt58_threshold",
    "sqrt_linear_cmp",
    "star_check_reducible",
    "surface_kind",
]
