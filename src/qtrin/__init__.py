"""Exact-arithmetic q-series toolkit.

Laurent polynomials and truncated q-series over the integers with
Fraction exponents, Gaussian and trinomial q-binomial analogues, a
refined two-parameter trinomial, simply-laced (m,n)-system solvers,
fermionic and bosonic character constructions, and a registry-driven
verification engine with a command line front end.
"""

from .qpoly import (
    DivergentProduct,
    NonUnitConstantTerm,
    QPoly,
    QSeries,
    euler_inverse,
    pochhammer,
    pochhammer_multi,
)
from .qcomb import qbinomial, qtrinomial2, qtrinomial_T, refined_T
from .liealg import DimensionMismatch, LieAlgebra, UnknownAlgebra, algebra
from .mnsys import (
    MNSolution,
    mod3_filter,
    parity_filter,
    solve_mn,
    solve_mn_filtered,
)
from .fermionic import (
    conj_rhs,
    f_poly,
    fermionic_char_sum,
    fsum_family_lhs,
    kseries_rhs,
    x_series_lhs,
)
from .bosonic import (
    InvalidBranchLabel,
    InvalidCharLabel,
    branching_function,
    conj_lhs,
    kseries_lhs,
    string_function,
    virasoro_char,
)
from .verify import (
    REGISTRY,
    IdentityDescriptor,
    RunawayComputation,
    UnknownIdentity,
    VerificationReport,
    verify_all,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch",
    "DivergentProduct",
    "IdentityDescriptor",
    "InvalidBranchLabel",
    "InvalidCharLabel",
    "LieAlgebra",
    "MNSolution",
    "NonUnitConstantTerm",
    "QPoly",
    "QSeries",
    "REGISTRY",
    "RunawayComputation",
    "UnknownAlgebra",
    "UnknownIdentity",
    "VerificationReport",
    "algebra",
    "branching_function",
    "conj_lhs",
    "conj_rhs",
    "euler_inverse",
    "f_poly",
    "fermionic_char_sum",
    "fsum_family_lhs",
    "kseries_lhs",
    "kseries_rhs",
    "mod3_filter",
    "parity_filter",
    "pochhammer",
    "pochhammer_multi",
    "qbinomial",
    "qtrinomial2",
    "qtrinomial_T",
    "refined_T",
    "solve_mn",
    "solve_mn_filtered",
    "string_function",
    "verify_all",
    "verify_identity",
    "virasoro_char",
    "x_series_lhs",
]
