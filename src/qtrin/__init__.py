"""Exact-arithmetic q-series toolkit.

Laurent polynomials and truncated q-series over the integers with
Fraction exponents, Gaussian and trinomial q-binomial analogues, a
refined two-parameter trinomial, simply-laced (m,n)-system solvers,
fermionic and bosonic character constructions, and a registry-driven
verification engine with a command line front end.
"""

import sys

from .qpoly import QPoly, QSeries, euler_inverse, product_series
from .qcomb import qbinomial, qtrinomial2, qtrinomial_T, refined_T
from .liealg import LieAlgebra, algebra
from .mnsys import (
    MNSolution,
    mod3_filter,
    parity_filter,
    solve_mn,
)
from .fermionic import (
    f_poly,
    fermionic_char_sum,
    fsum_family_lhs,
    kseries_rhs,
    x_series_lhs,
)
from .bosonic import (
    branching_function,
    kseries_lhs,
    string_function,
    virasoro_char,
)
from .verify import (
    REGISTRY,
    IdentityDescriptor,
    VerificationReport,
    verify_all,
    verify_identity,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every functools cache in the package's loaded modules, so that
    the next call computes from scratch (a timing taken right after it
    measures cold work)."""
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


__all__ = [
    "IdentityDescriptor",
    "LieAlgebra",
    "MNSolution",
    "QPoly",
    "QSeries",
    "REGISTRY",
    "VerificationReport",
    "algebra",
    "branching_function",
    "clear_caches",
    "euler_inverse",
    "f_poly",
    "fermionic_char_sum",
    "fsum_family_lhs",
    "kseries_lhs",
    "kseries_rhs",
    "mod3_filter",
    "parity_filter",
    "product_series",
    "qbinomial",
    "qtrinomial2",
    "qtrinomial_T",
    "refined_T",
    "solve_mn",
    "string_function",
    "verify_all",
    "verify_identity",
    "virasoro_char",
    "x_series_lhs",
]
