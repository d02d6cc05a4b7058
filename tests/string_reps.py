"""The two closed-form representations of the level-1 string functions.

``qtrin.bosonic.string_function`` computes c_sigma from the
parity-restricted n-sum only; these are the oracles it is checked against.
Their 1/(q)_inf is ``qpoly_reference.euler_inverse``, not qtrin's.
"""

from fractions import Fraction

import qpoly_reference as ref
from qtrin.bosonic import string_function
from qtrin.qpoly import QSeries, pochhammer, pochhammer_multi


class RepresentationMismatch(Exception):
    """The three string-function representations disagree: implementation bug."""


def pochhammer_form(sigma: int, order: Fraction) -> QSeries:
    """((-q^{1/2}; q)_inf +- (q^{1/2}; q)_inf) / (2 (q)_inf)."""
    plus = pochhammer(Fraction(1, 2), -1, 1, order)   # (-q^{1/2}; q)_inf
    minus = pochhammer(Fraction(1, 2), 1, 1, order)   # (q^{1/2}; q)_inf
    num = plus + minus if sigma == 0 else plus - minus
    assert all(c % 2 == 0 for c in num.terms.values())
    half = QSeries({e: c // 2 for e, c in num.terms.items()}, order)
    return half * QSeries(ref.euler_inverse(order), order)


def product_form(sigma: int, order: Fraction) -> QSeries:
    """q^{sigma/2} over (q)_inf and the mod-8 and mod-16 products."""
    shift = Fraction(sigma, 2)
    inner = order - shift
    den = QSeries(ref.euler_inverse(inner), inner)
    den = den * pochhammer_multi(
        (3 - 2 * sigma, 4, 5 + 2 * sigma), 8, inner).inverse()
    den = den * pochhammer_multi(
        (2 + 4 * sigma, 14 - 4 * sigma), 16, inner).inverse()
    return den.shift(shift)


def checked_string_function(sigma: int, order) -> QSeries:
    """string_function(sigma, order), after checking that it equals both
    closed-form representations."""
    order = Fraction(order)
    a = string_function(sigma, order)
    b = pochhammer_form(sigma, order)
    c = product_form(sigma, order)
    if not (a == b == c):
        raise RepresentationMismatch(
            f"string function c_{sigma} representations disagree at order {order}")
    return a
