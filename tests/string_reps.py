"""The two closed-form representations of the level-1 string functions.

``qtrin.bosonic.string_function`` computes c_sigma from the
parity-restricted n-sum only; these are the oracles it is checked against.
The Pochhammer form is written in ``qpoly_reference`` alone; the product
form divides ``qpoly_reference.euler_inverse`` by its mod-8 and mod-16
factors through ``qtrin.qpoly.product_series``.
"""

from fractions import Fraction
from math import ceil

import qpoly_reference as ref
from qtrin.bosonic import string_function
from qtrin.qpoly import QSeries, product_series


class RepresentationMismatch(Exception):
    """The three string-function representations disagree: implementation bug."""


def pochhammer_form(sigma: int, order: Fraction) -> QSeries:
    """((-q^{1/2}; q)_inf +- (q^{1/2}; q)_inf) / (2 (q)_inf)."""
    n = ceil(order)  # every factor below the order
    plus = ref.pochhammer(Fraction(1, 2), -1, 1, n, order)   # (-q^{1/2}; q)_inf
    minus = ref.pochhammer(Fraction(1, 2), 1, 1, n, order)   # (q^{1/2}; q)_inf
    num = ref.add(plus, minus if sigma == 0 else ref.neg(minus))
    assert all(c % 2 == 0 for c in num.values())
    half = {e: c // 2 for e, c in num.items()}
    return QSeries(ref.mul(half, ref.euler_inverse(order), order), order)


def product_form(sigma: int, order: Fraction) -> QSeries:
    """q^{sigma/2} over (q)_inf and the mod-8 and mod-16 products."""
    shift = Fraction(sigma, 2)
    inner = order - shift
    down = [j for j in range(1, ceil(inner))
            if j % 8 in (3 - 2 * sigma, 4, 5 + 2 * sigma)
            or j % 16 in (2 + 4 * sigma, 14 - 4 * sigma)]
    den = product_series((), down, inner, QSeries(ref.euler_inverse(inner), inner))
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
