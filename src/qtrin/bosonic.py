"""Bosonic sides: alternating theta sums over refined trinomials, Virasoro
characters, string functions and branching functions."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .fermionic import _FAMILIES, _kfamily
from .qcomb import refined_T
from .qpoly import QPoly, QSeries, euler_inverse, pochhammer


class InvalidCharLabel(Exception):
    pass


class InvalidBranchLabel(Exception):
    pass


def _jrange(L: int, M: int, widen: int = 0) -> range:
    # Every theta sum below hits refined_T arguments growing linearly in j;
    # |a| > L kills the term, so a small window suffices.
    j = max(L, M) + 2 + widen
    return range(-j, j + 1)


def _theta_sum(family: int, k: int, L: int, M: int, widen: int) -> QPoly:
    """The family's alternating theta sum at depth k.

    Each row (sign, a0, b0, c, d) contributes, for every j, the term
    sign * q^{ab/2 + cj + d} refined_T(L, M, a, b) with a = A j + a0,
    b = P j + b0 and A = P(k+1) - 2.
    """
    if L < 0 or M < 0:
        raise ValueError("L and M must be nonnegative")
    P = _FAMILIES[family].P
    A = P * (k + 1) - 2
    rows = [(1, 0, 0, 1, 0), (-1, k + 1, 1, 0, 0)]
    if family == 3:
        rows += [(1, 3 * k + 2, 3, 0, 0), (-1, 4 * k + 3, 4, 1, Fraction(1, 2))]
    out = QPoly.zero()
    for j in _jrange(L, M, widen):
        for sign, a0, b0, c, d in rows:
            a, b = A * j + a0, P * j + b0
            t = refined_T(L, M, a, b).shift(Fraction(a * b, 2) + c * j + d)
            out = out + t if sign > 0 else out - t
    return out


def conj_lhs(which: int, L: int, M: int, widen: int = 0) -> QPoly:
    """Alternating theta sum over refined trinomials for conjecture 1, 2 or 3:
    the k = 0 case of the family's k-series theta sum."""
    if which not in _FAMILIES:
        raise ValueError("conjecture index must be 1, 2 or 3")
    return _theta_sum(which, 0, L, M, widen)


def kseries_lhs(family: str, k: int, L: int, M: int, widen: int = 0) -> QPoly:
    """Theta-sum side of the three iterated families at depth k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _theta_sum(_kfamily(family), k, L, M, widen)


# -- string functions ------------------------------------------------


@lru_cache(maxsize=None)
def string_function(sigma: int, order: Fraction | int) -> QSeries:
    """Level-1 string function c_sigma: the sum over n = sigma mod 2 of
    q^{n^2/2}/(q)_n, divided by (q)_inf.

    This is the large-L limit of T(L,a) with L+a+sigma even.  The tests
    check it against the Pochhammer and product representations.
    """
    if sigma not in (0, 1):
        raise ValueError("sigma must be 0 or 1")
    order = Fraction(order)
    if order <= 0:
        return QSeries.zero(order)
    out = QSeries.zero(order)
    n = sigma
    while Fraction(n * n, 2) < order:
        t = QSeries({Fraction(n * n, 2): 1}, order)
        if n:
            t = t * pochhammer(1, 1, 1, n, order).inverse()
        out = out + t
        n += 2
    return out * euler_inverse(order)


# -- Virasoro characters and branching functions ---------------------


def _char_jrange(quad: int, lin: int, cutoff: Fraction, widen: int = 0) -> range:
    # smallest J with quad*j^2 - lin*|j| >= cutoff for all |j| > J
    c = max(int(cutoff), 0)
    j = 1 + (lin + isqrt(lin * lin + 4 * quad * c) + 2 * quad - 1) // (2 * quad)
    j += widen
    return range(-j, j + 1)


def virasoro_char(
    p: int, pp: int, r: int, s: int, order: Fraction | int, widen: int = 0
) -> QSeries:
    """Minimal-model character chi^{(p,p')}_{r,s} as a truncated series.

    Labels with p > p' are accepted via the symmetry chi^{(p,p')}_{r,s} =
    chi^{(p',p)}_{s,r}.
    """
    if p > pp:
        p, pp, r, s = pp, p, s, r
    if not (2 <= p < pp and gcd(p, pp) == 1):
        raise InvalidCharLabel(f"need coprime 2 <= p < p', got ({p},{pp})")
    if not (1 <= r <= p - 1 and 1 <= s <= pp - 1):
        raise InvalidCharLabel(f"labels (r,s)=({r},{s}) out of range for ({p},{pp})")
    order = Fraction(order)
    alpha = Fraction((pp * r - p * s) ** 2 - 1, 4 * p * pp)
    inner = order - alpha
    if inner <= 0:
        return QSeries.zero(order)
    lin = max(abs(pp * r - p * s), p * s + pp * r)
    theta: dict[Fraction, int] = {}
    for j in _char_jrange(p * pp, lin, inner, widen):
        for e, sign in (
            (j * (p * pp * j + pp * r - p * s), 1),
            ((p * j + r) * (pp * j + s), -1),
        ):
            ef = Fraction(e)
            if ef < inner:
                theta[ef] = theta.get(ef, 0) + sign
    series = QSeries(theta, inner) * euler_inverse(inner)
    return series.shift(alpha)


def branching_function(
    p: int, pp: int, r: int, s: int, sigma: int, order: Fraction | int,
    widen: int = 0,
) -> QSeries:
    """Coset branching function B^{(p,p')}_{r,s;sigma} as a truncated series."""
    if not (2 <= p < pp):
        raise InvalidBranchLabel(f"need 2 <= p < p', got ({p},{pp})")
    if not (1 <= r <= p - 1 and 1 <= s <= pp - 1):
        raise InvalidBranchLabel(f"labels (r,s)=({r},{s}) out of range")
    if (pp - p) % 2 or (r - s) % 2:
        raise InvalidBranchLabel("p'-p and r-s must both be even")
    if gcd((pp - p) // 2, pp) != 1:
        raise InvalidBranchLabel("need gcd((p'-p)/2, p') = 1")
    if sigma not in (0, 1):
        raise InvalidBranchLabel("sigma must be 0 or 1")
    order = Fraction(order)
    alpha = Fraction((pp * r - p * s) ** 2 - 4, 8 * p * pp)
    inner = order - alpha
    if inner <= 0:
        return QSeries.zero(order)
    # Theta exponents run at half the Virasoro scale, and the 1/(q)_inf
    # prefactor is already carried inside the normalized string functions;
    # this is the reading under which B^{(3,5)}_{1,1;sigma} equals
    # chi^{(4,5)}_{2 sigma+1,1} exactly (checked coefficientwise).
    c = (string_function(0, inner), string_function(1, inner))
    acc = QSeries.zero(inner)
    lin = max(abs(pp * r - p * s), p * s + pp * r)
    for j in _char_jrange(p * pp, lin, 2 * inner, widen):
        e1 = Fraction(j * (p * pp * j + pp * r - p * s), 2)
        if e1 < inner:
            idx = (p * j + (r - s) // 2 + sigma) % 2
            acc = acc + c[idx].shift(e1).truncate(inner)
        e2 = Fraction((p * j + r) * (pp * j + s), 2)
        if e2 < inner:
            idx = (p * j + (r + s) // 2 + sigma) % 2
            acc = acc - c[idx].shift(e2).truncate(inner)
    return acc.shift(alpha)
