"""Bosonic sides: the k-series alternating theta sums over refined trinomials
(each conjecture's left-hand side their depth 0), Virasoro characters, string
functions and branching functions."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .fermionic import _FAMILIES
from .qcomb import _euler_pairs, _refined, _side_factors, positive_sum
from .qpoly import QPoly, QSeries, euler_inverse


def _span(c: int, c0: int, bound: int) -> range:
    """The j with |c j + c0| <= bound, for c > 0."""
    return range(-((bound + c0) // c), (bound - c0) // c + 1)


def kseries_lhs(family: int, k: int, L: int, M: int) -> QPoly:
    """Alternating theta sum of family 1, 2 or 3 at depth k >= 0; depth 0 is
    the left side of conjecture ``family``.

    Each row (sign, a0, b0, c, d) contributes, for every j, the term
    sign * q^{ab/2 + cj + d/2} refined_T(L, M, a, b) with a = A j + a0,
    b = P j + b0 and A = P(k+1) - 2.  Only the j with |a| <= L and |b| <= M
    give a nonzero refinement, and their terms make two kernel calls, one
    over the plus rows and one over the minus rows, with each refinement a
    kernel factor and its least exponent folded into the term's exponent.
    """
    if family not in _FAMILIES:
        raise ValueError("family must be 1, 2 or 3")
    if k < 0:
        raise ValueError("k must be >= 0")
    if L < 0 or M < 0:
        raise ValueError("L and M must be nonnegative")
    P = _FAMILIES[family].P
    A = P * (k + 1) - 2
    rows = [(1, 0, 0, 1, 0), (-1, k + 1, 1, 0, 0)]
    if family == 3:
        rows += [(1, 3 * k + 2, 3, 0, 0), (-1, 4 * k + 3, 4, 1, 1)]
    sides = {1: [], -1: []}
    for sign, a0, b0, c, d in rows:
        ja, jb = _span(A, a0, L), _span(P, b0, M)
        for j in range(max(ja.start, jb.start), min(ja.stop, jb.stop)):
            a, b = A * j + a0, P * j + b0
            for e, f in _side_factors(_refined, (L, M, a, b)):
                sides[sign].append((a * b + 2 * c * j + d + e, (f,)))
    return positive_sum(sides[1], 2) - positive_sum(sides[-1], 2)


# -- string functions ------------------------------------------------


@lru_cache(maxsize=None)
def string_function(sigma: int, order: Fraction | int) -> QSeries:
    """Level-1 string function c_sigma: the sum over n = sigma mod 2 of
    q^{n^2/2}/(q)_n, one kernel call, divided by (q)_inf.

    This is the large-L limit of T(L,a) with L+a+sigma even.  The tests
    check it against the Pochhammer representation, in the reference term
    maps alone, the product representation and the reference n-sum, each
    dividing by the tests' own partition series
    (``qpoly_reference.euler_inverse``: the finite product (q)_n, n =
    ceil(order), inverted), not by ``euler_inverse``.
    """
    if sigma not in (0, 1):
        raise ValueError("sigma must be 0 or 1")
    order = Fraction(order)
    if order <= 0:  # nothing is known, and a product would lower the order
        return QSeries.zero(order)
    out = positive_sum(((n * n, _euler_pairs((n,), order))
                        for n in range(sigma, isqrt(int(2 * order)) + 1, 2)),
                       2, order)
    return out * euler_inverse(order)


# -- Virasoro characters and branching functions ---------------------


def _rocha_caridi(p: int, pp: int, r: int, s: int, cutoff: Fraction):
    """Terms (j, sign, e) of the Rocha-Caridi theta sum: for every j in a
    window that holds all e < cutoff, e = j(pp'j + p'r - ps) with sign +1
    and e = (pj + r)(p'j + s) with sign -1."""
    quad = p * pp
    lin = max(abs(pp * r - p * s), p * s + pp * r)
    # smallest J with quad*j^2 - lin*|j| >= cutoff for all |j| > J
    c = max(int(cutoff), 0)
    J = 1 + (lin + isqrt(lin * lin + 4 * quad * c) + 2 * quad - 1) // (2 * quad)
    for j in range(-J, J + 1):
        yield j, 1, j * (quad * j + pp * r - p * s)
        yield j, -1, (p * j + r) * (pp * j + s)


def virasoro_char(p: int, pp: int, r: int, s: int, order: Fraction | int) -> QSeries:
    """Minimal-model character chi^{(p,p')}_{r,s} as a truncated series.

    Labels with p > p' are accepted via the symmetry chi^{(p,p')}_{r,s} =
    chi^{(p',p)}_{s,r}.
    """
    if p > pp:
        p, pp, r, s = pp, p, s, r
    if not (2 <= p < pp and gcd(p, pp) == 1):
        raise ValueError(f"need coprime 2 <= p < p', got ({p},{pp})")
    if not (1 <= r <= p - 1 and 1 <= s <= pp - 1):
        raise ValueError(f"labels (r,s)=({r},{s}) out of range for ({p},{pp})")
    order = Fraction(order)
    alpha = Fraction((pp * r - p * s) ** 2 - 1, 4 * p * pp)
    inner = order - alpha
    if inner <= 0:
        return QSeries.zero(order)
    theta = [(e, sign) for _, sign, e in _rocha_caridi(p, pp, r, s, inner)]
    series = QSeries(theta, inner) * euler_inverse(inner)
    return series.shift(alpha)


def branching_function(
    p: int, pp: int, r: int, s: int, sigma: int, order: Fraction | int
) -> QSeries:
    """Coset branching function B^{(p,p')}_{r,s;sigma} as a truncated series."""
    if not (2 <= p < pp):
        raise ValueError(f"need 2 <= p < p', got ({p},{pp})")
    if not (1 <= r <= p - 1 and 1 <= s <= pp - 1):
        raise ValueError(f"labels (r,s)=({r},{s}) out of range")
    if (pp - p) % 2 or (r - s) % 2:
        raise ValueError("p'-p and r-s must both be even")
    if gcd((pp - p) // 2, pp) != 1:
        raise ValueError("need gcd((p'-p)/2, p') = 1")
    if sigma not in (0, 1):
        raise ValueError("sigma must be 0 or 1")
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
    for j, sign, e in _rocha_caridi(p, pp, r, s, 2 * inner):
        if e < 2 * inner:
            t = c[(p * j + (r - sign * s) // 2 + sigma) % 2]
            t = t.shift(Fraction(e, 2)).truncate(inner)
            acc = acc + t if sign > 0 else acc - t
    return acc.shift(alpha)
