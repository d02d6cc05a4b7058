"""q-binomials, q-trinomial coefficients T and their four-parameter refinement.

All results are exact QPoly values.  The refined coefficient is evaluated
straight from its defining sum; no recurrences.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .qpoly import QPoly

@lru_cache(maxsize=None)
def qbinomial(n: int, a: int) -> QPoly:
    """Gaussian polynomial [n, a]; zero unless 0 <= a <= n.

    Built from the product formula [n, a] = prod_{j=1..a} (1 - q^{n-a+j}) /
    (1 - q^j) on one dense integer coefficient list, cached by (n, a).
    After step j the list holds [n-a+j, j], so every division is exact.
    """
    if a < 0 or n < 0 or a > n:
        return QPoly.zero()
    a = min(a, n - a)  # [n, a] = [n, n-a]
    b = n - a
    c = [1]
    for j in range(1, a + 1):
        s = b + j
        c += [0] * s  # times (1 - q^s)
        c[s:] = [x - y for x, y in zip(c[s:], c)]
        for r in range(j):  # divided by (1 - q^j): a running sum at stride j
            c[r::j] = accumulate(c[r::j])
        del c[j * b + 1:]  # the quotient has degree j*b; the rest is zero
    return QPoly(enumerate(c))


def qbinomial_vector(m: Sequence[int], n: Sequence[int]) -> QPoly:
    """Product over components of [m_j + n_j, n_j]."""
    if len(m) != len(n):
        raise ValueError("m and n must have the same length")
    out = QPoly.one()
    for mj, nj in zip(m, n):
        factor = qbinomial(mj + nj, nj)
        if not factor:
            return QPoly.zero()
        out = out * factor
    return out


@lru_cache(maxsize=None)
def qtrinomial2(L: int, a: int) -> QPoly:
    """Round-bracket q-trinomial: sum_k q^{k(k+a)} [L, k] [L-k, k+a]."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    out = QPoly.zero()
    for k in range(0, L + 1):
        b1 = qbinomial(L, k)
        b2 = qbinomial(L - k, k + a)
        if b1 and b2:
            out = out + (b1 * b2).shift(k * (k + a))
    return out


@lru_cache(maxsize=None)
def qtrinomial_T(L: int, a: int) -> QPoly:
    """The T(L, a) q-trinomial (half-integer exponents in general).

    Sum over n with n+a+L even of q^{n^2/2} (q)_L / ((q)_x (q)_y (q)_n),
    x = (L-a-n)/2, y = (L+a-n)/2; the multinomial is [L,n][L-n,x].
    """
    if L < 0:
        raise ValueError("L must be nonnegative")
    out = QPoly.zero()
    for n in range(0, L - abs(a) + 1):
        if (n + a + L) % 2:
            continue
        x = (L - a - n) // 2
        term = qbinomial(L, n) * qbinomial(L - n, x)
        if term:
            out = out + term.shift(Fraction(n * n, 2))
    return out


@lru_cache(maxsize=None)
def refined_T(L: int, M: int, a: int, b: int) -> QPoly:
    """The refined q-trinomial coefficient with bounds L, M and charges a, b.

    Defining sum: over n from 0 to min(L-|a|, M) with n+a+L even, of
    q^{n^2/2} [M, n] [M+b+(L-a-n)/2, M+b] [M-b+(L+a-n)/2, M-b].
    """
    out = QPoly.zero()
    hi = min(L - abs(a), M)
    for n in range(0, hi + 1):
        if (n + a + L) % 2:
            continue
        u = (L - a - n) // 2
        v = (L + a - n) // 2
        t1 = qbinomial(M, n)
        if not t1:
            continue
        t2 = qbinomial(M + b + u, M + b)
        if not t2:
            continue
        t3 = qbinomial(M - b + v, M - b)
        if not t3:
            continue
        out = out + (t1 * t2 * t3).shift(Fraction(n * n, 2))
    return out
