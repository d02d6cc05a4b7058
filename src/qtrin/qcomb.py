"""q-binomials, q-trinomial coefficients T and their four-parameter refinement.

All results are exact QPoly values.  The refined coefficient is evaluated
straight from its defining sum; no recurrences.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, prod
from typing import Sequence

from .qpoly import QPoly

@lru_cache(maxsize=None)
def _gauss(n: int, a: int) -> tuple[int, ...]:
    """Dense coefficients of the Gaussian polynomial [n, a], from q^0 up;
    empty unless 0 <= a <= n.

    Built from the product formula [n, a] = prod_{j=1..a} (1 - q^{n-a+j}) /
    (1 - q^j) on one integer list.  After step j the list holds [n-a+j, j],
    so every division is exact.
    """
    if a < 0 or n < 0 or a > n:
        return ()
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
    return tuple(c)


@lru_cache(maxsize=None)
def qbinomial(n: int, a: int) -> QPoly:
    """Gaussian polynomial [n, a]; zero unless 0 <= a <= n.  Cached by (n, a)."""
    return QPoly(enumerate(_gauss(n, a)))


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


def _packed_sum(summands: list[tuple[int, list[tuple[int, ...]]]],
                bound: int) -> list[int]:
    """Dense coefficients of the sum over (s, factors) of q^s times the
    product of the factors, each factor a dense coefficient tuple.

    Kronecker substitution: q becomes 2^(8w), with w the bytes that hold
    ``bound``, so each factor is one integer with a w-byte slot per
    coefficient and each product one integer product.  All coefficients are
    nonnegative and ``bound`` is at least every coefficient of the sum and of
    every partial product, so no slot carries into the next.
    """
    w = (bound.bit_length() + 7) // 8
    total = 0
    for s, factors in summands:
        p = 1
        for f in factors:
            p *= int.from_bytes(b"".join([c.to_bytes(w, "little") for c in f]),
                                "little")
        total += p << (8 * w * s)
    data = total.to_bytes(-(-total.bit_length() // (8 * w)) * w, "little")
    return [int.from_bytes(data[i:i + w], "little") for i in range(0, len(data), w)]


@lru_cache(maxsize=None)
def refined_T(L: int, M: int, a: int, b: int) -> QPoly:
    """The refined q-trinomial coefficient with bounds L, M and charges a, b.

    Defining sum: over n from 0 to min(L-|a|, M) with n+a+L even, of
    q^{n^2/2} [M, n] [M+b+(L-a-n)/2, M+b] [M-b+(L+a-n)/2, M-b].  Every
    summand has nonnegative coefficients, so the value at q = 1 bounds each
    coefficient and the sum is one packed-integer evaluation (_packed_sum)
    in slots counted from q^{n0^2/2}.
    """
    n0 = (L + a) % 2  # the least n of the sum
    hi = min(L - abs(a), M)
    if hi < n0 or abs(b) > M:
        return QPoly.zero()
    summands = []
    at_1 = 0
    for n in range(n0, hi + 1, 2):
        gs = ((M, n), (M + b + (L - a - n) // 2, M + b),
              (M - b + (L + a - n) // 2, M - b))
        at_1 += prod(comb(*g) for g in gs)
        summands.append(((n * n - n0 * n0) // 2, [_gauss(*g) for g in gs]))
    return QPoly(enumerate(_packed_sum(summands, at_1))).shift(Fraction(n0 * n0, 2))
