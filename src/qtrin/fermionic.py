"""Fermionic sides: F-polynomials, the k-series sums of the three families
(each conjecture's right-hand side their depth 0), and the fermionic character
series.

Every sum here is manifestly positive: q-powers times products of Gaussian
polynomials and of 1/(q)_n, indexed by (m,n)-system solutions or by the points
of one walk below the truncation order (_walk), with the cone filters stepped
inside it.  Each is one call to qtrin.qcomb's kernel, with exponents over the
inverse Cartan denominator (n.C^{-1}.n), over 2 (the conjecture sides, k-series
and X-series: there n.C^{-1}.n has denominator 2, and squares over 2) or over
lcm(2, that denominator).  A series sum passes its truncation order, and each
1/(q)_n as a Gaussian that equals it below the order.  No QSeries is
multiplied, and no chain is enumerated: the chain sums of the k-series and
X-series are one recursion over the depth from the conjecture side, depth 0
(_kside; README).  Every family sum reads one cached cone per (small algebra,
M, sigma).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, lcm
from operator import add, mul
from typing import NamedTuple

from .liealg import algebra
from .mnsys import _rules, mod3_filter, parity_filter, solve_mn
from .qcomb import _euler_pairs, _parts, _poly, _side_factors, positive_sum
from .qpoly import QPoly, QSeries


class _Family(NamedTuple):
    P: int          # theta period: the bosonic rows step b by P
    small: str      # algebra of every fermionic side: the paper's E-type
                    # algebra with its marked source vertex removed
    name: str       # k-series family name, as the CLI and the registry give it
    char: str       # fermionic character family (CHAR_FAMILIES): the series side at k = 0


# The three identity families E8 -> E7, E7 -> D6, E6 -> A5; the polynomial
# conjectures conj1..conj3 are their depth k = 0 case.
_FAMILIES = {
    1: _Family(5, "E7", "flower", "E7"),
    2: _Family(6, "D6", "flower2", "D6-B46"),
    3: _Family(8, "A5", "monster", "A5-B68"),
}

# Fermionic character families: each algebra's cone, the D6 and A5 ones
# named after the branching functions they equal.
CHAR_FAMILIES = ("E8", "E7", "E6", "D6-B46", "A5-B68")


def _filters(name: str, sigma: int = 0) -> tuple:
    """Cone filters on n for the sums over an algebra's (m,n)-systems;
    sigma is the constant of the sigma-dependent parity, if any."""
    if name == "E8":
        return ()
    if name == "E7":
        return (parity_filter((1, 3, 7), sigma),)
    if name == "E6":
        return (mod3_filter(),)
    if name == "D6":
        return (parity_filter((1, 3, 6)), parity_filter((1, 3, 5), sigma))
    if name == "A5":
        return (mod3_filter(), parity_filter((1, 3, 5), sigma))
    raise ValueError(f"no cone filters for {name}")


def _pairs(m: tuple[int, ...], n: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """[m+n choose n] = prod_j [m_j + n_j, n_j] as kernel pairs."""
    return tuple(zip(map(add, m, n), n))


@lru_cache(maxsize=None)
def _cone(name: str, M: int, sigma: int) -> tuple[tuple[int, tuple, int], ...]:
    """The solutions of the algebra's (m,n)-system with N = 2M at its marked
    vertex p whose n passes the cone filters, each as the kernel term of
    q^{n.C^{-1}.n} [m+n choose n] over the denominator den = invcartan_den,
    (den * n.C^{-1}.n, pairs, m_p).  The filters depend on sigma only mod 2,
    so callers pass sigma mod 2.

    The exponent needs no matrix product: C^{-1} n = (N C^{-1} e_p - m)/2 by
    the system's definition, so den * n.C^{-1}.n = (N^2 num_pp - den (N m_p
    + 2 n.m)) / 4, here M^2 num_pp - den (M m_p + n.m) / 2."""
    g = algebra(name)
    p = g.p - 1
    c = M * M * g.invcartan_num[p][p]
    den = g.invcartan_den
    return tuple(
        (c - den * (M * m[p] + sum(map(mul, n, m))) // 2, _pairs(m, n), m[p])
        for m, n in solve_mn(g, 2 * M, p + 1, *_filters(name, sigma)))


def f_poly(name: str, M: int, sigma: int) -> QPoly:
    """F polynomial of A5, D6 or E7: sum over the (m,n)-system with N = 2M at
    the marked vertex p, of q^{n.C^{-1}.n} [m+n choose n]; one kernel call."""
    if M < 0:
        raise ValueError("M must be nonnegative")
    if sigma not in (0, 1):
        raise ValueError("sigma must be 0 or 1")
    g = algebra(name)
    if g.p is None:
        raise ValueError(f"F-polynomial not defined for {name}")
    return positive_sum(((e, pairs) for e, pairs, _ in _cone(g.name, M, sigma)),
                        g.invcartan_den)


@lru_cache(maxsize=None)
def _kside(family: int, k: int, L: int, M: int) -> tuple:
    """K_k(L, M), the family's fermionic side at depth k, as kernel parts
    over the denominator 2 (qtrin.qcomb._parts), by the recursion
        K_k(L, M) = sum over i <= min(L, M) of q^{i^2/2} [L+M-i, L] K_{k-1}(L-i, i)
    from K_0(L, M), the right side of conjecture ``family``: the small
    algebra's cone at M and sigma = L mod 2, each term with the prefactor
    [(L+M+m_p)/2, 2M].  Its exponent e/den is n.C^{-1}.n = 3M^2/2 - (M m_p
    + n.m)/2, as (C^{-1})_pp = 3/2, so 2e/den is an integer.  Lower sides are read as factors, and _fill caches
    them first, so a call never recurses (README)."""
    if k == 0:
        g = algebra(_FAMILIES[family].small)
        # the parity filter makes L+M+m_p even (checked in the tests); the
        # prefactor vanishes unless (L+M+m_p)/2 >= 2M
        terms = [(2 * e // g.invcartan_den, (((L + M + mp) // 2, 2 * M),) + pairs, None)
                 for e, pairs, mp in _cone(g.name, M, L % 2) if L + M + mp >= 4 * M]
    else:
        terms = [(i * i + e, ((L + M - i, L), f), None)
                 for i in range(min(L, M) + 1)
                 for e, f in _side_factors(_kside, (family, k - 1, L - i, i))]
    return _parts(terms, 2)


def _fill(family: int, k: int, cells: list[tuple[int, int]]) -> None:
    """Cache K_d (_kside), d = 0..k, at every cell K_k at ``cells`` reads,
    lowest depth first: K_d at (L, M) reads K_{d-1} at (L-i, i), i <= min(L, M)."""
    levels = [set(cells)]
    for _ in range(k):
        levels.append({(L - i, i) for L, M in levels[-1] for i in range(min(L, M) + 1)})
    for d, level in enumerate(reversed(levels)):
        for L, M in level:
            _kside(family, d, L, M)


def kseries_rhs(family: int, k: int, L: int, M: int) -> QPoly:
    """Fermionic side of family 1, 2 or 3 at depth k >= 0, the chain sum
    K_k(L, M) (_kside).  Depth 0 is the right side of conjecture ``family``,
    the F-type sum with the extra Gaussian prefactor [(L+M+m_p)/2 choose 2M];
    at every depth k >= 1 it is T-invariance's sum over the side of depth
    k-1, by construction."""
    if family not in _FAMILIES:
        raise ValueError("family must be 1, 2 or 3")
    if k < 0:
        raise ValueError("k must be >= 0")
    if L < 0 or M < 0:
        raise ValueError("L and M must be nonnegative")
    k = min(k, L + 1)  # K_k(L, M) is the same at every k >= L + 1 (README)
    _fill(family, k, [(L, M)])
    return _poly(_kside(family, k, L, M), 2)


def _walk(num, den: int, order: Fraction, filters: tuple = ()):
    """Yield (n, Q) for every n in Z_+^r with Q = n.num.n < den * order that
    passes the filters, lexicographically in n.  Every entry of num is
    positive, so Q rises in every coordinate and each coordinate stops at its
    first value past the order; with the later coordinates 0, n_k = v adds
    v (2 (num.n)_k + v num_kk).  Each filter steps its last nonzero coordinate
    through the residue class it leaves (mnsys._rules): every point is kept."""
    rules = _rules(len(num), filters)
    if rules is None:
        return
    last = len(num) - 1
    limit = ceil(order * den)  # Q < den * order, Q an integer
    n = [0] * len(num)

    def rec(k: int, q: int):
        row, rule = num[k], rules[k]
        lin = 2 * sum(map(mul, row, n))
        hit = rule.residues(rule.key(n[:k])) if rule else (0, 1)
        if not hit:
            return
        v, d = hit
        while (e := q + v * (lin + v * row[k])) < limit:
            n[k] = v
            if k < last:
                yield from rec(k + 1, e)
            else:
                yield tuple(n), e
            v += d
        n[k] = 0

    yield from rec(0, 0)


def fermionic_char_sum(family: str, order: Fraction | int, sigma: int = 0) -> QSeries:
    """Truncated sum of q^{n.C^{-1}.n}/(q)_n over the family's filtered cone,
    (q)_n = prod_j (q)_{n_j}; one kernel call."""
    if family not in CHAR_FAMILIES:
        raise ValueError(f"unknown fermionic family {family!r}")
    if sigma not in (0, 1):
        raise ValueError("sigma must be 0 or 1")
    order = Fraction(order)
    name = family.split("-")[0]
    g = algebra(name)
    return positive_sum(
        ((e, _euler_pairs(n, order))
         for n, e in _walk(g.invcartan_num, g.invcartan_den, order, _filters(name, sigma))),
        g.invcartan_den, order)


def fsum_family_lhs(family: int, k: int, sigma: int, order: Fraction | int) -> QSeries:
    """The iterated fermionic sum over n_1..n_k >= 0 of
    q^{(N_1^2+...+N_k^2)/2} F_{n_k; m_sigma} / ((q)_{n_1}...(q)_{n_{k-1}} (q)_{2 n_k})
    with N_a = n_a + ... + n_k and m_sigma = sigma + sum of odd-indexed n_a mod 2.
    One kernel call, each F expanded into its terms over its cone.  At k = 0
    it is the family's character sum, fermionic_char_sum of _Family.char.

    Family 3 uses the A5 F-polynomial (the source's F^{D5} is taken to mean
    the algebra paired with E6, i.e. A5).
    """
    if family not in _FAMILIES:
        raise ValueError("family must be 1, 2 or 3")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return fermionic_char_sum(_FAMILIES[family].char, order, sigma)
    if sigma not in (0, 1):
        raise ValueError("sigma must be 0 or 1")
    order = Fraction(order)
    g = algebra(_FAMILIES[family].small)
    den = lcm(2, g.invcartan_den)
    # sum of N_a^2 = sum over a, b of min(a, b) n_a n_b (1-based a, b), over 2
    squares = [[min(a, b) + 1 for b in range(k)] for a in range(k)]

    def terms():
        for nvec, e2 in _walk(squares, 2, order):
            inv = _euler_pairs(nvec[:-1] + (2 * nvec[-1],), order)
            for e, pairs, _ in _cone(g.name, nvec[-1], (sigma + sum(nvec[::2])) % 2):
                yield e2 * (den // 2) + e * (den // g.invcartan_den), pairs + inv

    return positive_sum(terms(), den, order)


def x_series_lhs(family: int, k: int, order: Fraction | int) -> QSeries:
    """The dual-limit series X_k: the sum over L >= 0 of q^{L^2/2}/(q)_L
    S_k(L), S_k(L) = sum over i <= L of q^{i^2/2} K_{k-2}(L-i, i), one cut
    kernel call that reads the sides as factors: S_k(L)/(q)_L is
    K_{k-1}(L, M) as M -> oo, where [L+M-i, L] tends to 1/(q)_L (README).
    K_0 is the conjecture's right side, whose cone filters are the X-series'
    primed parity on the large algebra's m at every N, which the tests check
    residue by residue."""
    if family not in _FAMILIES:
        raise ValueError("family must be 1, 2 or 3")
    if k < 2:
        raise ValueError("k must be >= 2")
    order = Fraction(order)
    # the cells (L, i) = (u + i, i) below the order: L^2 + i^2 = u^2 + 2ui + 2i^2
    cells = list(_walk(((1, 1), (1, 2)), 2, order))
    # K_{k-2}(u, i) is the same at every depth >= u + 1 (README)
    d = min(k - 2, max((u + 1 for (u, _), _ in cells), default=0))
    _fill(family, d, [ui for ui, _ in cells])
    return positive_sum(((e + f_e, _euler_pairs((u + i,), order) + (f,))
                         for (u, i), e in cells
                         for f_e, f in _side_factors(_kside, (family, d, u, i))),
                        2, order)
