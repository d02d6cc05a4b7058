"""Fermionic sides: F-polynomials, conjecture right-hand sides, the iterated
k-series sums, and the fermionic character series.

Every sum here is manifestly positive: q-powers times products of Gaussian
polynomials and of 1/(q)_n, indexed by (m,n)-system solutions or by free
nonnegative vectors cut off at the truncation order.  Each is one call to
qtrin.qcomb.positive_sum, with exponents over the inverse Cartan denominator
(n.C^{-1}.n), over 4 (m.C.m/4 and the chains' squares over 2) or over
lcm(2, that denominator).  A series sum passes its truncation order, and each
1/(q)_n as a Gaussian that equals it below the order.  No QSeries is
multiplied here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import ceil, isqrt, lcm
from operator import add, mul
from typing import NamedTuple

from .liealg import LieAlgebra, algebra
from .mnsys import mod3_filter, parity_filter, solve_mn, solve_mn_filtered
from .qcomb import _euler_pairs, positive_sum
from .qpoly import QPoly, QSeries


class _Family(NamedTuple):
    P: int          # theta period: the bosonic rows step b by P
    large: str      # E-type algebra of the k-series and chain sums
    vertex: int     # its marked vertex, the source of those systems
    small: str      # the diagram left after removing the marked vertex
    name: str       # k-series family name; the CLI uses the part after "-"
    x_odd: tuple[int, ...]  # coordinates of the primed parity in the chain sums


# The three identity families E8 -> E7, E7 -> D6, E6 -> A5; the polynomial
# conjectures conj1..conj3 are their depth k = 0 case.
_FAMILIES = {
    1: _Family(5, "E8", 1, "E7", "E8-flower", (2, 4, 8)),
    2: _Family(6, "E7", 6, "D6", "E7-flower2", (1, 3, 5)),
    3: _Family(8, "E6", 6, "A5", "E6-monster", (1, 3, 5)),
}

# Fermionic character families: each algebra's cone, the D6 and A5 ones
# named after the branching functions they equal.
CHAR_FAMILIES = ("E8", "E7", "E6", "D6-B46", "A5-B68")


def _kfamily(name: str) -> int:
    """Family index of a k-series family name such as "E8-flower"."""
    for w, f in _FAMILIES.items():
        if f.name == name:
            return w
    raise ValueError(f"unknown k-series family {name!r}")


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
        for m, n in solve_mn_filtered(g, 2 * M, p + 1, *_filters(name, sigma)))


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


def conj_rhs(which: int, L: int, M: int) -> QPoly:
    """Right-hand side of conjecture 1, 2 or 3: the F-type sum with the extra
    Gaussian prefactor [(L+M+m_p)/2 choose 2M]; one kernel call."""
    if which not in _FAMILIES:
        raise ValueError("conjecture index must be 1, 2 or 3")
    if L < 0 or M < 0:
        raise ValueError("L and M must be nonnegative")
    g = algebra(_FAMILIES[which].small)
    # the parity restriction makes L+M+m_p even (checked in the tests); the
    # prefactor vanishes unless (L+M+m_p)/2 >= 2M
    return positive_sum(
        ((e, (((L + M + mp) // 2, 2 * M),) + pairs)
         for e, pairs, mp in _cone(g.name, M, L % 2) if L + M + mp >= 4 * M),
        g.invcartan_den)


@lru_cache(maxsize=None)
def _inner_terms(family: int, top: int, bound: int) -> tuple:
    """The sum over the large algebra's (m,n)-system at N = bound of
    q^{m.C.m/4} [top - m_v/2 choose bound] [m+n choose n], v the source
    vertex, as kernel terms over the denominator 4.  A solution with m_v odd
    (a half-integer top index) or top - m_v/2 < bound contributes nothing."""
    f = _FAMILIES[family]
    g = algebra(f.large)
    out = []
    for sol in solve_mn_filtered(g, bound, f.vertex, *_filters(f.large)):
        md = sol.m[f.vertex - 1]
        if md % 2 == 0 and top - md // 2 >= bound:
            out.append((g.quad_form_cartan(sol.m), ((top - md // 2, bound),) + _pairs(*sol)))
    return tuple(out)


def kseries_rhs(family: str, k: int, L: int, M: int) -> QPoly:
    """Right-hand side of the iterated identity at depth k.

    Nested sum over r in Z_+^{k-1} with r_0 = L, r_{-1} = L+M, of the chain of
    q^{(r_a - r_{a+1})^2/2} [r_{a-1}-r_a+r_{a+1} choose r_a] factors times the
    inner algebra sum with top r_{k-2} and bound r_{k-1}: one kernel call
    over chains times inner terms, exponents over the denominator 4.
    """
    w = _kfamily(family)
    if k < 1:
        raise ValueError("k must be >= 1")
    if L < 0 or M < 0:
        raise ValueError("L and M must be nonnegative")

    # r_{-1} = L+M, r_0 = L, then r_1..r_{k-1}; the chain binomials force
    # r monotonically nonincreasing, so each r_a ranges over 0..r_{a-1}.
    # A stack entry is (a, r_{a-1}, r_a, exponent, pairs); the chains are
    # walked depth first, each r_{a+1} in increasing order, at any depth k.
    def terms():
        stack = [(0, L + M, L, 0, ())]
        while stack:
            a, prev, cur, e, pairs = stack.pop()
            if a == k - 1:
                for ei, inner in _inner_terms(w, prev, cur):
                    yield e + ei, pairs + inner
                continue
            for nxt in range(cur, -1, -1):
                top = prev - cur + nxt
                if top >= cur:
                    stack.append((a + 1, cur, nxt, e + 2 * (cur - nxt) ** 2,
                                  pairs + ((top, cur),)))

    return positive_sum(terms(), 4)


def _enumerate_small_qform(g: LieAlgebra, order: Fraction):
    """Yield (n, den * n.C^{-1}.n) for every n in Z_+^rank with n.C^{-1}.n <
    order, den = g.invcartan_den, lexicographically in n.  The form is
    strictly increasing in every coordinate on the nonnegative orthant
    (positive inverse Cartan), so a depth-first scan that stops each
    coordinate at its first value past the order is complete.  The integer
    form Q = n.num.n is carried by partial sums, Q(n + e_k) = Q(n) +
    2 (num.n)_k + num_kk; at level k the later coordinates of n are 0."""
    num = g.invcartan_num
    last = g.rank - 1
    limit = ceil(order * g.invcartan_den)  # Q < den * order, Q an integer
    n = [0] * g.rank

    def rec(k: int, q: int):
        row = num[k]
        step = 2 * sum(map(mul, row, n)) + row[k]  # Q(n + e_k) - Q(n)
        v = 0
        while q < limit:
            n[k] = v
            if k < last:
                yield from rec(k + 1, q)
            else:
                yield tuple(n), q
            q += step
            step += 2 * row[k]
            v += 1
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
    preds = _filters(name, sigma)
    return positive_sum(
        ((e, _euler_pairs(n, order))
         for n, e in _enumerate_small_qform(g, order) if all(p(n) for p in preds)),
        g.invcartan_den, order)


def fsum_family_lhs(family: int, k: int, sigma: int, order: Fraction | int) -> QSeries:
    """The iterated fermionic sum over n_1..n_k >= 0 of
    q^{(N_1^2+...+N_k^2)/2} F_{n_k; m_sigma} / ((q)_{n_1}...(q)_{n_{k-1}} (q)_{2 n_k})
    with N_a = n_a + ... + n_k and m_sigma = sigma + sum of odd-indexed n_a mod 2.
    One kernel call, each F expanded into its terms over its cone.

    Family 3 uses the A5 F-polynomial (the source's F^{D5} is taken to mean
    the algebra paired with E6, i.e. A5).
    """
    if family not in _FAMILIES:
        raise ValueError("family must be 1, 2 or 3")
    if k < 1:
        raise ValueError("k must be >= 1")
    if sigma not in (0, 1):
        raise ValueError("sigma must be 0 or 1")
    order = Fraction(order)
    g = algebra(_FAMILIES[family].small)
    den = lcm(2, g.invcartan_den)
    cap = isqrt(max(int(2 * order), 0)) + 1

    def terms():
        for nvec in product(range(cap + 1), repeat=k):
            e2 = sum(x * x for x in accumulate(reversed(nvec)))  # sum of N_a^2
            if e2 >= 2 * order:
                continue
            inv = _euler_pairs(nvec[:-1] + (2 * nvec[-1],), order)
            for e, pairs, _ in _cone(g.name, nvec[-1], (sigma + sum(nvec[::2])) % 2):
                yield e2 * (den // 2) + e * (den // g.invcartan_den), pairs + inv

    return positive_sum(terms(), den, order)


def x_series_lhs(family: int, k: int, order: Fraction | int) -> QSeries:
    """The dual-limit series: sum over r in Z_+^{k-1} and (m,n)-system
    solutions at N = r_{k-1}, with the primed parity restriction on m
    (listed coordinates congruent to r_{k-1} mod 2, all others even), of
    q^{sum_a (r_a - r_{a-1})^2/2 + m.C.m/4} times the chain Gaussians, [m+n
    choose n] and 1/(q)_{r_1}; one kernel call over the denominator 4."""
    if family not in _FAMILIES:
        raise ValueError("family must be 1, 2 or 3")
    if k < 2:
        raise ValueError("k must be >= 2")
    order = Fraction(order)
    f = _FAMILIES[family]
    g = algebra(f.large)
    cap = isqrt(max(int(2 * order), 0)) + 1  # no step r_a - r_{a-1} reaches it

    def terms(r: list[int], e4: int):
        # r = [r_0 = 0, r_1, ...] and e4 = 2 sum_a (r_a - r_{a-1})^2 < 4 order
        if len(r) < k:
            for v in range(r[-1] + cap + 1):
                if e4 + 2 * (v - r[-1]) ** 2 < 4 * order:
                    yield from terms(r + [v], e4 + 2 * (v - r[-1]) ** 2)
            return
        for sol in solve_mn(g, r[-1], f.vertex):
            if any((mj - r[-1] * (j in f.x_odd)) % 2 for j, mj in enumerate(sol.m, 1)):
                continue
            # so m_v is even: the vertex is not in x_odd (checked in the tests)
            rfull = r + [r[-1] - sol.m[f.vertex - 1] // 2]
            chain = tuple((rfull[a - 1] - rfull[a] + rfull[a + 1], rfull[a])
                          for a in range(2, k))
            if any(top < bottom for top, bottom in chain):
                continue  # a chain Gaussian vanishes
            yield (e4 + g.quad_form_cartan(sol.m),
                   chain + _pairs(*sol) + _euler_pairs((r[1],), order))

    return positive_sum(terms([0], 0), 4, order)
