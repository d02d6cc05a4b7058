"""Fermionic sides: F-polynomials, conjecture right-hand sides, the iterated
k-series sums, and the fermionic character series.

Every sum here is manifestly positive: q-powers times products of Gaussian
polynomials, indexed by (m,n)-system solutions or by free nonnegative vectors
cut off at the truncation order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import NamedTuple, Sequence

from .liealg import LieAlgebra, algebra
from .mnsys import mod3_filter, parity_filter, solve_mn, solve_mn_filtered
from .qcomb import qbinomial, qbinomial_vector
from .qpoly import QPoly, QSeries, pochhammer


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


@lru_cache(maxsize=None)
def f_poly(name: str, M: int, sigma: int) -> QPoly:
    """F polynomial of A5, D6 or E7: sum over the (m,n)-system with N = 2M at
    the marked vertex p, of q^{n.C^{-1}.n} [m+n choose n]."""
    if sigma not in (0, 1):
        raise ValueError("sigma must be 0 or 1")
    g = algebra(name)
    if g.p is None:
        raise ValueError(f"F-polynomial not defined for {name}")
    out = QPoly.zero()
    for sol in solve_mn_filtered(g, 2 * M, g.p, *_filters(g.name, sigma)):
        term = qbinomial_vector(sol.m, sol.n)
        if term:
            out = out + term.shift(g.quad_form_invcartan(sol.n))
    return out


def conj_rhs(which: int, L: int, M: int) -> QPoly:
    """Right-hand side of conjecture 1, 2 or 3: the F-type sum with the extra
    Gaussian prefactor [(L+M+m_p)/2 choose 2M]."""
    if which not in _FAMILIES:
        raise ValueError("conjecture index must be 1, 2 or 3")
    if L < 0 or M < 0:
        raise ValueError("L and M must be nonnegative")
    g = algebra(_FAMILIES[which].small)
    out = QPoly.zero()
    for sol in solve_mn_filtered(g, 2 * M, g.p, *_filters(g.name, L)):
        mp = sol.m[g.p - 1]
        # the parity restriction forces L+M+m_p even
        assert (L + M + mp) % 2 == 0
        pre = qbinomial((L + M + mp) // 2, 2 * M)
        if not pre:
            continue
        term = pre * qbinomial_vector(sol.m, sol.n)
        if term:
            out = out + term.shift(g.quad_form_invcartan(sol.n))
    return out


@lru_cache(maxsize=None)
def _inner_algebra_sum(family: int, top: int, bound: int) -> QPoly:
    """Sum over the large algebra's (m,n)-system at N=bound of
    q^{m.C.m/4} [top - m_v/2 choose bound] [m+n choose n], v the source vertex."""
    f = _FAMILIES[family]
    g = algebra(f.large)
    out = QPoly.zero()
    for sol in solve_mn_filtered(g, bound, f.vertex, *_filters(f.large)):
        md = sol.m[f.vertex - 1]
        if md % 2:
            continue  # half-integer top index: no such term contributes
        pre = qbinomial(top - md // 2, bound)
        if not pre:
            continue
        term = pre * qbinomial_vector(sol.m, sol.n)
        if term:
            out = out + term.shift(Fraction(g.quad_form_cartan(sol.m), 4))
    return out


def kseries_rhs(family: str, k: int, L: int, M: int) -> QPoly:
    """Right-hand side of the iterated identity at depth k.

    Nested sum over r in Z_+^{k-1} with r_0 = L, r_{-1} = L+M, of the chain of
    q^{(r_a - r_{a+1})^2/2} [r_{a-1}-r_a+r_{a+1} choose r_a] factors times the
    inner algebra sum bounded by r_{k-1}.
    """
    w = _kfamily(family)
    if k < 1:
        raise ValueError("k must be >= 1")
    if L < 0 or M < 0:
        raise ValueError("L and M must be nonnegative")
    out = QPoly.zero()

    # r[-1] = L+M, r[0] = L, then r[1..k-1]; the chain binomials force
    # r monotonically nonincreasing, so each r_a ranges over 0..r_{a-1}.
    def rec(r: list[int], prefix: QPoly) -> None:
        nonlocal out
        a = len(r) - 2  # index of the last fixed r entry
        if a == k - 1:
            inner = _inner_algebra_sum(w, top=r[-2], bound=r[-1])
            if inner:
                out = out + prefix * inner
            return
        for nxt in range(0, r[-1] + 1):
            fac = qbinomial(r[-2] - r[-1] + nxt, r[-1])
            if not fac:
                continue
            step = (fac * prefix).shift(Fraction((r[-1] - nxt) ** 2, 2))
            rec(r + [nxt], step)

    rec([L + M, L], QPoly.one())
    return out


@lru_cache(maxsize=None)
def _inv_qfact(t: int, order: Fraction) -> QSeries:
    """1/(q;q)_t truncated."""
    return pochhammer(1, 1, 1, t, order).inverse()


def _enumerate_small_qform(g: LieAlgebra, order: Fraction):
    """Yield all n in Z_+^rank with quad_form_invcartan(n) < order.  The form
    is strictly increasing in every coordinate on the nonnegative orthant
    (positive inverse Cartan), so a depth-first scan with early cutoff is
    complete."""
    r = g.rank
    n = [0] * r

    def rec(k: int):
        if g.quad_form_invcartan(n) >= order:
            return
        if k == r:
            yield tuple(n)
            return
        v = 0
        while True:
            n[k] = v
            if g.quad_form_invcartan(n) >= order:
                n[k] = 0
                return
            yield from rec(k + 1)
            v += 1

    # note: rec checks the prefix (suffix zeros) only; monotonicity makes
    # the cutoff sound.
    yield from rec(0)


def fermionic_char_sum(
    family: str, order: Fraction | int, sigma: int = 0
) -> QSeries:
    """Truncated sum of q^{n.C^{-1}.n}/(q)_n over the family's filtered cone."""
    if family not in CHAR_FAMILIES:
        raise ValueError(f"unknown fermionic family {family!r}")
    order = Fraction(order)
    name = family.split("-")[0]
    g = algebra(name)
    preds = _filters(name, sigma)
    out = QSeries.zero(order)
    for n in _enumerate_small_qform(g, order):
        if not all(p(n) for p in preds):
            continue
        e = g.quad_form_invcartan(n)
        if e >= order:
            continue
        term = QSeries({e: 1}, order)
        for nj in n:
            if nj:
                term = term * _inv_qfact(nj, order)
        out = out + term
    return out


def fsum_family_lhs(
    family: int, k: int, sigma: int, order: Fraction | int
) -> QSeries:
    """The iterated fermionic sum over n_1..n_k >= 0 of
    q^{(N_1^2+...+N_k^2)/2} F_{n_k; m_sigma} / ((q)_{n_1}...(q)_{n_{k-1}} (q)_{2 n_k})
    with N_a = n_a + ... + n_k and m_sigma = sigma + sum of odd-indexed n_a mod 2.

    Family 3 uses the A5 F-polynomial (the source's F^{D5} is taken to mean
    the algebra paired with E6, i.e. A5).
    """
    if family not in _FAMILIES:
        raise ValueError("family must be 1, 2 or 3")
    if k < 1:
        raise ValueError("k must be >= 1")
    order = Fraction(order)
    name = _FAMILIES[family].small
    out = QSeries.zero(order)
    cap = isqrt(int(2 * order)) + 1

    def rec(tup: list[int]):
        if len(tup) == k:
            nvec = tup
            nsum = list(nvec)
            for a in range(k - 2, -1, -1):
                nsum[a] += nsum[a + 1]  # N_a
            e = Fraction(sum(x * x for x in nsum), 2)
            if e >= order:
                return
            msig = (sigma + sum(nvec[a] for a in range(0, k, 2))) % 2
            term = f_poly(name, nvec[-1], msig).to_series(order - e)
            if not term:
                return
            term = QSeries(term.terms, order - e)
            for na in nvec[:-1]:
                if na:
                    term = term * _inv_qfact(na, order - e)
            term = term * _inv_qfact(2 * nvec[-1], order - e)
            out_terms = term.shift(e)
            nonlocal out
            out = out + QSeries(out_terms.terms, order)
            return
        for v in range(cap + 1):
            rec(tup + [v])

    rec([])
    return out


def x_series_lhs(family: int, k: int, order: Fraction | int) -> QSeries:
    """The dual-limit series: sum over r in Z_+^{k-1} and (m,n)-system
    solutions at N = r_{k-1}, with the primed parity restriction on m
    (listed coordinates congruent to r_{k-1} mod 2, all others even)."""
    if family not in _FAMILIES:
        raise ValueError("family must be 1, 2 or 3")
    if k < 2:
        raise ValueError("k must be >= 2")
    order = Fraction(order)
    f = _FAMILIES[family]
    g = algebra(f.large)
    out = QSeries.zero(order)

    def m_ok(m: Sequence[int], rk1: int) -> bool:
        for j in range(1, g.rank + 1):
            want = rk1 % 2 if j in f.x_odd else 0
            if m[j - 1] % 2 != want:
                return False
        return True

    def emit(r: list[int]) -> None:
        # r = [r_0=0, r_1, ..., r_{k-1}]
        nonlocal out
        base = Fraction(sum((r[a] - r[a - 1]) ** 2 for a in range(1, k)), 2)
        if base >= order:
            return
        rk1 = r[k - 1]
        for sol in solve_mn(g, rk1, f.vertex):
            if not m_ok(sol.m, rk1):
                continue
            md = sol.m[f.vertex - 1]
            assert md % 2 == 0  # parity restriction forces this
            rk = rk1 - md // 2
            e = base + Fraction(g.quad_form_cartan(sol.m), 4)
            if e >= order:
                continue
            chain = QPoly.one()
            rfull = r + [rk]
            for a in range(2, k):
                chain = chain * qbinomial(rfull[a - 1] - rfull[a] + rfull[a + 1],
                                          rfull[a])
                if not chain:
                    break
            if not chain:
                continue
            term = chain * qbinomial_vector(sol.m, sol.n)
            ser = term.to_series(order - e)
            ser = QSeries(ser.terms, order - e) * _inv_qfact(r[1], order - e)
            out = out + QSeries(ser.shift(e).terms, order)

    def rec(r: list[int]) -> None:
        if len(r) == k:
            emit(r)
            return
        base = Fraction(sum((r[a] - r[a - 1]) ** 2 for a in range(1, len(r))), 2)
        v = 0
        while True:
            if base + Fraction((v - r[-1]) ** 2, 2) >= order and v > r[-1]:
                return
            rec(r + [v])
            v += 1

    rec([0])
    return out
