"""Reference q-trinomials, refined q-trinomial, their sums and the fermionic
polynomial sides: the defining sums evaluated term by term with QPoly
products and sums, as differential oracles for ``qtrin.qcomb``'s positive-sum
kernel (``positive_sum_reference``) and its callers (``qtrinomial_T``,
``qtrinomial2``, ``refined_T``, ``invariance_sum``, ``refinement_sum``,
con10's left side, and ``qtrin.fermionic``'s ``f_poly``, ``conj_rhs`` and
``kseries_rhs``).  The
fermionic references take their (m,n)-system solutions and cone filters from
the package; only the summation is theirs."""

from fractions import Fraction

from qtrin import fermionic
from qtrin.liealg import algebra
from qtrin.mnsys import solve_mn_filtered
from qtrin.qcomb import qbinomial
from qtrin.qpoly import QPoly


def positive_sum_reference(terms, den: int) -> QPoly:
    """Sum over (e, pairs) of q^{e/den} times the product of the [n, a] of
    ``pairs``."""
    out = QPoly.zero()
    for e, pairs in terms:
        t = QPoly.one()
        for n, a in pairs:
            t = t * qbinomial(n, a)
        out = out + t.shift(Fraction(e, den))
    return out


def refined_T_reference(L: int, M: int, a: int, b: int) -> QPoly:
    """Sum over n from 0 to min(L-|a|, M) with n+a+L even of
    q^{n^2/2} [M, n] [M+b+(L-a-n)/2, M+b] [M-b+(L+a-n)/2, M-b]."""
    out = QPoly.zero()
    for n in range(0, min(L - abs(a), M) + 1):
        if (n + a + L) % 2:
            continue
        u = (L - a - n) // 2
        v = (L + a - n) // 2
        t = qbinomial(M, n) * qbinomial(M + b + u, M + b) * qbinomial(M - b + v, M - b)
        if t:
            out = out + t.shift(Fraction(n * n, 2))
    return out


def invariance_sum_reference(L: int, M: int, a: int, b: int) -> QPoly:
    """Sum over i from |b| to min(L-|a|, M) of
    q^{i^2/2} [L+M-i, L] T(L-i, i, a, b)."""
    out = QPoly.zero()
    for i in range(abs(b), min(L - abs(a), M) + 1):
        t = refined_T_reference(L - i, i, a, b)
        if t:
            out = out + (qbinomial(L + M - i, L) * t).shift(Fraction(i * i, 2))
    return out


def refinement_sum_reference(L: int, a: int, b: int, swap: bool) -> QPoly:
    """Sum over i from |b| to L-|a-b| of q^{(i^2-b^2)/2} T(L-i, i, a-b, b),
    or of q^{(i^2-b^2)/2} T(i, L-i, b, a-b) with ``swap``."""
    out = QPoly.zero()
    for i in range(abs(b), L - abs(a - b) + 1):
        args = (i, L - i, b, a - b) if swap else (L - i, i, a - b, b)
        t = refined_T_reference(*args)
        if t:
            out = out + t.shift(Fraction(i * i - b * b, 2))
    return out


def qtrinomial2_reference(L: int, a: int) -> QPoly:
    """Sum over k from 0 to L of q^{k(k+a)} [L, k] [L-k, k+a]."""
    out = QPoly.zero()
    for k in range(0, L + 1):
        t = qbinomial(L, k) * qbinomial(L - k, k + a)
        if t:
            out = out + t.shift(k * (k + a))
    return out


def qtrinomial_T_reference(L: int, a: int) -> QPoly:
    """Sum over n from 0 to L-|a| with n+a+L even of
    q^{n^2/2} [L, n] [L-n, (L-a-n)/2]."""
    out = QPoly.zero()
    for n in range(0, L - abs(a) + 1):
        if (n + a + L) % 2:
            continue
        t = qbinomial(L, n) * qbinomial(L - n, (L - a - n) // 2)
        if t:
            out = out + t.shift(Fraction(n * n, 2))
    return out


def con10_lhs_reference(L: int, b: int) -> QPoly:
    """Sum over i from 0 to L of q^{i^2/2} [L, i] T(i, b)."""
    out = QPoly.zero()
    for i in range(0, L + 1):
        t = qbinomial(L, i) * qtrinomial_T_reference(i, b)
        if t:
            out = out + t.shift(Fraction(i * i, 2))
    return out


def _qbinomial_vector(m, n) -> QPoly:
    """Product over components of [m_j + n_j, n_j]."""
    out = QPoly.one()
    for mj, nj in zip(m, n):
        out = out * qbinomial(mj + nj, nj)
    return out


def f_poly_reference(name: str, M: int, sigma: int) -> QPoly:
    """Sum over the filtered (m,n)-system with N = 2M at the marked vertex p
    of q^{n.C^{-1}.n} [m+n choose n]."""
    g = algebra(name)
    out = QPoly.zero()
    for sol in solve_mn_filtered(g, 2 * M, g.p, *fermionic._filters(g.name, sigma)):
        term = _qbinomial_vector(sol.m, sol.n)
        if term:
            out = out + term.shift(g.quad_form_invcartan(sol.n))
    return out


def conj_rhs_reference(which: int, L: int, M: int) -> QPoly:
    """The F-type sum with the prefactor [(L+M+m_p)/2 choose 2M]."""
    g = algebra(fermionic._FAMILIES[which].small)
    out = QPoly.zero()
    for sol in solve_mn_filtered(g, 2 * M, g.p, *fermionic._filters(g.name, L)):
        pre = qbinomial((L + M + sol.m[g.p - 1]) // 2, 2 * M)
        term = pre * _qbinomial_vector(sol.m, sol.n)
        if term:
            out = out + term.shift(g.quad_form_invcartan(sol.n))
    return out


def inner_algebra_sum_reference(family: int, top: int, bound: int) -> QPoly:
    """Sum over the large algebra's (m,n)-system at N = bound of
    q^{m.C.m/4} [top - m_v/2 choose bound] [m+n choose n], v the source
    vertex; a solution with m_v odd contributes nothing."""
    f = fermionic._FAMILIES[family]
    g = algebra(f.large)
    out = QPoly.zero()
    for sol in solve_mn_filtered(g, bound, f.vertex, *fermionic._filters(f.large)):
        md = sol.m[f.vertex - 1]
        if md % 2:
            continue
        term = qbinomial(top - md // 2, bound) * _qbinomial_vector(sol.m, sol.n)
        if term:
            out = out + term.shift(Fraction(g.quad_form_cartan(sol.m), 4))
    return out


def kseries_rhs_reference(family: str, k: int, L: int, M: int) -> QPoly:
    """Nested sum over r_1..r_{k-1} >= 0 with r_{-1} = L+M, r_0 = L of
    prod_a q^{(r_a - r_{a+1})^2/2} [r_{a-1}-r_a+r_{a+1} choose r_a] times the
    inner algebra sum with top r_{k-2} and bound r_{k-1}, each partial chain
    a QPoly product."""
    w = fermionic._kfamily(family)
    out = QPoly.zero()

    def rec(r: list, prefix: QPoly) -> None:
        nonlocal out
        if len(r) == k + 1:
            out = out + prefix * inner_algebra_sum_reference(w, r[-2], r[-1])
            return
        for nxt in range(0, r[-1] + 1):
            fac = qbinomial(r[-2] - r[-1] + nxt, r[-1])
            if fac:
                rec(r + [nxt], (fac * prefix).shift(Fraction((r[-1] - nxt) ** 2, 2)))

    rec([L + M, L], QPoly.one())
    return out
