"""Reference q-trinomials, refined q-trinomial, their sums and the fermionic
sides: the defining sums evaluated term by term with QPoly and QSeries
products and sums, as differential oracles for ``qtrin.qcomb``'s positive-sum
kernel (``positive_sum_reference``) and its callers (``qtrinomial_T``,
``qtrinomial2``, ``refined_T``, ``invariance_sum``, ``refinement_sum``,
con10's and abp's left sides, limit-mTlim's product form, the theta sums
and the sum inside ``string_function`` of ``qtrin.bosonic``, and
``qtrin.fermionic``'s ``f_poly``,
``kseries_rhs`` (at depth 0 too) and series sums).  A series reference takes
1/(q)_n as the inverse of the finite product (q)_n, and 1/(q)_inf from
``qpoly_reference.euler_inverse``.  The fermionic
references take their (m,n)-system solutions and cone filters from the
package, and n.C^{-1}.n from sympy's adjugate and determinant of the Cartan
matrix (``mn_reference.invcartan_form``); the character sums enumerate their
own cone, a box filtered by a form built from the same adjugate and by the
plain predicates ``mn_reference.CONE_PREDICATES``."""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt

from mn_reference import CONE_PREDICATES, cartan_adjugate, invcartan_form
from qpoly_reference import euler_inverse, inverse, pochhammer
from qtrin import fermionic, qcomb
from qtrin.liealg import algebra
from qtrin.mnsys import solve_mn
from qtrin.qcomb import qbinomial
from qtrin.qpoly import QPoly, QSeries


def positive_sum_reference(terms, den: int) -> QPoly:
    """Sum over (e, factors) of q^{e/den} times the product of the factors:
    [n, a] for a pair (n, a), and for a refinement (qcomb._refined, (L, M,
    a, b), 0), a nonzero side of one part, refined_T_reference(L, M, a, b)
    divided by its least power of q."""
    out = QPoly.zero()
    for e, factors in terms:
        t = QPoly.one()
        for f in factors:
            if len(f) == 2:
                t = t * qbinomial(*f)
            else:
                side, args, j = f
                assert side is qcomb._refined and j == 0, f
                r = refined_T_reference(*args)
                t = t * r.shift(-r.min_exponent())
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


# P of the three identity families: the E8, E7 and E6 (monster) ones
_THETA_P = {1: 5, 2: 6, 3: 8}


def theta_sum_reference(family: int, k: int, L: int, M: int) -> QPoly:
    """The family's alternating theta sum at depth k, term by term: for
    every |j| <= L + M + 3, each row (sign, a0, b0, c, d) adds sign *
    q^{ab/2 + cj + d} refined_T_reference(L, M, a, b), with a = A j + a0,
    b = P j + b0 and A = P(k+1) - 2.  The rows are (+, 0, 0, 1, 0) and
    (-, k+1, 1, 0, 0), and for family 3 also (+, 3k+2, 3, 0, 0) and
    (-, 4k+3, 4, 1, 1/2).  The window is wider than any support: |a| <= L
    needs |j| <= (L + |a0|)/A, and A >= 3."""
    P = _THETA_P[family]
    A = P * (k + 1) - 2
    rows = [(1, 0, 0, 1, 0), (-1, k + 1, 1, 0, 0)]
    if family == 3:
        rows += [(1, 3 * k + 2, 3, 0, 0), (-1, 4 * k + 3, 4, 1, Fraction(1, 2))]
    out = QPoly.zero()
    for j in range(-(L + M + 3), L + M + 4):
        for sign, a0, b0, c, d in rows:
            a, b = A * j + a0, P * j + b0
            t = refined_T_reference(L, M, a, b).shift(Fraction(a * b, 2) + c * j + d)
            out = out + t if sign > 0 else out - t
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
    for sol in solve_mn(g, 2 * M, g.p, *fermionic._filters(g.name, sigma)):
        term = _qbinomial_vector(sol.m, sol.n)
        if term:
            out = out + term.shift(invcartan_form(g, sol.n))
    return out


def conj_rhs_reference(which: int, L: int, M: int) -> QPoly:
    """The F-type sum with the prefactor [(L+M+m_p)/2 choose 2M]."""
    g = algebra(fermionic._FAMILIES[which].small)
    out = QPoly.zero()
    for sol in solve_mn(g, 2 * M, g.p, *fermionic._filters(g.name, L)):
        pre = qbinomial((L + M + sol.m[g.p - 1]) // 2, 2 * M)
        term = pre * _qbinomial_vector(sol.m, sol.n)
        if term:
            out = out + term.shift(invcartan_form(g, sol.n))
    return out


# The paper's chain sums, per family: the large E-type algebra and its
# marked source vertex v.  The package sums over the small algebra alone
# (the large diagram without v), so this table is the references' own.
LARGE = {1: ("E8", 1), 2: ("E7", 6), 3: ("E6", 6)}

# The primed parity of the X-series, per family: the coordinates of m
# congruent to N mod 2, every other coordinate even.
X_ODD = {1: (2, 4, 8), 2: (1, 3, 5), 3: (1, 3, 5)}


def _cartan_form(g, m) -> int:
    """m.C.m from the Cartan matrix."""
    return sum(mi * cij * mj for mi, row in zip(m, g.cartan) for cij, mj in zip(row, m))


def inner_algebra_sum_reference(family: int, top: int, bound: int) -> QPoly:
    """Sum over the large algebra's (m,n)-system at N = bound of
    q^{m.C.m/4} [top - m_v/2 choose bound] [m+n choose n], v the source
    vertex; a solution with m_v odd contributes nothing."""
    name, v = LARGE[family]
    g = algebra(name)
    out = QPoly.zero()
    for sol in solve_mn(g, bound, v, *fermionic._filters(name)):
        md = sol.m[v - 1]
        if md % 2:
            continue
        term = qbinomial(top - md // 2, bound) * _qbinomial_vector(sol.m, sol.n)
        if term:
            out = out + term.shift(Fraction(_cartan_form(g, sol.m), 4))
    return out


def kseries_rhs_reference(family: int, k: int, L: int, M: int) -> QPoly:
    """Nested sum over r_1..r_{k-1} >= 0 with r_{-1} = L+M, r_0 = L of
    prod_a q^{(r_a - r_{a+1})^2/2} [r_{a-1}-r_a+r_{a+1} choose r_a] times the
    inner algebra sum with top r_{k-2} and bound r_{k-1}, each partial chain
    a QPoly product; k >= 1."""
    out = QPoly.zero()

    def rec(r: list, prefix: QPoly) -> None:
        nonlocal out
        if len(r) == k + 1:
            out = out + prefix * inner_algebra_sum_reference(family, r[-2], r[-1])
            return
        for nxt in range(0, r[-1] + 1):
            fac = qbinomial(r[-2] - r[-1] + nxt, r[-1])
            if fac:
                rec(r + [nxt], (fac * prefix).shift(Fraction((r[-1] - nxt) ** 2, 2)))

    rec([L + M, L], QPoly.one())
    return out


# -- series sums, with 1/(q)_n the inverse of the finite product -------


@lru_cache(maxsize=None)
def euler_inverse_reference(order, n: int) -> QSeries:
    """1/(q;q)_n below q^order, cached: the series sums ask for each (order,
    n) many times."""
    order = Fraction(order)
    return QSeries(inverse(pochhammer(1, 1, 1, n, order), order), order)


@lru_cache(maxsize=None)
def small_qform_reference(name: str, order: Fraction) -> tuple:
    """(n, n.C^{-1}.n) for every n in Z_+^rank with n.C^{-1}.n < order,
    lexicographically in n, with C^{-1} = adj(C) / det(C).  Every entry of
    C^{-1} is positive, so n.C^{-1}.n >= (C^{-1})_jj n_j^2 on the nonnegative
    orthant and the box n_j <= sqrt(order / (C^{-1})_jj) holds the cone."""
    adj, det = cartan_adjugate(algebra(name))
    r = len(adj)
    box = [range(isqrt(int(order * det / adj[j][j])) + 1) for j in range(r)]
    out = []
    for n in product(*box):
        form = Fraction(sum(adj[i][j] * n[i] * n[j] for i in range(r) for j in range(r)), det)
        if form < order:
            out.append((n, form))
    return tuple(out)


def fermionic_char_sum_reference(family: str, order, sigma: int = 0) -> QSeries:
    """Sum of q^{n.C^{-1}.n}/(q)_n over the family's filtered cone."""
    order = Fraction(order)
    name = family.split("-")[0]
    out = QSeries.zero(order)
    for n, form in small_qform_reference(name, order):
        if not CONE_PREDICATES[name](n, sigma):
            continue
        term = QSeries([(form, 1)], order)
        for nj in n:
            if nj:
                term = term * euler_inverse_reference(order, nj)
        out = out + term
    return out


def fsum_family_lhs_reference(family: int, k: int, sigma: int, order) -> QSeries:
    """Sum over n_1..n_k >= 0 of q^{(N_1^2+...+N_k^2)/2} F_{n_k; m_sigma} /
    ((q)_{n_1}...(q)_{n_{k-1}} (q)_{2 n_k})."""
    order = Fraction(order)
    name = fermionic._FAMILIES[family].small
    out = QSeries.zero(order)
    cap = isqrt(int(2 * order)) + 1 if order > 0 else 0

    def rec(nvec: list) -> None:
        nonlocal out
        if len(nvec) < k:
            for v in range(cap + 1):
                rec(nvec + [v])
            return
        nsum = [sum(nvec[a:]) for a in range(k)]  # N_a
        e = Fraction(sum(x * x for x in nsum), 2)
        if e >= order:
            return
        msig = (sigma + sum(nvec[0::2])) % 2
        term = f_poly_reference(name, nvec[-1], msig).truncate(order - e)
        for na in nvec[:-1] + [2 * nvec[-1]]:
            if na:
                term = term * euler_inverse_reference(order - e, na)
        out = out + term.shift(e)

    rec([])
    return out


def x_series_lhs_reference(family: int, k: int, order) -> QSeries:
    """Sum over r_1..r_{k-1} >= 0 and the (m,n)-system at N = r_{k-1}, with
    the primed parity on m (X_ODD), of q^{sum (r_a - r_{a-1})^2/2 +
    m.C.m/4} times the chain Gaussians, [m+n choose n] and 1/(q)_{r_1}."""
    order = Fraction(order)
    name, v = LARGE[family]
    g = algebra(name)
    out = QSeries.zero(order)

    def emit(r: list) -> None:
        nonlocal out
        base = Fraction(sum((r[a] - r[a - 1]) ** 2 for a in range(1, k)), 2)
        rk1 = r[k - 1]
        for sol in solve_mn(g, rk1, v):
            if any(sol.m[j - 1] % 2 != (rk1 % 2 if j in X_ODD[family] else 0)
                   for j in range(1, g.rank + 1)):
                continue
            e = base + Fraction(_cartan_form(g, sol.m), 4)
            if e >= order:
                continue
            rfull = r + [rk1 - sol.m[v - 1] // 2]
            weight = _qbinomial_vector(sol.m, sol.n)
            for a in range(2, k):
                weight = weight * qbinomial(rfull[a - 1] - rfull[a] + rfull[a + 1], rfull[a])
            ser = weight.truncate(order - e) * euler_inverse_reference(order - e, r[1])
            out = out + ser.shift(e)

    def rec(r: list) -> None:
        if len(r) == k:
            emit(r)
            return
        base = Fraction(sum((r[a] - r[a - 1]) ** 2 for a in range(1, len(r))), 2)
        v = 0
        while base + Fraction((v - r[-1]) ** 2, 2) < order or v <= r[-1]:
            rec(r + [v])
            v += 1

    rec([0])
    return out


def string_function_reference(sigma: int, order) -> QSeries:
    """The sum over n = sigma mod 2 of q^{n^2/2}/(q)_n, divided by (q)_inf."""
    order = Fraction(order)
    out = QSeries.zero(order)
    n = sigma
    while Fraction(n * n, 2) < order:
        t = QSeries([(Fraction(n * n, 2), 1)], order)
        if n:
            t = t * euler_inverse_reference(order, n)
        out = out + t
        n += 2
    return out * QSeries(euler_inverse(order), order)


def abp_lhs_reference(b: int, order) -> QSeries:
    """Sum over i >= 0 of q^{i^2/2} T(i, |b|) / (q)_i."""
    order = Fraction(order)
    out = QSeries.zero(order)
    i = 0
    while Fraction(i * i, 2) < order:
        t = qtrinomial_T_reference(i, abs(b))
        if t:
            ser = t.truncate(order - Fraction(i * i, 2))
            ser = ser * euler_inverse_reference(ser.order, i)
            out = out + ser.shift(Fraction(i * i, 2))
        i += 1
    return out


def mtlim_product_reference(L: int, a: int, order) -> QSeries:
    """T(L, a) / (q)_L below q^order."""
    order = Fraction(order)
    return qtrinomial_T_reference(L, a).truncate(order) * euler_inverse_reference(order, L)
