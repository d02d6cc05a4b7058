from collections import Counter
from fractions import Fraction
from itertools import product
from math import isqrt, lcm
from operator import mul

import pytest

from mn_reference import CONE_PREDICATES, cartan_adjugate, filter_holds, invcartan_form
from qcomb_reference import (LARGE, X_ODD, conj_rhs_reference, f_poly_reference,
                             fermionic_char_sum_reference, fsum_family_lhs_reference,
                             kseries_rhs_reference, small_qform_reference,
                             x_series_lhs_reference)
from qpoly_reference import parse
from qtrin.liealg import algebra
from qtrin.mnsys import solve_mn
from qtrin.qpoly import QPoly
from qtrin.qcomb import qbinomial
from qtrin import bosonic, clear_caches, fermionic


def _q(e, c=1):
    return QPoly([(Fraction(e), c)])


def test_E7_F3_reference_expansions():
    expect0 = (_q(6) + _q(6) * qbinomial(5, 2) + _q(4) * qbinomial(5, 1)
               + _q(2) * qbinomial(3, 1) + QPoly.one())
    assert fermionic.f_poly("E7", 3, 0) == expect0
    expect1 = (_q(Fraction(27, 2)) + _q(Fraction(19, 2)) * qbinomial(3, 1)
               + _q(Fraction(15, 2)) + _q(Fraction(11, 2)) * qbinomial(5, 1)
               + _q(Fraction(7, 2)) * qbinomial(3, 1)
               + _q(Fraction(3, 2)) * qbinomial(7, 1))
    assert fermionic.f_poly("E7", 3, 1) == expect1


def test_f_poly_base_cases():
    for name in ("A5", "D6", "E7"):
        assert fermionic.f_poly(name, 0, 0) == QPoly.one()
        assert fermionic.f_poly(name, 0, 1) == QPoly.zero()


def test_f_poly_nonnegative_coefficients():
    for name in ("A5", "D6", "E7"):
        for M in range(5):
            for sigma in (0, 1):
                p = fermionic.f_poly(name, M, sigma)
                assert all(c > 0 for c in parse(str(p)).values())


def test_f_poly_sigma_parity_of_exponents():
    # sigma=1 contributions sit on half-odd-integer powers for E7
    p = fermionic.f_poly("E7", 3, 1)
    assert all(e.denominator == 2 for e in parse(str(p)))


def test_conj_rhs_degenerate_cases():
    # depth 0, the conjecture's right side
    assert fermionic.kseries_rhs(1, 0, 0, 0) == QPoly.one()
    assert fermionic.kseries_rhs(2, 0, 0, 0) == QPoly.one()
    assert fermionic.kseries_rhs(3, 0, 0, 0) == QPoly.one()


def test_kseries_rhs_k1_reduces_to_plain_sum():
    # at k=1 there is no r-chain; the two routes must agree at the
    # shared point of the parameter space
    for fam in (1, 2, 3):
        p = fermionic.kseries_rhs(fam, 1, 0, 0)
        assert p.coeff(Fraction(0)) == 1


def test_fermionic_char_sum_positive_and_unit_start():
    for fam in ("E8", "E7", "E6"):
        s = fermionic.fermionic_char_sum(fam, Fraction(10))
        assert s.coeff(Fraction(0)) == 1
        assert all(c > 0 for c in parse(str(s)).values())


def test_fermionic_char_sum_sigma_one_shifted():
    s = fermionic.fermionic_char_sum("E7", Fraction(10), sigma=1)
    m = s.min_exponent()
    assert m is not None and m > 0


def test_fsum_family_lhs_positive():
    for fam in (1, 2, 3):
        for k in (1, 2):
            for sigma in (0, 1):
                s = fermionic.fsum_family_lhs(fam, k, sigma, Fraction(6))
                assert all(c > 0 for c in parse(str(s)).values())


def test_x_series_lhs_unit_start():
    for fam in (1, 2, 3):
        s = fermionic.x_series_lhs(fam, 2, Fraction(6))
        assert s.coeff(Fraction(0)) == 1


def test_bad_family_names():
    with pytest.raises(ValueError):
        fermionic.kseries_rhs("nope", 1, 1, 1)
    with pytest.raises(ValueError):  # a family is its index, not its name
        fermionic.kseries_rhs(fermionic._FAMILIES[1].name, 1, 1, 1)
    with pytest.raises((KeyError, ValueError)):
        fermionic.fermionic_char_sum("nope", Fraction(5))


def test_kseries_sides_refuse_a_family_or_depth_out_of_range():
    for side in (fermionic.kseries_rhs, bosonic.kseries_lhs):
        for family in (0, 4):
            with pytest.raises(ValueError, match="^family must be 1, 2 or 3$"):
                side(family, 1, 1, 1)
        with pytest.raises(ValueError, match="^k must be >= 0$"):
            side(1, -1, 1, 1)
    with pytest.raises(ValueError, match="^k must be >= 0$"):
        fermionic.fsum_family_lhs(1, -1, 0, 5)


def test_x_series_lhs_caps_the_depth_of_its_cells():
    # every cell (u, i) below order 30 has u <= 7, and K_d(u, i) is the same
    # at every d >= u + 1: depth 1000 caches what depth 20 does
    sizes = []
    for k in (20, 1000):
        clear_caches()
        fermionic.x_series_lhs(1, k, 30)
        sizes.append(fermionic._kside.cache_info().currsize)
    assert sizes[0] == sizes[1]


def test_sigma_outside_0_1_is_rejected():
    # the cone filters read sigma mod 2, so sigma = 3 would give the sigma = 1
    # sums under another name
    for sigma in (-1, 2, 3):
        for call in (lambda: fermionic.fermionic_char_sum("E7", 5, sigma=sigma),
                     lambda: fermionic.fsum_family_lhs(1, 1, sigma, 5),
                     lambda: fermionic.fsum_family_lhs(1, 0, sigma, 5),
                     lambda: fermionic.f_poly("E7", 2, sigma)):
            with pytest.raises(ValueError, match="^sigma must be 0 or 1$"):
                call()


def test_family_table_pairs_each_algebra_with_its_cut_diagram():
    # each family's small algebra is its large one with the marked source
    # vertex removed, labels kept in order
    from qtrin.liealg import algebra

    for w, f in fermionic._FAMILIES.items():
        name, v = LARGE[w]
        big, small = algebra(name), algebra(f.small)
        assert v in big.marked_vertices
        keep = [i for i in range(big.rank) if i != v - 1]
        assert ([[big.incidence[i][j] for j in keep] for i in keep]
                == [list(row) for row in small.incidence])


def test_conj_rhs_prefactor_top_is_integral():
    # the depth-0 side takes [(L+M+m_p)/2, 2M] on the premise that the parity
    # filter makes L+M+m_p even; its filters depend on L only mod 2
    for f in fermionic._FAMILIES.values():
        g = algebra(f.small)
        for L in range(9):
            cone = fermionic._filters(g.name, L)
            for M in range(9):
                for sol in solve_mn(g, 2 * M, g.p, *cone):
                    assert (L + M + sol.m[g.p - 1]) % 2 == 0, (f.small, L, M, sol.m)


def test_chain_sums_keep_the_vertex_coordinate_even():
    # the chain sums halve m_v; the X-series' primed parity makes m_v even
    # only because the source vertex is not among the primed coordinates
    for w, (_, v) in LARGE.items():
        assert v not in X_ODD[w], w


@pytest.mark.parametrize("family", [1, 2, 3])
def test_x_series_parity_is_the_inner_condition_at_every_residue(family):
    # The large system's solutions whose n passes the large cone filters
    # are the conjecture side's (the depth-0 test below), where the
    # X-series asks for the primed parity on m, and the chain sums halve
    # m_v, which the filters keep even.  With m = adj(N e_v - 2n)/det,
    # m mod 2 is fixed by N mod 2 det and n mod det, and the filters by n
    # mod their moduli: agreement at every residue where m is integral
    # proves both claims at every N
    name, vertex = LARGE[family]
    g = algebra(name)
    adj, det = cartan_adjugate(g)
    filters = fermionic._filters(name)
    v = vertex - 1
    checked = 0
    for N in range(2 * det):
        for n in product(range(lcm(det, *(p.modulus for p in filters))), repeat=g.rank):
            slack = [N * row[v] - 2 * sum(map(mul, row, n)) for row in adj]
            if any(x % det for x in slack):
                continue
            m = [x // det for x in slack]
            primed = all(mj % 2 == (N % 2 if j in X_ODD[family] else 0)
                         for j, mj in enumerate(m, 1))
            inner = all(filter_holds(p, n) for p in filters)
            assert primed == inner and (m[v] % 2 == 0 or not inner), (N, n)
            checked += 1
    assert checked >= 2
    # and the solution sets themselves agree at small N
    for N in range(13):
        primed = [s for s in solve_mn(g, N, vertex)
                  if all(mj % 2 == (N % 2 if j in X_ODD[family] else 0)
                         for j, mj in enumerate(s.m, 1))]
        assert primed == solve_mn(g, N, vertex, *filters), N
        assert all(s.m[v] % 2 == 0 for s in primed), N


# -- the kernel sums against term-by-term QPoly references ---------------


@pytest.mark.parametrize("name", ["A5", "D6", "E7"])
def test_f_poly_against_reference(name):
    for M in range(7):
        for sigma in (0, 1):
            assert fermionic.f_poly(name, M, sigma) == f_poly_reference(name, M, sigma)


@pytest.mark.parametrize("which", [1, 2, 3])
def test_conj_rhs_against_reference(which, monkeypatch):
    # the cone filters run once per (M, L mod 2), not once per point, and
    # the k-series and X-series solve no other system: every side starts
    # from the small algebra's cones at N = 2M
    filtered = Counter()
    solve = fermionic.solve_mn

    def counted(g, N, i, *predicates):
        filtered[g.name, N, predicates] += 1
        return solve(g, N, i, *predicates)
    monkeypatch.setattr(fermionic, "solve_mn", counted)
    fermionic._cone.cache_clear()
    fermionic._kside.cache_clear()
    for L in range(9):
        for M in range(9):
            assert fermionic.kseries_rhs(which, 0, L, M) == conj_rhs_reference(which, L, M)
    small = fermionic._FAMILIES[which].small
    assert set(filtered.values()) == {1}
    assert Counter(key[:2] for key in filtered) == {(small, 2 * M): 2 for M in range(9)}
    for read in (lambda: [fermionic.kseries_rhs(which, 2, L, M)
                          for L in range(9) for M in range(9)],
                 lambda: fermionic.x_series_lhs(which, 2, 20)):
        filtered.clear()
        fermionic._cone.cache_clear()
        fermionic._kside.cache_clear()
        read()
        assert set(filtered.values()) == {1}, filtered
        assert all(name == small and N % 2 == 0 for name, N, _ in filtered), filtered


@pytest.mark.parametrize("name", ["A5", "D6", "E7"])
def test_cone_terms(name):
    # each cached term is the solution's exponent den * n.C^{-1}.n, its
    # [m+n, n] pairs and m_p, for exactly the filtered solutions; and the
    # k-series read the exponent over 2 as 2e // den, exact as (C^{-1})_pp
    # = 3/2 gives 2 n.C^{-1}.n = 3M^2 - M m_p - n.m
    g = algebra(name)
    den, p = g.invcartan_den, g.p - 1
    for M in range(11):
        for sigma in (0, 1):
            sols = fermionic.solve_mn(g, 2 * M, g.p, *fermionic._filters(name, sigma))
            terms = fermionic._cone(name, M, sigma)
            assert len(terms) == len(sols)
            for (e, pairs, mp), sol in zip(terms, sols):
                assert e == invcartan_form(g, sol.n) * den
                assert pairs == tuple((mj + nj, nj) for mj, nj in zip(sol.m, sol.n))
                assert mp == sol.m[p]
                assert 2 * e % den == 0, (M, sigma, sol)
                assert 2 * e // den == 3 * M * M - M * mp - sum(map(mul, sol.n, sol.m))


# The k-series reference grids: M <= 4 and L up to past the point where the
# families' outputs first differ, (5, 3) at k = 1, (8, 3) at k = 2 and
# (11, 3) at k = 3.
KSERIES_GRIDS = {1: 6, 2: 9, 3: 12}
KSERIES_FAMILIES = [1, 2, 3]


def _family_id(w: int) -> str:
    """A family's test id: its large algebra and its name."""
    return f"{LARGE[w][0]}-{fermionic._FAMILIES[w].name}"


@pytest.mark.parametrize("family", KSERIES_FAMILIES, ids=_family_id)
def test_kseries_rhs_against_reference(family):
    for k, top in KSERIES_GRIDS.items():
        for L in range(top + 1):
            for M in range(5):
                assert (fermionic.kseries_rhs(family, k, L, M)
                        == kseries_rhs_reference(family, k, L, M)), (k, L, M)


def test_kseries_grids_tell_the_families_apart():
    # a grid on which the three families agree everywhere would pass the
    # reference check with the wrong family's rows
    for k, top in KSERIES_GRIDS.items():
        assert any(len({str(fermionic.kseries_rhs(fam, k, L, M)) for fam in KSERIES_FAMILIES}) > 1
                   for L in range(top + 1) for M in range(5)), k


@pytest.mark.parametrize("family", [1, 2, 3])
def test_depth_one_side_is_T_of_the_conjecture_side(family):
    # The recursion starts from the conjecture side, and the depth-1 side is
    # T-invariance's sum over it.  The paper's depth-1 side is the chain
    # sum over the large algebra's system at N = L (the reference), which
    # equals it because the large system at N = L+M with m_v = 2M is the
    # small one's at N = 2M with the vertex Gaussian [(L+M+m_p)/2, 2M]
    # (each diagram is the next one down with the marked vertex removed)
    for L in range(11):
        for M in range(7):
            T = QPoly.zero()
            for i in range(min(L, M) + 1):
                T = T + (qbinomial(L + M - i, L)
                         * fermionic.kseries_rhs(family, 0, L - i, i)).shift(Fraction(i * i, 2))
            got = fermionic.kseries_rhs(family, 1, L, M)
            assert got == T, (L, M)
            assert got == kseries_rhs_reference(family, 1, L, M), (L, M)


# Large-diagram vertex -> small-diagram vertex, per family: the large
# diagram without its source vertex v is the small one, v's neighbour
# going to the small one's marked vertex p.
VERTEX_MAPS = {1: {2: 1, 3: 2, 4: 3, 5: 4, 6: 5, 7: 6, 8: 7},
               2: {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 7: 6},
               3: {1: 1, 2: 2, 3: 3, 4: 4, 5: 5}}


@pytest.mark.parametrize("family", [1, 2, 3])
def test_depth_zero_filters_are_the_conjecture_filters_at_every_residue(family):
    # K_0 at (L, M) keeps the large system's solutions at N = L+M with
    # m_v = 2M whose n passes the large cone filters.  Without v they are
    # the small system's at 2M from p, with n_v = (L+M+m_p)/2 - 2M, which
    # must be an integer; the depth-0 side keeps those passing the small filters at
    # sigma = L.  With m' = adj(2M e_p - 2n')/det both conditions are
    # congruences in L mod 2, M mod det and n' mod lcm(det, the moduli), so
    # agreement at every residue where m' is integral proves them equal at
    # every L and M; and (C^{-1})_pp = 3/2 makes the exponents equal
    f = fermionic._FAMILIES[family]
    (name, v), phi = LARGE[family], VERTEX_MAPS[family]
    big, small = algebra(name), algebra(f.small)
    for i, hi in phi.items():
        assert big.incidence[v - 1][i - 1] == (hi == small.p)
        for j, hj in phi.items():
            assert big.incidence[i - 1][j - 1] == small.incidence[hi - 1][hj - 1]
    big_filters = fermionic._filters(name)
    assert all(j != v - 1 for flt in big_filters for j, _ in flt.terms)  # n_v is free
    adj, det = cartan_adjugate(small)
    p = small.p - 1
    assert Fraction(adj[p][p], det) == Fraction(3, 2)
    moduli = [flt.modulus for flt in big_filters + fermionic._filters(f.small)]
    checked = 0
    for L in (0, 1):
        for M in range(det):
            for n in product(range(lcm(det, *moduli)), repeat=small.rank):
                slack = [2 * M * row[p] - 2 * sum(map(mul, row, n)) for row in adj]
                if any(x % det for x in slack):
                    continue
                big_n = [0] * big.rank
                for i, hi in phi.items():
                    big_n[i - 1] = n[hi - 1]
                large = ((L + M + slack[p] // det) % 2 == 0
                         and all(filter_holds(flt, big_n) for flt in big_filters))
                assert large == all(filter_holds(flt, n)
                                    for flt in fermionic._filters(f.small, L)), (L, M, n)
                checked += 1
    assert checked


def test_kseries_rhs_on_the_monster_k4_rectangle():
    # the depth-4 rectangle of the grid rule, L <= A - k + 1 = 35 and
    # M <= P = 8: the recursion over depth against the theta-sum side
    for L in range(36):
        for M in range(9):
            assert (fermionic.kseries_rhs(3, 4, L, M)
                    == bosonic.kseries_lhs(3, 4, L, M)), (L, M)


# -- the series sums against QSeries references, 1/(q)_n the inverse of
# the finite product (q)_n -------------------------------------------------

ORDERS = (0, 1, Fraction(5, 2), 12, 40)


@pytest.mark.parametrize("family", fermionic.CHAR_FAMILIES)
@pytest.mark.parametrize("sigma", [0, 1])
def test_fermionic_char_sum_against_reference(family, sigma):
    for order in ORDERS:
        got = fermionic.fermionic_char_sum(family, order, sigma)
        want = fermionic_char_sum_reference(family, order, sigma)
        assert got == want and str(got) == str(want), order


@pytest.mark.parametrize("family", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_fsum_family_lhs_against_reference(family, k):
    for sigma in (0, 1):
        for order in (0, 1, Fraction(7, 2), 8, 20):
            got = fermionic.fsum_family_lhs(family, k, sigma, order)
            want = fsum_family_lhs_reference(family, k, sigma, order)
            assert got == want and str(got) == str(want), (sigma, order)


@pytest.mark.parametrize("family", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_x_series_lhs_against_reference(family, k):
    for order in (0, 1, Fraction(7, 2), 8) + ((20,) if k < 4 else ()):
        got = fermionic.x_series_lhs(family, k, order)
        want = x_series_lhs_reference(family, k, order)
        assert got == want and str(got) == str(want), order


@pytest.mark.parametrize("family", KSERIES_FAMILIES, ids=_family_id)
def test_kseries_rhs_at_depth_1000(family):
    # K_k(2, 2) is the same at every k >= 3, so this runs at depth 3 against
    # the theta-sum side at depth 1000
    assert (fermionic.kseries_rhs(family, 1000, 2, 2)
            == bosonic.kseries_lhs(family, 1000, 2, 2)
            == _q(0) + _q(1, 2) + _q(2, 4) + _q(3, 2) + _q(4))


@pytest.mark.parametrize("family", KSERIES_FAMILIES, ids=_family_id)
def test_kseries_rhs_past_depth_L_plus_one(family):
    # kseries_rhs computes K_min(k, L+1)(L, M) (README); the theta-sum side
    # takes the depth asked
    for L in range(7):
        for M in range(7):
            for k in (L + 2, L + 5):
                assert (fermionic.kseries_rhs(family, k, L, M)
                        == bosonic.kseries_lhs(family, k, L, M)), (k, L, M)


def test_kseries_rhs_past_the_recursion_limit():
    # depth 350 at L = 350, which the cap leaves as it is: the sides are
    # filled from depth 0 up, so no call recurses past Python's limit
    assert (fermionic.kseries_rhs(1, 350, 350, 1)
            == bosonic.kseries_lhs(1, 350, 350, 1))


@pytest.mark.parametrize("name", ["A5", "D6", "E6", "E7", "E8"])
def test_cone_enumeration_against_box_filter(name):
    # the cone comes out in the reference box's lexicographic order, and the
    # integer exponent carried by partial sums is den * n.C^{-1}.n; with the
    # algebra's filters at either sigma stepped inside the walk, it is the box
    # filtered by the independent predicate
    g = algebra(name)
    for order in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 2), Fraction(9),
                  Fraction(40)):
        box = list(small_qform_reference(name, order))
        cases = [((), box)] + [
            (fermionic._filters(name, s), [(n, f) for n, f in box if CONE_PREDICATES[name](n, s)])
            for s in (0, 1)]
        for filters, expect in cases:
            got = list(fermionic._walk(g.invcartan_num, g.invcartan_den, order, filters))
            assert [(n, Fraction(e, g.invcartan_den)) for n, e in got] == expect, (order, filters)
    # fsum_family_lhs's form sum of N_a^2 = sum of min(a, b) n_a n_b over 2,
    # on 1 to 5 coordinates, against the plain box of Z_+^k, which holds the
    # cone as n_a^2 <= N_1^2 < 2 order
    for k in range(1, 6):
        squares = [[min(a, b) + 1 for b in range(k)] for a in range(k)]
        for order in (0, 1, Fraction(7, 2), 8, 20):
            expect = []
            for n in product(range(isqrt(int(2 * order)) + 1), repeat=k):
                e = sum(sum(n[a:]) ** 2 for a in range(k))
                if e < 2 * order:
                    expect.append((n, e))
            assert list(fermionic._walk(squares, 2, Fraction(order))) == expect, (k, order)
