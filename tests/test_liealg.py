import re
from fractions import Fraction
from math import gcd

import pytest
from sympy import Matrix

from mn_reference import incidence_apply
from qtrin.liealg import algebra

ALGEBRAS = ("A5", "D6", "E6", "E7", "E8")


def _sympy_inverse(name):
    """C^{-1} from sympy, as Fractions (shares no code with liealg)."""
    inv = Matrix(algebra(name).cartan).inv()
    return [[Fraction(int(x.p), int(x.q)) for x in row] for row in inv.tolist()]


_SYMPY_INVERSE = {name: _sympy_inverse(name) for name in ALGEBRAS}


def test_known_names_and_ranks():
    ranks = {"A5": 5, "D6": 6, "E6": 6, "E7": 7, "E8": 8}
    assert set(ALGEBRAS) == set(ranks)
    for name, r in ranks.items():
        g = algebra(name)
        assert g.rank == r
        assert len(g.cartan) == r
    # and the error for any other name lists exactly these
    with pytest.raises(ValueError, match=re.escape(f"supported: {sorted(ranks)}")):
        algebra("E9")


def test_unknown_algebra_raises():
    with pytest.raises(ValueError, match="^unknown algebra 'B3'; supported: "):
        algebra("B3")


def test_cartan_from_incidence():
    for name in ALGEBRAS:
        g = algebra(name)
        for i in range(g.rank):
            for j in range(g.rank):
                expect = (2 if i == j else 0) - g.incidence[i][j]
                assert g.cartan[i][j] == expect
            assert g.incidence[i][i] == 0
            # undirected diagram
            assert g.incidence[i] == tuple(row[i] for row in g.incidence)


def test_inverse_cartan_is_exact_inverse():
    for name in ALGEBRAS:
        g = algebra(name)
        r = g.rank
        for i in range(r):
            for j in range(r):
                s = sum(g.cartan[i][k] * g.inverse_cartan[k][j]
                        for k in range(r))
                assert s == (1 if i == j else 0)


def test_inverse_cartan_against_sympy():
    # stored as integers over the least common denominator of the entries,
    # 6, 2, 3, 2, 1: num / den = adj(C) / det(C) in lowest terms, and the
    # Fraction view equals sympy's rational inverse
    dens = {"A5": 6, "D6": 2, "E6": 3, "E7": 2, "E8": 1}
    assert set(dens) == set(ALGEBRAS)
    for name, den in dens.items():
        g = algebra(name)
        assert g.invcartan_den == den
        assert all(type(x) is int for row in g.invcartan_num for x in row)
        cartan = Matrix(g.cartan)
        assert Matrix(g.invcartan_num) * cartan.det() == cartan.adjugate() * den
        assert gcd(den, *(x for row in g.invcartan_num for x in row)) == 1
        assert g.inverse_cartan == tuple(map(tuple, _SYMPY_INVERSE[name]))


def test_inverse_cartan_positive():
    # finite type: every entry of the inverse is strictly positive
    for name in ALGEBRAS:
        g = algebra(name)
        assert all(x > 0 for row in g.inverse_cartan for x in row)


def test_edge_counts_match_tree_shape():
    # all five diagrams are trees: rank-1 edges, and the number of
    # degree-3 vertices distinguishes the A series from the others
    for name, branches in (("A5", 0), ("D6", 1), ("E6", 1),
                           ("E7", 1), ("E8", 1)):
        g = algebra(name)
        degrees = [sum(row) for row in g.incidence]
        assert sum(degrees) == 2 * (g.rank - 1)
        assert sum(1 for d in degrees if d == 3) == branches


def test_marked_vertices():
    assert algebra("A5").marked_vertices == frozenset({3})
    assert algebra("D6").marked_vertices == frozenset({5})
    assert algebra("E7").marked_vertices == frozenset({1, 6})
    assert algebra("E8").marked_vertices == frozenset({1})
    assert algebra("E6").marked_vertices == frozenset({6})


def test_incidence_apply():
    g = algebra("D6")
    v = tuple(range(1, 7))
    # D6 is 1-2-3-4-5 with 6 on 4: (I.v)_j sums v over the neighbours of j
    assert incidence_apply(g, v) == [2, 1 + 3, 2 + 4, 3 + 5 + 6, 4, 4]
