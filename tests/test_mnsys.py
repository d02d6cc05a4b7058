from collections import Counter

import pytest

from mn_reference import (CONE_PREDICATES, basis_text, check_solution, filter_holds,
                          solve_mn_bruteforce)
from qtrin import fermionic, mnsys
from qtrin.liealg import algebra
from qtrin.mnsys import (
    LinearFilter,
    MNSolution,
    basis_lines,
    linear_filter,
    mod3_filter,
    parity_filter,
    solve_mn,
)

ALGEBRAS = ("A5", "D6", "E6", "E7", "E8")

# the eleven reference solutions for E7, N=6, source vertex 1,
# split by the parity of n1+n3+n7
E7_EVEN = [
    "m=5e1+4e2+3e3+2e4+e7 n=e5",
    "m=3e1+4e2+5e3+6e4+4e5+2e6+3e7 n=2e1",
    "m=5e1+4e2+5e3+6e4+4e5+2e6+3e7 n=e2",
    "m=7e1+8e2+9e3+10e4+6e5+2e6+5e7 n=e6",
    "m=9e1+12e2+15e3+18e4+12e5+6e6+9e7 n=0",
]
E7_ODD = [
    "m=0 n=3e1",
    "m=2e1 n=e1+e2",
    "m=4e1+2e2 n=e3",
    "m=4e1+4e2+4e3+4e4+2e5+2e7 n=e1+e6",
    "m=6e1+6e2+6e3+6e4+4e5+2e6+2e7 n=e7",
    "m=6e1+8e2+10e3+12e4+8e5+4e6+6e7 n=e1",
]


def test_e7_reference_example():
    g = algebra("E7")
    sols = solve_mn(g, 6, 1)
    assert len(sols) == 11
    got = set(basis_lines(sols))
    assert got == set(E7_EVEN) | set(E7_ODD)


def test_e7_parity_split():
    g = algebra("E7")
    even = solve_mn(g, 6, 1, parity_filter((1, 3, 7), 0))
    odd = solve_mn(g, 6, 1, parity_filter((1, 3, 7), 1))
    assert set(basis_lines(even)) == set(E7_EVEN)
    assert set(basis_lines(odd)) == set(E7_ODD)


@pytest.mark.parametrize("name, N, i", [
    ("A5", 8, 3), ("D6", 8, 5), ("E6", 8, 6), ("E7", 12, 1), ("E8", 14, 1),
])
def test_basis_lines_against_reference(name, N, i):
    # every solution of a few systems, each rank, m and n both zero or not;
    # the listing renders a column at a time, and each of its lines, alone
    # or in the whole listing, must be the reference's text of its solution
    sols = solve_mn(algebra(name), N, i)
    assert len(sols) > 10
    for s in sols:
        assert basis_lines([s]) == [basis_text(s)]
    assert basis_lines(sols) == [basis_text(s) for s in sols]


def test_column_renderer_hand_built():
    # zero, one and negative coordinates, in columns of mixed values
    sols = [MNSolution((0, 0, 0), (1, 0, 0)),
            MNSolution((-3, 0, 1), (0, 2, -1)),
            MNSolution((1, 12, 0), (0, 0, 0)),
            MNSolution((-3, 1, -1), (10, 1, 1))]
    lines = basis_lines(sols)
    assert lines == [basis_text(s) for s in sols] == [basis_lines([s])[0] for s in sols]
    assert lines[0] == "m=0 n=e1"
    assert lines[1] == "m=-3e1+e3 n=2e2+-1e3"
    assert basis_lines([]) == []


def test_solutions_satisfy_system():
    for name in ALGEBRAS:
        g = algebra(name)
        for i in range(1, g.rank + 1):
            for N in range(9):
                for s in solve_mn(g, N, i):
                    assert check_solution(s, g, N, i), (name, i, N, s)


def test_completeness_against_bruteforce():
    # the solver must find every solution of the box oracle, strictly
    # increasing in n: at every vertex for small N, and at a few deeper points
    cases = [(name, i, N) for name in ALGEBRAS
             for i in range(1, algebra(name).rank + 1)
             for N in range(5 if algebra(name).rank > 6 else 7)]
    for name, i, N in cases + [("A5", 3, 7), ("A5", 3, 8), ("E7", 1, 6)]:
        g = algebra(name)
        fast = solve_mn(g, N, i)
        slow = solve_mn_bruteforce(g, N, i)
        assert [(s.m, s.n) for s in fast] == [(s.m, s.n) for s in slow], (name, i, N)
        assert all(a.n < b.n for a, b in zip(fast, fast[1:])), (name, i, N)


def test_ordering_is_lexicographic_in_n():
    g = algebra("D6")
    sols = solve_mn(g, 6, 5)
    ns = [s.n for s in sols]
    assert ns == sorted(ns)


def test_mod3_filter():
    g = algebra("A5")
    pred = mod3_filter()
    assert filter_holds(pred, (0, 0, 0, 0, 0))
    assert filter_holds(pred, (1, 0, 0, 2, 0))
    assert not filter_holds(pred, (1, 0, 0, 0, 0))
    assert not filter_holds(pred, (0, 1, 0, 1, 1, 9))  # extra components ignored
    # at the marked vertex of A5 the constraint is automatically met,
    # so filtering must change nothing there
    for N in range(0, 8):
        assert solve_mn(g, N, 3, pred) == solve_mn(g, N, 3)


def _filter_cases(rank):
    """(filters, independent predicate on n) pairs for an algebra of this rank."""
    yield (linear_filter({1: -1, 3: 1}, 2),), lambda n: (n[2] - n[0]) % 2 == 0
    yield (linear_filter({1: -1, 3: 1}, 3),), lambda n: (n[2] - n[0]) % 3 == 0
    yield (linear_filter({1: 1, 3: -1}, 3, 2),), lambda n: (n[0] - n[2] + 2) % 3 == 0
    # coefficients that vanish mod the modulus keep all or nothing
    yield (parity_filter((1, 1)),), lambda n: True
    yield (parity_filter((1, 1), 1),), lambda n: False
    yield (linear_filter({}, 3, 6),), lambda n: True
    yield (linear_filter({}, 3, 4),), lambda n: False
    yield (linear_filter({2: 3, rank: 1}, 3),), lambda n: n[rank - 1] % 3 == 0
    # two forms ending on the last coordinate, moduli 2 and 3 and 4
    yield ((parity_filter((1, rank)), linear_filter({2: 1, rank: 2}, 3, 1)),
           lambda n: (n[0] + n[-1]) % 2 == 0 and (n[1] + 2 * n[-1] + 1) % 3 == 0)
    yield ((linear_filter({1: 1, rank: 2}, 4, 1),),
           lambda n: (n[0] + 2 * n[-1] + 1) % 4 == 0)


def test_filters_inside_the_search_against_bruteforce():
    # every vertex of every algebra, N <= 6 (N <= 4 at rank 7 and 8): each
    # cone's filters at both sigma and each form of _filter_cases, against
    # the box oracle filtered by an independent predicate
    for name in ALGEBRAS:
        g = algebra(name)
        cone = CONE_PREDICATES[name]
        for i in range(1, g.rank + 1):
            for N in range(7 if g.rank <= 6 else 5):
                box = solve_mn_bruteforce(g, N, i)
                cases = [(fermionic._filters(name, s), lambda n, s=s: cone(n, s)) for s in (0, 1)]
                for filters, pred in cases + list(_filter_cases(g.rank)):
                    want = [(s.m, s.n) for s in box if pred(s.n)]
                    got = [(s.m, s.n) for s in solve_mn(g, N, i, *filters)]
                    assert got == want, (name, i, N, filters)


def test_filter_order_and_duplicates_give_one_result():
    g = algebra("A5")
    a = solve_mn(g, 12, 2, mod3_filter(), parity_filter((1, 3, 5), 1))
    b = solve_mn(g, 12, 2, parity_filter((1, 3, 5), 3), mod3_filter(), mod3_filter())
    assert a == b and a


def test_filter_is_hashable_data():
    f = linear_filter({1: 4, 2: -1, 5: 3}, 3, 7)
    assert f == LinearFilter(((0, 1), (1, 2)), 3, 1)
    assert hash(f) == hash(LinearFilter(((0, 1), (1, 2)), 3, 1))
    assert parity_filter((1, 3, 7), 1) == parity_filter((7, 3, 1), 3)


@pytest.mark.parametrize("modulus", [0, -2])
def test_filter_modulus_must_be_positive(modulus):
    with pytest.raises(ValueError, match="modulus"):
        linear_filter({1: 1}, modulus)
    with pytest.raises(ValueError, match="modulus"):
        solve_mn(algebra("A5"), 4, 3, LinearFilter(((0, 1),), modulus))


def test_filter_outside_the_rank_is_rejected():
    with pytest.raises(ValueError, match="outside"):
        solve_mn(algebra("A5"), 4, 3, parity_filter((1, 7)))


@pytest.mark.parametrize("name, N, i, solutions", [("A5", 30, 3, 2878), ("E6", 24, 6, 1459)])
def test_every_leaf_is_a_solution(monkeypatch, name, N, i, solutions):
    # the last coordinate steps over the residues where den fails to divide
    # a slack, so the search reaches no leaf that is not a solution (a
    # divisibility test at each leaf reached 7,794 leaves on A5 and 3,843
    # on E6 for these systems)
    g = algebra(name)
    read = Counter()
    slots = mnsys._slots

    def counted(data, w):
        # a leaf is read as 2 * rank slots, den * m and den * n
        read["leaves"] += len(data) // (2 * w * g.rank)
        return slots(data, w)
    monkeypatch.setattr(mnsys, "_slots", counted)
    mnsys._solve_mn_cached.cache_clear()
    sols = solve_mn(g, N, i)
    assert len(sols) == solutions
    assert read == {"leaves": solutions}
    assert all(check_solution(s, g, N, i) for s in sols)


def test_invalid_arguments():
    g = algebra("A5")
    with pytest.raises(ValueError):
        solve_mn(g, -1, 3)
    with pytest.raises(ValueError):
        solve_mn(g, 2, 0)
    with pytest.raises(ValueError):
        solve_mn(g, 2, 6)


def test_zero_source_has_trivial_solution():
    for name in ("A5", "D6", "E6", "E7", "E8"):
        g = algebra(name)
        sols = solve_mn(g, 0, 1)
        assert len(sols) == 1
        assert sols[0].m == (0,) * g.rank
        assert sols[0].n == (0,) * g.rank
