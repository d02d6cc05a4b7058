import pytest

from mn_reference import basis_text, check_solution, solve_mn_bruteforce
from qtrin.liealg import algebra, algebra_names
from qtrin.mnsys import (
    mod3_filter,
    parity_filter,
    solve_mn,
    solve_mn_filtered,
)

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
    got = {s.basis_str() for s in sols}
    assert got == set(E7_EVEN) | set(E7_ODD)


def test_e7_parity_split():
    g = algebra("E7")
    even = solve_mn_filtered(g, 6, 1, parity_filter((1, 3, 7), 0))
    odd = solve_mn_filtered(g, 6, 1, parity_filter((1, 3, 7), 1))
    assert {s.basis_str() for s in even} == set(E7_EVEN)
    assert {s.basis_str() for s in odd} == set(E7_ODD)


@pytest.mark.parametrize("name, N, i", [
    ("A5", 8, 3), ("D6", 8, 5), ("E6", 8, 6), ("E7", 12, 1), ("E8", 14, 1),
])
def test_basis_str_against_reference(name, N, i):
    # every solution of a few systems, each rank, m and n both zero or not
    sols = solve_mn(algebra(name), N, i)
    assert len(sols) > 10
    for s in sols:
        assert s.basis_str() == basis_text(s)


def test_solutions_satisfy_system():
    for name in algebra_names():
        g = algebra(name)
        for i in range(1, g.rank + 1):
            for N in range(9):
                for s in solve_mn(g, N, i):
                    assert check_solution(s, g, N, i), (name, i, N, s)


def test_completeness_against_bruteforce():
    # the solver must find every solution of the box oracle, strictly
    # increasing in n: at every vertex for small N, and at a few deeper points
    cases = [(name, i, N) for name in algebra_names()
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
    assert pred((0, 0, 0, 0, 0))
    assert pred((1, 0, 0, 2, 0))
    assert not pred((1, 0, 0, 0, 0))
    assert not pred((0, 1, 0, 1, 1, 9))  # extra components ignored
    # at the marked vertex of A5 the constraint is automatically met,
    # so filtering must change nothing there
    for N in range(0, 8):
        assert solve_mn_filtered(g, N, 3, pred) == solve_mn(g, N, 3)


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
