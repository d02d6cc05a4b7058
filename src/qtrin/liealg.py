"""Exact data for the simply-laced algebras A5, D6, E6, E7, E8.

Vertex labellings were fixed by requiring the E7 (m,n)-system at N=6,
vertex 1 to produce its eleven reference solutions, cross-checked against
the small-parameter identity suite, then frozen here:

    A5:  1-2-3-4-5                     marked 3
    D6:  1-2-3-4-5 with 6 on 4         marked 5
    E6:  1-2-3-4-5 with 6 on 3         marked 6
    E7:  1-2-3-4-5-6 with 7 on 4       marked 1 (and 6 for the E7 systems)
    E8:  1-2-3-4-5-6-7 with 8 on 5     marked 1

Each diagram in the E-series is the next one down with the marked vertex
removed (E6 -> A5, E7 -> D6, E8 -> E7).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


# Edge lists, 1-based vertex labels.
_EDGES = {
    "A5": [(1, 2), (2, 3), (3, 4), (4, 5)],
    "D6": [(1, 2), (2, 3), (3, 4), (4, 5), (4, 6)],
    "E6": [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)],
    "E7": [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)],
    "E8": [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)],
}

_RANK = {"A5": 5, "D6": 6, "E6": 6, "E7": 7, "E8": 8}
_MARKED = {"A5": {3}, "D6": {5}, "E6": {6}, "E7": {1, 6}, "E8": {1}}
# Distinguished marked vertex p used by the F-polynomial systems.
_P = {"A5": 3, "D6": 5, "E7": 1}


def _invert_scaled(mat: list[list[int]]) -> tuple[list[list[int]], int]:
    """(num, den) with mat^{-1} = num / den and den the least such, by
    fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22 (1968)).
    Each step replaces row r by (p * row_r - f * row_col) / prev, p the
    pivot and prev the one before; by Sylvester's identity every entry stays
    a minor of [mat | I], so each division is exact.  At the end the left
    block is det * I and the right block adj(mat).  A Cartan matrix is
    positive definite, so its leading principal minors, the pivots, are
    positive and no row swap is needed."""
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    prev = 1
    for col in range(n):
        pivot_row = aug[col]
        p = pivot_row[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(aug[r], pivot_row)]
        prev = p
    adj = [row[n:] for row in aug]
    g = gcd(prev, *(x for row in adj for x in row))
    return [[x // g for x in row] for row in adj], prev // g


@dataclass(frozen=True)
class LieAlgebra:
    """Diagram data of one algebra, with its inverse Cartan matrix stored in
    integers: C^{-1} = invcartan_num / invcartan_den, where the denominator
    is the lcm of the entries' denominators (6, 2, 3, 2, 1 for A5, D6, E6,
    E7, E8)."""

    name: str
    rank: int
    incidence: tuple[tuple[int, ...], ...]
    cartan: tuple[tuple[int, ...], ...]
    invcartan_num: tuple[tuple[int, ...], ...]
    invcartan_den: int
    marked_vertices: frozenset[int]
    p: int | None  # distinguished marked vertex, where defined

    @property
    def inverse_cartan(self) -> tuple[tuple[Fraction, ...], ...]:
        """C^{-1} as exact rationals (a read-only view of the scaled matrix)."""
        d = self.invcartan_den
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.invcartan_num)


def _build(name: str) -> LieAlgebra:
    r = _RANK[name]
    inc = [[0] * r for _ in range(r)]
    for i, j in _EDGES[name]:
        inc[i - 1][j - 1] = 1
        inc[j - 1][i - 1] = 1
    cartan = [[2 * int(i == j) - inc[i][j] for j in range(r)] for i in range(r)]
    num, den = _invert_scaled(cartan)
    return LieAlgebra(
        name=name,
        rank=r,
        incidence=tuple(tuple(row) for row in inc),
        cartan=tuple(tuple(row) for row in cartan),
        invcartan_num=tuple(tuple(row) for row in num),
        invcartan_den=den,
        marked_vertices=frozenset(_MARKED[name]),
        p=_P.get(name),
    )


_TABLES = {name: _build(name) for name in _EDGES}


def algebra(name: str) -> LieAlgebra:
    """Return the validated table for one of A5, D6, E6, E7, E8."""
    key = name.upper()
    if key not in _TABLES:
        raise ValueError(f"unknown algebra {name!r}; supported: {sorted(_TABLES)}")
    return _TABLES[key]
