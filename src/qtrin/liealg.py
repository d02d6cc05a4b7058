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
from typing import Sequence


class UnknownAlgebra(Exception):
    pass


class DimensionMismatch(Exception):
    pass


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


def _invert_exact(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact matrix inverse by Gauss-Jordan elimination over the rationals."""
    n = len(mat)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@dataclass(frozen=True)
class LieAlgebra:
    name: str
    rank: int
    incidence: tuple[tuple[int, ...], ...]
    cartan: tuple[tuple[int, ...], ...]
    inverse_cartan: tuple[tuple[Fraction, ...], ...]
    marked_vertices: frozenset[int]
    p: int | None  # distinguished marked vertex, where defined

    def quad_form_invcartan(self, n: Sequence[int]) -> Fraction:
        """n . C^{-1} . n as an exact rational."""
        if len(n) != self.rank:
            raise DimensionMismatch(f"vector length {len(n)} != rank {self.rank}")
        total = Fraction(0)
        inv = self.inverse_cartan
        for i, ni in enumerate(n):
            if ni:
                row = inv[i]
                total += ni * sum(row[j] * nj for j, nj in enumerate(n) if nj)
        return total

    def quad_form_cartan(self, m: Sequence[int]) -> int:
        """m . C . m (callers apply the quarter factor themselves)."""
        if len(m) != self.rank:
            raise DimensionMismatch(f"vector length {len(m)} != rank {self.rank}")
        total = 0
        for i, mi in enumerate(m):
            if mi:
                row = self.cartan[i]
                total += mi * sum(row[j] * mj for j, mj in enumerate(m) if mj)
        return total

    def incidence_apply(self, m: Sequence[int]) -> list[int]:
        if len(m) != self.rank:
            raise DimensionMismatch(f"vector length {len(m)} != rank {self.rank}")
        return [sum(self.incidence[i][j] * m[j] for j in range(self.rank))
                for i in range(self.rank)]


def _build(name: str) -> LieAlgebra:
    r = _RANK[name]
    inc = [[0] * r for _ in range(r)]
    for i, j in _EDGES[name]:
        inc[i - 1][j - 1] = 1
        inc[j - 1][i - 1] = 1
    cartan = [[2 * int(i == j) - inc[i][j] for j in range(r)] for i in range(r)]
    inv = _invert_exact([[Fraction(x) for x in row] for row in cartan])
    # defining property, checked once at table construction
    for i in range(r):
        for j in range(r):
            s = sum(cartan[i][k] * inv[k][j] for k in range(r))
            assert s == (1 if i == j else 0)
            assert inv[i][j] > 0  # finite-type simply-laced
    return LieAlgebra(
        name=name,
        rank=r,
        incidence=tuple(tuple(row) for row in inc),
        cartan=tuple(tuple(row) for row in cartan),
        inverse_cartan=tuple(tuple(row) for row in inv),
        marked_vertices=frozenset(_MARKED[name]),
        p=_P.get(name),
    )


_TABLES = {name: _build(name) for name in _EDGES}


def algebra(name: str) -> LieAlgebra:
    """Return the validated table for one of A5, D6, E6, E7, E8."""
    key = name.upper()
    if key not in _TABLES:
        raise UnknownAlgebra(f"unknown algebra {name!r}; supported: {sorted(_TABLES)}")
    return _TABLES[key]


def algebra_names() -> list[str]:
    return sorted(_TABLES)
