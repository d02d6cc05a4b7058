"""Enumeration of (m,n)-systems m + n = (I.m + N e_i)/2 over a Dynkin diagram.

Strategy: depth-first search over candidate n vectors with positive-matrix
pruning, recovering m = C^{-1}(N e_i - 2n) and keeping solutions where m is a
nonnegative integer vector.  All entries of the inverse Cartan matrix are
positive, which gives exact per-coordinate bounds.  The search runs in plain
integers on the scaled matrix den * C^{-1} that ``LieAlgebra`` stores; an m_j
is kept when den divides its scaled value.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .liealg import LieAlgebra


@dataclass(frozen=True)
class MNSolution:
    m: tuple[int, ...]
    n: tuple[int, ...]

    def basis_str(self) -> str:
        """Unit-vector notation, e.g. `m=5e1+4e2+e7 n=e5`."""
        def vec(v: tuple[int, ...]) -> str:
            parts = []
            for j, c in enumerate(v, start=1):
                if c == 0:
                    continue
                parts.append(f"e{j}" if c == 1 else f"{c}e{j}")
            return "+".join(parts) if parts else "0"
        return f"m={vec(self.m)} n={vec(self.n)}"


def solve_mn(g: LieAlgebra, N: int, i: int) -> list[MNSolution]:
    """All solutions with m, n componentwise nonnegative, ordered lexicographically in n.

    ``i`` is the 1-based vertex index of the source term N e_i.
    """
    return list(_solve_mn_cached(g, N, i))


@lru_cache(maxsize=None)
def _solve_mn_cached(g: LieAlgebra, N: int, i: int) -> tuple[MNSolution, ...]:
    if N < 0:
        raise ValueError("N must be nonnegative")
    if not 1 <= i <= g.rank:
        raise ValueError(f"vertex index {i} out of range for rank {g.rank}")
    r = g.rank
    num, den = g.invcartan_num, g.invcartan_den
    # In units of 1/den: m_j = (target_j - 2*(num . n)_j) / den must be a
    # nonnegative integer.
    cols = list(zip(*num))
    target = [N * x for x in cols[i - 1]]
    solutions: list[MNSolution] = []
    n = [0] * r
    partial = [0] * r  # (num . n)_j over coordinates fixed so far

    def dfs(k: int) -> None:
        if k == r:
            m = []
            for j in range(r):
                mj, rem = divmod(target[j] - 2 * partial[j], den)
                if mj < 0 or rem:
                    return
                m.append(mj)
            solutions.append(MNSolution(tuple(m), tuple(n)))
            return
        col = cols[k]
        v = 0
        while True:
            n[k] = v
            ok = True
            if v:
                for j in range(r):
                    partial[j] += col[j]
                    if 2 * partial[j] > target[j]:
                        ok = False
            if not ok:
                # undo and stop increasing this coordinate
                n[k] = 0
                for j in range(r):
                    partial[j] -= v * col[j]
                return
            dfs(k + 1)
            v += 1

    dfs(0)
    solutions.sort(key=lambda s: s.n)
    return tuple(solutions)


Predicate = Callable[[Sequence[int]], bool]


def linear_filter(coeffs: Mapping[int, int], modulus: int, const: int = 0) -> Predicate:
    """n -> sum of coeffs[j] * n_j (1-based j) plus const is divisible by
    modulus."""
    terms = [(j - 1, c) for j, c in coeffs.items() if c]

    def pred(n: Sequence[int]) -> bool:
        return (sum(c * n[j] for j, c in terms) + const) % modulus == 0
    return pred


def parity_filter(indices: Sequence[int], sigma: int = 0) -> Predicate:
    """n -> (sum of the 1-based components) + sigma is even."""
    return linear_filter(Counter(indices), 2, sigma)


def mod3_filter() -> Predicate:
    """The A5/E6 constraint n1 + n4 == n2 + n5 (mod 3)."""
    return linear_filter({1: 1, 2: -1, 4: 1, 5: -1}, 3)


def solve_mn_filtered(
    g: LieAlgebra, N: int, i: int, *predicates: Predicate
) -> list[MNSolution]:
    """solve_mn restricted to solutions whose n satisfies every predicate."""
    return [
        s for s in solve_mn(g, N, i)
        if all(pred(s.n) for pred in predicates)
    ]
