"""Enumeration of (m,n)-systems m + n = (I.m + N e_i)/2 over a Dynkin diagram.

Strategy: depth-first search over the n vectors in lexicographic order,
recovering m = C^{-1}(N e_i - 2n) and keeping solutions where m is a
nonnegative integer vector.  All entries of the inverse Cartan matrix are
positive, so raising any n_k lowers every m_j, and a coordinate stops rising
as soon as one m_j turns negative.  The search runs in plain integers on the
scaled matrix den * C^{-1} that ``LieAlgebra`` stores.  Its r slacks den * m_j
share one integer, a slot per coordinate with a guard bit (SWAR: Lamport,
"Multiple byte processing with full-word instructions", CACM 1975), so
raising n_k is one subtraction and the prune one AND.  At a leaf the slots
are read in one array cast (qcomb's ``_unpacked``), and m_j is kept when
den divides its slack.  Solutions come out strictly increasing in n, with
no sort.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .liealg import LieAlgebra
from .qcomb import _slot_bytes, _unpacked


# unit vector names, up to the largest rank (E8)
_UNITS = tuple(f"e{j}" for j in range(1, 9))


def _vec(v: tuple[int, ...]) -> str:
    return "+".join([u if c == 1 else f"{c}{u}" for c, u in zip(v, _UNITS) if c]) or "0"


@dataclass(frozen=True)
class MNSolution:
    m: tuple[int, ...]
    n: tuple[int, ...]

    def basis_str(self) -> str:
        """Unit-vector notation, e.g. `m=5e1+4e2+e7 n=e5`."""
        return f"m={_vec(self.m)} n={_vec(self.n)}"


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
    # nonnegative integer.  The r slacks target_j - 2*(num . n)_j live in one
    # integer, slot j holding guard + slack_j with the guard bit at the top of
    # its w bytes.  A slot's slack stays below the guard and no column entry
    # exceeds it, so subtracting a column from nonnegative slacks never
    # borrows across slots, and a slot's guard bit survives exactly when its
    # slack is still >= 0.
    cols = list(zip(*num))
    target = cols[i - 1]
    w = _slot_bytes(2 * max(N * max(target), 2 * max(map(max, num))))
    bits = 8 * w
    guard = sum(1 << (bits * (j + 1) - 1) for j in range(r))
    start = guard + sum(N * t << (bits * j) for j, t in enumerate(target))
    steps = [sum(2 * c << (bits * j) for j, c in enumerate(col)) for col in cols]
    solutions: list[MNSolution] = []
    n = [0] * r

    def dfs(k: int, slack: int) -> None:
        # every slack is >= 0 on entry; raising n_k lowers them all
        if k == r:
            m = _unpacked(slack ^ guard, r, w)
            if den > 1:
                if any(x % den for x in m):
                    return
                m = [x // den for x in m]
            solutions.append(MNSolution(tuple(m), tuple(n)))
            return
        step = steps[k]
        v = 0
        while slack & guard == guard:
            n[k] = v
            dfs(k + 1, slack)
            slack -= step
            v += 1
        n[k] = 0

    dfs(0, start)
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
