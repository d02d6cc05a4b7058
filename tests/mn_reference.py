"""Box enumeration of (m,n)-systems, an oracle for ``qtrin.mnsys.solve_mn``.

It shares no code with ``qtrin.liealg``'s inverse: m = C^{-1}(N e_i - 2n) is
taken from sympy's integer adjugate and determinant of the Cartan matrix,
C^{-1} = adj(C) / det(C), over every n in the box [0, box]^rank.
"""

from __future__ import annotations

from itertools import product

from sympy import Matrix

from qtrin.mnsys import MNSolution


def solve_mn_bruteforce(g, N: int, i: int, box: int) -> list[MNSolution]:
    """All (m, n) with 0 <= n_j <= box and m a nonnegative integer vector,
    ordered lexicographically in n."""
    cartan = Matrix(g.cartan)
    det = int(cartan.det())
    adj = [[int(x) for x in row] for row in cartan.adjugate().tolist()]
    r = g.rank
    out = []
    for n in product(range(box + 1), repeat=r):
        m = []
        for row in adj:
            mj, rem = divmod(N * row[i - 1] - 2 * sum(x * nl for x, nl in zip(row, n)), det)
            if mj < 0 or rem:
                break
            m.append(mj)
        else:
            out.append(MNSolution(tuple(m), n))
    return out
