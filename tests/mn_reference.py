"""Oracles for ``qtrin.mnsys.solve_mn``: a box enumeration of (m,n)-systems,
a check of one solution against the defining equations, the text of one
solution in unit-vector notation, the form n.C^{-1}.n, each algebra's cone
filters as plain predicates, and a filter's congruence read from its fields.

Neither shares code with ``qtrin.liealg``'s inverse.  The box enumeration
takes m = C^{-1}(N e_i - 2n) from sympy's integer adjugate and determinant of
the Cartan matrix, C^{-1} = adj(C) / det(C), over every n in a box that holds
all solutions; the check uses only the incidence matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from sympy import Matrix

from qtrin.mnsys import MNSolution


@lru_cache(maxsize=None)
def cartan_adjugate(g) -> tuple[list[list[int]], int]:
    """adj(C) and det(C) of g's Cartan matrix, from sympy; C^{-1} = adj(C) /
    det(C)."""
    cartan = Matrix(g.cartan)
    return [[int(x) for x in row] for row in cartan.adjugate().tolist()], int(cartan.det())


def invcartan_form(g, n) -> Fraction:
    """n.C^{-1}.n from sympy's adjugate and determinant."""
    adj, det = cartan_adjugate(g)
    return Fraction(sum(ni * x * nj for ni, row in zip(n, adj) for x, nj in zip(row, n)), det)


def solve_mn_bruteforce(g, N: int, i: int) -> list[MNSolution]:
    """All (m, n) with n and m nonnegative integer vectors, ordered
    lexicographically in n.  Every entry of C^{-1} is positive, so m_j >= 0
    gives N (C^{-1})_ji >= 2 (C^{-1})_jj n_j: the box 0 <= n_j <= N adj_ji /
    (2 adj_jj) holds every solution."""
    adj, det = cartan_adjugate(g)
    out = []
    box = [range(N * adj[j][i - 1] // (2 * adj[j][j]) + 1) for j in range(g.rank)]
    for n in product(*box):
        m = []
        for row in adj:
            mj, rem = divmod(N * row[i - 1] - 2 * sum(x * nl for x, nl in zip(row, n)), det)
            if mj < 0 or rem:
                break
            m.append(mj)
        else:
            out.append(MNSolution(tuple(m), n))
    return out


def incidence_apply(g, m) -> list[int]:
    """I.m for the incidence matrix I of g."""
    return [sum(row[j] * m[j] for j in range(g.rank)) for row in g.incidence]


def check_solution(s: MNSolution, g, N: int, i: int) -> bool:
    """Whether m + n = (I.m + N e_i)/2 holds exactly."""
    im = incidence_apply(g, s.m)
    for j in range(g.rank):
        rhs = im[j] + (N if j == i - 1 else 0)
        if rhs % 2 or s.m[j] + s.n[j] != rhs // 2:
            return False
    return True


def basis_text(s: MNSolution) -> str:
    """`m=... n=...` with each vector written as a sum of terms c e_j, the
    coefficient dropped when it is 1, zero terms left out, and `0` for the
    zero vector: e.g. `m=5e1+4e2+e7 n=0`."""
    def vec(v) -> str:
        text = ""
        for j in range(len(v)):
            if v[j] != 0:
                coeff = "" if v[j] == 1 else str(v[j])
                text += ("+" if text else "") + coeff + "e" + str(j + 1)
        return text if text else "0"
    return "m=" + vec(s.m) + " n=" + vec(s.n)


# independent predicates for each algebra's cone filters (fermionic._filters),
# called with n and sigma
CONE_PREDICATES = {
    "E8": lambda n, s: True,
    "E7": lambda n, s: (n[0] + n[2] + n[6] + s) % 2 == 0,
    "E6": lambda n, s: (n[0] + n[3] - n[1] - n[4]) % 3 == 0,
    "D6": lambda n, s: (n[0] + n[2] + n[5]) % 2 == 0 and (n[0] + n[2] + n[4] + s) % 2 == 0,
    "A5": lambda n, s: ((n[0] + n[3] - n[1] - n[4]) % 3 == 0
                        and (n[0] + n[2] + n[4] + s) % 2 == 0),
}


def filter_holds(flt, n) -> bool:
    """Whether n satisfies the filter (terms, modulus, const): the sum of c *
    n_j over (j, c) in terms (0-based j), plus const, divisible by modulus."""
    terms, modulus, const = flt
    return (sum(c * n[j] for j, c in terms) + const) % modulus == 0
