"""Enumeration of (m,n)-systems m + n = (I.m + N e_i)/2 over a Dynkin diagram.

Strategy: depth-first search over the n vectors in lexicographic order,
recovering m = C^{-1}(N e_i - 2n) and keeping solutions where m is a
nonnegative integer vector.  All entries of the inverse Cartan matrix are
positive, so raising any n_k lowers every m_j, and a coordinate stops rising
as soon as one m_j turns negative.  The search runs in plain integers on the
scaled matrix den * C^{-1} that ``LieAlgebra`` stores.  Its r slacks den * m_j
share one integer, a slot per coordinate with a guard bit (SWAR: Lamport,
"Multiple byte processing with full-word instructions", CACM 1975), so
raising n_k is one subtraction and the prune one AND.

``solve_mn`` is the one search: integrality and the filters passed to it are
linear congruences on n.  m is integral when den divides every slack
N num_ji - 2 (num.n)_j, one congruence mod den per row; a ``LinearFilter``
asks that a linear form in n plus a constant be divisible by its modulus.
Each congruence is checked at the depth of its last nonzero coordinate,
where, given the earlier coordinates, it leaves that coordinate one residue
class (the intersection of the classes when several end there, or none):
the search steps the coordinate through the class instead of testing each
value, so every leaf is a solution.  ``_rules`` builds the rules, for this
search and for qtrin.fermionic's cone walk.  The last coordinate loops without
recursion and keeps each leaf's integer, which also counts n in slots of its
own; all leaves are read in one array cast at the end, and m and n are those
slots over den.  Solutions come out strictly increasing in n, with no sort.

``basis_lines``, the one renderer, lists solutions a column at a time: each
coordinate's values map through a dict of that column's distinct term
strings, and each vector is joined once.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from math import gcd, lcm
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .liealg import LieAlgebra
from .qcomb import _slot_bytes, _slots


class MNSolution(NamedTuple):
    m: tuple[int, ...]
    n: tuple[int, ...]


def _column_text(vectors: Sequence[tuple[int, ...]]) -> list[str]:
    """Each vector as a sum of terms c e_j, with 1 e_j written e_j and the
    zero vector 0."""
    cols = [map({c: f"+{'' if c == 1 else c}e{j}" if c else "" for c in set(col)}.__getitem__, col)
            for j, col in enumerate(zip(*vectors), 1)]
    return ["".join(terms)[1:] or "0" for terms in zip(*cols)]


def basis_lines(solutions: Sequence[MNSolution]) -> list[str]:
    """One line per solution in unit-vector notation, e.g. `m=5e1+4e2+e7 n=e5`."""
    if not solutions:
        return []
    ms, ns = zip(*solutions)
    return list(map("m={} n={}".format, _column_text(ms), _column_text(ns)))


class LinearFilter(NamedTuple):
    """Keeps n when sum of c * n_j over (j, c) in ``terms`` (0-based j), plus
    ``const``, is divisible by ``modulus``; build it with ``linear_filter``."""
    terms: tuple[tuple[int, int], ...]
    modulus: int
    const: int = 0


def linear_filter(coeffs: Mapping[int, int], modulus: int, const: int = 0) -> LinearFilter:
    """n -> sum of coeffs[j] * n_j (1-based j) plus const is divisible by
    modulus; coefficients and constant are kept mod the modulus."""
    if modulus <= 0:
        raise ValueError(f"filter modulus must be positive, not {modulus}")
    terms = tuple(sorted((j - 1, c % modulus) for j, c in coeffs.items() if c % modulus))
    return LinearFilter(terms, modulus, const % modulus)


def parity_filter(indices: Sequence[int], sigma: int = 0) -> LinearFilter:
    """n -> (sum of the 1-based components) + sigma is even."""
    return linear_filter(Counter(indices), 2, sigma)


def mod3_filter() -> LinearFilter:
    """The A5/E6 constraint n1 + n4 == n2 + n5 (mod 3)."""
    return linear_filter({1: 1, 2: -1, 4: 1, 5: -1}, 3)


def solve_mn(g: LieAlgebra, N: int, i: int, *filters: LinearFilter) -> list[MNSolution]:
    """All solutions with m, n componentwise nonnegative whose n passes every
    filter, ordered lexicographically in n; the filters run inside the
    search, and their order and repeats do not matter.

    ``i`` is the 1-based vertex index of the source term N e_i.
    """
    return list(_solve_mn_cached(g, N, i, tuple(sorted(set(filters)))))


def _reduced(terms, modulus: int, const: int):
    """The congruence sum c * n_j + const == 0 mod ``modulus`` in a canonical
    form: coefficients in [0, modulus) with their common divisor with the
    modulus divided out, scaled so that the last one is 1 when it is a unit.
    None when no n satisfies it, and () when every n does."""
    if modulus <= 0:
        raise ValueError(f"filter modulus must be positive, not {modulus}")
    coeffs: dict[int, int] = {}
    for j, c in terms:
        coeffs[j] = coeffs.get(j, 0) + c
    terms = sorted((j, c % modulus) for j, c in coeffs.items() if c % modulus)
    d = gcd(modulus, *(c for _, c in terms))
    if const % d:
        return None
    modulus //= d
    if modulus == 1:
        return ()
    terms = [(j, c // d) for j, c in terms]
    const //= d
    if gcd(terms[-1][1], modulus) == 1:
        u = pow(terms[-1][1], -1, modulus)
        terms = [(j, c * u % modulus) for j, c in terms]
        const *= u
    return tuple(terms), modulus, const % modulus


class _Rule(NamedTuple):
    """The congruences that end on one coordinate k, each as the negated
    coefficients of coordinates 0..k-1, the negated constant, the
    coefficient of n_k and the modulus; and the lcm of the moduli."""
    forms: tuple[tuple[tuple[int, ...], int, int, int], ...]
    period: int

    def key(self, prefix: Sequence[int]) -> tuple[int, ...]:
        """The right-hand sides of the congruences on n_k, given n_0..n_{k-1}
        = prefix: what ``residues`` reads, in both searches."""
        return tuple([(c0 + sum(map(mul, neg, prefix))) % mod for neg, c0, _, mod in self.forms])

    def residues(self, key: tuple[int, ...]) -> tuple[int, int] | tuple[()]:
        """(first, step) of the values of n_k that satisfy every congruence,
        key holding the right-hand sides; () when none does."""
        hits = range(self.period)
        for (_, _, a, m), b in zip(self.forms, key):
            hits = [x for x in hits if (a * x - b) % m == 0]
        if not hits:
            return ()
        return hits[0], hits[1] - hits[0] if len(hits) > 1 else self.period


@lru_cache(maxsize=None)
def _rules(r: int, congruences: tuple) -> tuple[_Rule | None, ...] | None:
    """Per coordinate k of n in Z^r, the rule of the congruences (terms, modulus,
    const) that end on n_k, or None; None in place of the rules when no n passes."""
    for terms, _, _ in congruences:
        for j, _ in terms:
            if not 0 <= j < r:
                raise ValueError(f"filter index n{j + 1} is outside n1..n{r}")
    ending: list[set] = [set() for _ in range(r)]
    for terms, modulus, const in congruences:
        c = _reduced(terms, modulus, const)
        if c is None:
            return None
        if c:
            ending[c[0][-1][0]].add(c)
    rules = []
    for k, cs in enumerate(ending):
        forms = []
        for terms, modulus, const in sorted(cs):
            neg = [0] * k
            for j, c in terms[:-1]:
                neg[j] = -c
            forms.append((tuple(neg), -const, terms[-1][1], modulus))
        rules.append(_Rule(tuple(forms), lcm(*(f[3] for f in forms))) if forms else None)
    return tuple(rules)


@lru_cache(maxsize=None)
def _solve_mn_cached(g: LieAlgebra, N: int, i: int,
                     filters: tuple[LinearFilter, ...]) -> tuple[MNSolution, ...]:
    if N < 0:
        raise ValueError("N must be nonnegative")
    if not 1 <= i <= g.rank:
        raise ValueError(f"vertex index {i} out of range for rank {g.rank}")
    r = g.rank
    num, den = g.invcartan_num, g.invcartan_den
    # den divides slack j: sum_k -2 num_jk n_k + N num_ji == 0 mod den
    slacks = tuple((tuple(enumerate(-2 * x for x in row)), den, N % den * row[i - 1])
                   for row in num) if den > 1 else ()
    rules = _rules(r, filters + slacks)
    if rules is None:
        return ()
    # one stride through a residue class subtracts at most `period` columns
    period = max([rule.period for rule in rules if rule] + [1])

    # In units of 1/den: m_j = (target_j - 2*(num . n)_j) / den must be a
    # nonnegative integer.  The r slacks target_j - 2*(num . n)_j live in one
    # integer, slot j holding guard + slack_j with the guard bit at the top of
    # its w bytes.  A slot's slack stays below the guard and no stride
    # exceeds it, so subtracting a stride from nonnegative slacks never
    # borrows across slots, and a slot's guard bit survives exactly when its
    # slack is still >= 0.  Slots r..2r-1, above every guard bit, count
    # den * n_k up from 0 (each n_k <= N * target_k / 2), so a leaf's 2r
    # slots over den are m and n.
    cols = list(zip(*num))
    target = cols[i - 1]
    w = _slot_bytes(2 * max(den * N * max(target), 2 * period * max(map(max, num))))
    bits = 8 * w
    guard = sum(1 << (bits * (j + 1) - 1) for j in range(r))
    start = guard + sum(N * t << (bits * j) for j, t in enumerate(target))
    steps = [sum(2 * c << (bits * j) for j, c in enumerate(col)) - (den << (bits * (r + k)))
             for k, col in enumerate(cols)]
    last = r - 1
    # per coordinate: (first value, step, its first subtrahend, stride), or
    # the rule that gives them for each prefix, memoized by its residues
    free = [(0, 1, 0, step) for step in steps]
    memos: list[dict] = [{} for _ in range(r)]

    def admissible(k: int, prefix: tuple[int, ...]):
        rule = rules[k]
        key = rule.key(prefix)
        hit = memos[k].get(key)
        if hit is None:
            hit = rule.residues(key)
            if hit:
                hit = (*hit, hit[0] * steps[k], hit[1] * steps[k])
            memos[k][key] = hit
        return hit

    leaves: list[int] = []  # the slacks of the solutions, in order

    def dfs(k: int, slack: int, prefix: tuple[int, ...]) -> None:
        # every slack is >= 0 on entry; raising n_k lowers them all
        hit = free[k] if rules[k] is None else admissible(k, prefix)
        if not hit:
            return
        x, d, off, stride = hit
        slack -= off
        if k < last - 1:
            while slack & guard == guard:
                dfs(k + 1, slack, prefix + (x,))
                slack -= stride
                x += d
            return
        # n_{r-1} here, and the last coordinate without recursion
        while slack & guard == guard:
            hit = free[last] if rules[last] is None else admissible(last, prefix + (x,))
            if hit:
                y, e, off, leaf_stride = hit
                s = slack - off
                while s & guard == guard:
                    leaves.append(s ^ guard)
                    s -= leaf_stride
            slack -= stride
            x += d

    dfs(0, start, ())
    size = 2 * r * w
    flat = _slots(b"".join([s.to_bytes(size, "little") for s in leaves]), w)
    if den > 1:
        flat = [x // den for x in flat]
    vectors = iter(zip(*[iter(flat)] * r))
    # tuple.__new__ builds each record without a Python-level __new__ call
    return tuple(map(partial(tuple.__new__, MNSolution), zip(vectors, vectors)))
