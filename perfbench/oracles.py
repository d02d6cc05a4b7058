"""Output checks that share no code with qtrin.

Everything here works on the text qtrin prints (or on ``str()`` of the
objects its registry returns) and on plain integers, so a change to
qtrin's internal representation cannot make a wrong answer look right.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# --------------------------------------------------------------------
# Parsing the printed form of a polynomial or truncated series
# --------------------------------------------------------------------


def _parse_exponent(qpart: str) -> Fraction:
    if qpart == "q":
        return Fraction(1)
    if not qpart.startswith("q^"):
        raise ValueError(f"bad q-power {qpart!r}")
    body = qpart[2:]
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    return Fraction(body)


def parse_series(text: str) -> tuple[dict[Fraction, int], Fraction | None]:
    """Parse `2*q^(3/2) - q^5 + O(q^8)` into ({exponent: coeff}, order).

    The order is None for a polynomial.  Raises ValueError on any text
    that is not in qtrin's canonical printed form.
    """
    text = text.strip()
    order = None
    if text.endswith(")") and " + O(q^" in text:
        text, tail = text.rsplit(" + O(q^", 1)
        order = Fraction(tail[:-1])
    terms: dict[Fraction, int] = {}
    if text == "0":
        return terms, order
    tokens = text.split(" ")
    signed = [tokens[0]]
    if len(tokens) % 2 != 1:
        raise ValueError(f"bad term layout in {text[:60]!r}")
    for sign, term in zip(tokens[1::2], tokens[2::2]):
        if sign not in "+-" or len(sign) != 1:
            raise ValueError(f"bad sign {sign!r}")
        signed.append(term if sign == "+" else "-" + term)
    for term in signed:
        neg = term.startswith("-")
        body = term[1:] if neg else term
        if "*" in body:
            c_s, qpart = body.split("*", 1)
            coeff, exp = int(c_s), _parse_exponent(qpart)
        elif body.startswith("q"):
            coeff, exp = 1, _parse_exponent(body)
        else:
            coeff, exp = int(body), Fraction(0)
        if coeff <= 0 or exp in terms:
            raise ValueError(f"non-canonical term {term!r}")
        terms[exp] = -coeff if neg else coeff
    return terms, order


def below(terms: dict[Fraction, int], cut: Fraction | None) -> dict[Fraction, int]:
    if cut is None:
        return terms
    return {e: c for e, c in terms.items() if e < cut}


def sides_agree(lhs_text: str, rhs_text: str) -> tuple[bool, bool]:
    """(equal up to the smaller truncation order, at least one side nonzero)."""
    lt, lo = parse_series(lhs_text)
    rt, ro = parse_series(rhs_text)
    orders = [o for o in (lo, ro) if o is not None]
    cut = min(orders) if orders else None
    lt, rt = below(lt, cut), below(rt, cut)
    return lt == rt, bool(lt or rt)


# --------------------------------------------------------------------
# Integer oracles
# --------------------------------------------------------------------


def box_partitions(a: int, b: int) -> list[int]:
    """Coefficient list of the Gaussian polynomial [a+b, a]: entry k counts
    the partitions of k with at most ``a`` parts, each part at most ``b``.

    DP over part sizes 1..b; row c holds partitions into exactly c parts.
    """
    if a < 0 or b < 0:
        return []
    deg = a * b
    rows = [[1] + [0] * deg] + [[0] * (deg + 1) for _ in range(a)]
    for size in range(1, b + 1):
        for c in range(1, a + 1):
            prev, cur = rows[c - 1], rows[c]
            cur[size:] = [x + y for x, y in zip(cur[size:], prev)]
    return [sum(col) for col in zip(*rows)]


def trinomial_coefficient(L: int, a: int) -> int:
    """Coefficient of x^a in (1 + x + 1/x)^L."""
    coeffs = [1]  # exponents -j..j, offset j
    for _ in range(L):
        padded = [0, 0] + coeffs + [0, 0]
        coeffs = [padded[i] + padded[i + 1] + padded[i + 2]
                  for i in range(len(coeffs) + 2)]
    return coeffs[a + L] if abs(a) <= L else 0


def partition_numbers(n: int) -> list[int]:
    """p(0..n-1) by Euler's pentagonal-number recurrence."""
    p = [0] * max(n, 1)
    p[0] = 1
    for m in range(1, n):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[:n]


def _over_euler(theta: dict[int, int], n: int) -> list[int]:
    """Coefficients 0..n-1 of theta(q) / (q;q)_inf for integer exponents."""
    p = partition_numbers(n)
    out = [0] * max(n, 0)
    for e, c in theta.items():
        for k in range(max(e, 0), n):
            out[k] += c * p[k - e]
    return out


def rocha_caridi(p: int, pp: int, r: int, s: int, order: Fraction) -> dict[Fraction, int]:
    """Minimal-model character chi^{(p,p')}_{r,s} below ``order``:
    q^alpha (q)_inf^{-1} sum_j (q^{j(pp'j + p'r - ps)} - q^{(pj+r)(p'j+s)})."""
    alpha = Fraction((pp * r - p * s) ** 2 - 1, 4 * p * pp)
    n = math.ceil(order - alpha)
    theta: dict[int, int] = {}
    j = 0
    while True:
        live = False
        for jj in {j, -j}:
            for e, sign in ((jj * (p * pp * jj + pp * r - p * s), 1),
                            ((p * jj + r) * (pp * jj + s), -1)):
                if e < n:
                    live = True
                    theta[e] = theta.get(e, 0) + sign
        if not live and j > 0:
            break
        j += 1
    coeffs = _over_euler(theta, n)
    return {alpha + k: c for k, c in enumerate(coeffs) if c and alpha + k < order}


def string_function(sigma: int, order: Fraction) -> dict[Fraction, int]:
    """Level-1 string function c_sigma below ``order``.

    With x = q^(1/2), (-x; x^2)_inf counts partitions into distinct odd parts;
    c_0 and c_1 are its even and odd x-degree parts divided by (q;q)_inf.
    """
    top = max(2 * math.ceil(order), 0)  # x-degrees 0..top-1
    distinct_odd = [1] + [0] * max(top - 1, 0)
    for part in range(1, top, 2):
        for d in range(top - 1, part - 1, -1):
            distinct_odd[d] += distinct_odd[d - part]
    half = {d: c for d, c in enumerate(distinct_odd[:top]) if c and d % 2 == sigma}
    n = math.ceil(order - Fraction(sigma, 2))
    theta = {(d - sigma) // 2: c for d, c in half.items()}
    coeffs = _over_euler(theta, n)
    shift = Fraction(sigma, 2)
    return {shift + k: c for k, c in enumerate(coeffs) if c and shift + k < order}


def branching(p: int, pp: int, r: int, s: int, sigma: int,
              order: Fraction) -> dict[Fraction, int]:
    """The branching functions with known closed forms (B35 and B46)."""
    if (p, pp, r, s) == (3, 5, 1, 1):
        return rocha_caridi(4, 5, 2 * sigma + 1, 1, order)
    if (p, pp, r, s) == (4, 6, 1, 1):
        n = math.ceil(order)
        theta: dict[int, int] = {}
        if sigma == 0:
            for j in range(0, math.isqrt(n) + 1):
                theta[j * j] = theta.get(j * j, 0) + (-1) ** j
            for j in range(1, math.isqrt(n) + 1):
                theta[6 * j * j] = theta.get(6 * j * j, 0) + 1
            shift = Fraction(0)
        else:
            for j in range(0, n + 1):
                theta[6 * j * (j + 1)] = 1
            shift = Fraction(3, 2)
        coeffs = _over_euler(theta, n)
        return {shift + k: c for k, c in enumerate(coeffs) if c and shift + k < order}
    raise ValueError(f"no closed form for B^({p},{pp})_({r},{s})")


def refined_T_at_1(L: int, M: int, a: int, b: int) -> int:
    """The refined trinomial's defining sum at q = 1."""
    total = 0
    for n in range(0, min(L - abs(a), M) + 1):
        if (n + a + L) % 2:
            continue
        u, v = (L - a - n) // 2, (L + a - n) // 2
        total += (math.comb(M, n) * _binom(M + b + u, M + b)
                  * _binom(M - b + v, M - b))
    return total


def _binom(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


# --------------------------------------------------------------------
# Dynkin diagrams and (m,n)-systems
# --------------------------------------------------------------------

EDGES = {
    "A5": ((1, 2), (2, 3), (3, 4), (4, 5)),
    "D6": ((1, 2), (2, 3), (3, 4), (4, 5), (4, 6)),
    "E6": ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)),
    "E7": ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)),
    "E8": ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)),
}
RANK = {"A5": 5, "D6": 6, "E6": 6, "E7": 7, "E8": 8}


def _neighbours(name: str) -> list[list[int]]:
    nb: list[list[int]] = [[] for _ in range(RANK[name])]
    for i, j in EDGES[name]:
        nb[i - 1].append(j - 1)
        nb[j - 1].append(i - 1)
    return nb


def mn_line_ok(name: str, N: int, i: int, m: tuple[int, ...], n: tuple[int, ...]) -> bool:
    """m + n = (I.m + N e_i)/2 with m, n nonnegative."""
    nb = _neighbours(name)
    if min(m) < 0 or min(n) < 0:
        return False
    for j in range(RANK[name]):
        rhs = sum(m[k] for k in nb[j]) + (N if j == i - 1 else 0)
        if 2 * (m[j] + n[j]) != rhs:
            return False
    return True


def _inverse_cartan(name: str) -> list[list[Fraction]]:
    r = RANK[name]
    nb = _neighbours(name)
    a = [[Fraction(2 if x == y else (-1 if y in nb[x] else 0)) for y in range(r)]
         + [Fraction(int(x == y)) for y in range(r)] for x in range(r)]
    for col in range(r):
        piv = next(k for k in range(col, r) if a[k][col])
        a[col], a[piv] = a[piv], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for k in range(r):
            if k != col and a[k][col]:
                f = a[k][col]
                a[k] = [x - f * y for x, y in zip(a[k], a[col])]
    return [row[r:] for row in a]


def mn_box_solutions(name: str, N: int, i: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every solution, by scanning the box 0 <= n_l <= N C^-1_{l,i} / (2 C^-1_{l,l}).

    The box is exact: m = C^{-1}(N e_i - 2n) >= 0 and all inverse Cartan
    entries are positive, so row l alone bounds n_l.
    """
    r = RANK[name]
    inv = _inverse_cartan(name)
    bounds = [math.floor(N * inv[l][i - 1] / (2 * inv[l][l])) for l in range(r)]
    # integer arithmetic: scale the inverse by the lcm of its denominators
    d = math.lcm(*(x.denominator for row in inv for x in row))
    w = [[int(x * d) for x in row] for row in inv]
    out = []
    for n in itertools.product(*(range(b + 1) for b in bounds)):
        m = [N * w[j][i - 1] - 2 * sum(w[j][l] * n[l] for l in range(r) if n[l])
             for j in range(r)]
        if all(x >= 0 and x % d == 0 for x in m):
            out.append((tuple(x // d for x in m), n))
    return out


def mn_box_size(name: str, N: int, i: int) -> int:
    inv = _inverse_cartan(name)
    return math.prod(math.floor(N * inv[l][i - 1] / (2 * inv[l][l])) + 1
                     for l in range(RANK[name]))


def parse_mn_line(line: str, rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parse `m=5e1+4e2+e7 n=e5`."""
    m_part, n_part = line.split(" ")
    if not (m_part.startswith("m=") and n_part.startswith("n=")):
        raise ValueError(f"bad (m,n) line {line!r}")

    def vec(body: str) -> tuple[int, ...]:
        v = [0] * rank
        if body != "0":
            for tok in body.split("+"):
                c, idx = tok.split("e")
                v[int(idx) - 1] = int(c) if c else 1
        return tuple(v)

    return vec(m_part[2:]), vec(n_part[2:])


# F-polynomial systems: marked vertex p and the n-filters, restated from the
# paper's definitions (A5: mod-3 and n1+n3+n5+sigma even; D6: n1+n3+n6 even
# and n1+n3+n5+sigma even; E7: n1+n3+n7+sigma even).
F_VERTEX = {"A5": 3, "D6": 5, "E7": 1}


def f_filter(name: str, sigma: int, n: tuple[int, ...]) -> bool:
    if name == "A5":
        return (n[0] + n[3] - n[1] - n[4]) % 3 == 0 and (n[0] + n[2] + n[4] + sigma) % 2 == 0
    if name == "D6":
        return (n[0] + n[2] + n[5]) % 2 == 0 and (n[0] + n[2] + n[4] + sigma) % 2 == 0
    return (n[0] + n[2] + n[6] + sigma) % 2 == 0


def f_poly_at_1(name: str, M: int, sigma: int) -> int:
    """F_{M,sigma}(q=1) = sum over filtered solutions of prod binom(m_j+n_j, n_j)."""
    total = 0
    for m, n in mn_box_solutions(name, 2 * M, F_VERTEX[name]):
        if f_filter(name, sigma, n):
            total += math.prod(math.comb(a + b, b) for a, b in zip(m, n))
    return total
