"""Reference term maps for the differential tests of ``qtrin.qpoly``.

A term map here is a plain dict from ``Fraction`` exponent to nonzero int
coefficient, and every operation is written the direct way, sharing no code
with qtrin.  A truncation order ``cut`` drops exponents >= cut; ``None``
keeps all (a polynomial).
"""

from fractions import Fraction
from math import ceil, gcd, lcm


def clean(pairs, cut=None):
    out = {}
    for e, c in pairs:
        e = Fraction(e)
        if cut is None or e < cut:
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def add(a, b, cut=None):
    return clean([*a.items(), *b.items()], cut)


def neg(a):
    return {e: -c for e, c in a.items()}


def mul(a, b, cut=None):
    return clean([(ea + eb, ca * cb) for ea, ca in a.items() for eb, cb in b.items()], cut)


def mul_order(a, oa, b, ob):
    """Truncation order of the product of a + O(q^oa) and b + O(q^ob), an
    order None meaning an exact polynomial: the least exponent that an
    unknown term of one factor times a known or unknown term of the other
    reaches, but never above the lesser order."""
    reach = []
    if oa is not None:
        reach += [oa] + [oa + e for e in b]
    if ob is not None:
        reach += [ob] + [ob + e for e in a]
    if oa is not None and ob is not None:
        reach.append(oa + ob)
    return min(reach)


def pochhammer(a, sign, step, n, cut):
    """(sign * q^a; q^step)_n below ``cut``: the finite product of the
    factors 1 - sign * q^(a + j*step), j < n, one at a time."""
    out = clean([(0, 1)], cut)
    for j in range(n):
        out = mul(out, clean([(0, 1), (Fraction(a) + j * Fraction(step), -sign)]), cut)
    return out


def euler_inverse(cut):
    """1/(q;q)_inf below ``cut``: the finite product (q;q)_n with n = ceil(cut),
    which holds every factor below the cut, inverted."""
    return inverse(pochhammer(1, 1, 1, max(ceil(cut), 0), cut), cut)


def partition_counts(n):
    """p(0), ..., p(n-1), counting change: the parts 1, 2, ... join one at
    a time, independent of Euler's pentagonal theorem."""
    p = [int(s == 0) for s in range(n)]
    for part in range(1, n):
        for s in range(part, n):
            p[s] += p[s - part]
    return p


def shift(a, r):
    return {e + Fraction(r): c for e, c in a.items()}


def qinv(a):
    return {-e: c for e, c in a.items()}


def inverse(a, cut):
    """1/a below ``cut`` for a constant term c0 = +-1 and otherwise positive
    exponents: a = c0 (1 - u), so 1/a = c0 (1 + u + u^2 + ...)."""
    if cut <= 0:
        return {}
    c0 = a[0]
    u = {e: -c * c0 for e, c in a.items() if e}
    total, power = {}, {Fraction(0): 1}
    while power:
        total = add(total, power)
        power = mul(power, u, cut)
    return {e: c * c0 for e, c in total.items()}


def fmt(a):
    """qtrin's canonical text: increasing exponents, q^(p/r) for fractions."""
    out = ""
    for e in sorted(a):
        c = a[e]
        q = "" if e == 0 else "q" if e == 1 else f"q^{e}" if e.denominator == 1 else f"q^({e})"
        body = str(abs(c)) if not q else q if abs(c) == 1 else f"{abs(c)}*{q}"
        sign = ("-" if c < 0 else "") if not out else (" - " if c < 0 else " + ")
        out += sign + body
    return out or "0"


def parse(text):
    """The term map of qtrin's canonical text, the inverse of ``fmt``; a
    series' ``+ O(q^order)`` tail is dropped (its order is read from
    ``.order``).  Text that ``fmt`` would not print raises ValueError."""
    body = text.split(" + O(q^")[0]
    out = {}
    for term in body.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        coeff, _, power = term.lstrip("-").rpartition("*")
        if not power.startswith("q"):
            coeff, power = power, ""
        e = 0 if not power else 1 if power == "q" else Fraction(power[2:].strip("()"))
        out[Fraction(e)] = sign * int(coeff or 1)
    out = {e: c for e, c in out.items() if c}
    if fmt(out) != body:
        raise ValueError(f"not in canonical form: {text!r}")
    return out


def row(a):
    """The canonical row (d, lo, s, c) of a term map, from its definition:
    d the least common denominator of the exponents, c[i] the coefficient
    of q^((lo + i*s)/d) from the least exponent lo/d up to the greatest,
    s the gcd of the differences of the integer keys (d for one term), and
    zero (1, 0, 1, ())."""
    if not a:
        return 1, 0, 1, ()
    d = lcm(*(e.denominator for e in a))
    keys = {int(e * d): c for e, c in a.items()}
    lo, hi = min(keys), max(keys)
    s = gcd(*(k - lo for k in keys)) or d
    c = [0] * ((hi - lo) // s + 1)
    for k, x in keys.items():
        c[(k - lo) // s] = x
    return d, lo, s, tuple(c)
