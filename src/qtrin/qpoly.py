"""Exact sparse Laurent polynomials and truncated power series in q.

Exponents are exact rationals, coefficients arbitrary-precision integers.
Exponents are accepted and returned as ``Fraction`` (or int), but each
object stores them as integers over one denominator: ``d >= 1`` and a map
from integer ``k`` to the coefficient of q^(k/d).  One type, ``QPoly``,
underpins everything else in the package: its ``order`` is None for an
exact polynomial, and a ``QSeries`` is a ``QPoly`` with a truncation order.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, lcm
from typing import Union

Exponent = Union[int, Fraction]
Terms = Union[Mapping[Exponent, int], Iterable[tuple[Exponent, int]]]
TermMap = tuple[int, dict[int, int]]


class NonUnitConstantTerm(Exception):
    """Series inversion requires a constant term of +1 or -1."""


# -- the term-map kernel ----------------------------------------------
#
# A term map is a pair (d, m): m maps an integer k to the nonzero int
# coefficient of q^(k/d).  It is kept reduced, gcd(d, *m) == 1 and d == 1
# for zero, so equal values have equal pairs.  Binary routines first align
# both maps on lcm(d1, d2); a truncation order ``cut`` becomes the integer
# bound ceil(cut * d) once per call.  Only this module builds or walks a
# term map: the class below wraps one and calls these routines, a series
# passing its truncation order as ``cut``.


def _bound(cut: Fraction, d: int) -> int:
    """Least integer k with k/d >= cut."""
    return -(-cut.numerator * d // cut.denominator)


def _reduced(d: int, m: dict[int, int]) -> TermMap:
    if d > 1:
        g = gcd(d, *m)
        if g > 1:
            return d // g, {k // g: c for k, c in m.items()}
    return d, m


def _aligned(da: int, a: dict, db: int, b: dict) -> tuple[int, dict, dict]:
    if da == db:
        return da, a, b
    d = lcm(da, db)
    fa, fb = d // da, d // db
    return (d, {k * fa: c for k, c in a.items()} if fa > 1 else a,
            {k * fb: c for k, c in b.items()} if fb > 1 else b)


def _clean(terms: Terms, cut: Fraction | None = None) -> TermMap:
    """Term map of a mapping or of (exponent, coeff) pairs: repeated
    exponents summed, zero coefficients and exponents >= cut dropped."""
    if isinstance(terms, Mapping):
        terms = terms.items()
    pairs = []
    d = 1
    for e, c in terms:
        if c:
            if type(e) is not int:
                e = e if isinstance(e, Fraction) else Fraction(e)
                d = lcm(d, e.denominator)
            pairs.append((e, c))
    bound = None if cut is None else _bound(cut, d)
    m: dict[int, int] = {}
    for e, c in pairs:
        k = e * d if type(e) is int else e.numerator * (d // e.denominator)
        if bound is None or k < bound:
            m[k] = m.get(k, 0) + c
    return _reduced(d, {k: c for k, c in m.items() if c})


def _dense(coeffs: Iterable[int], start: Exponent) -> TermMap:
    """Term map of coefficient i at q^(start + i), zeros dropped.  The keys
    step by the denominator of ``start`` and share no factor with it."""
    if not isinstance(start, (int, Fraction)):
        start = Fraction(start)
    d = start.denominator
    m = dict(zip(count(start.numerator, d), coeffs))
    if 0 in m.values():  # rare for the kernel's sums, so filtered only then
        m = {k: c for k, c in m.items() if c}
    return (d, m) if m else (1, m)


def _below(d: int, m: dict, cut: Fraction) -> TermMap:
    bound = _bound(cut, d)
    return _reduced(d, {k: c for k, c in m.items() if k < bound})


def _add(da: int, a: dict, db: int, b: dict) -> TermMap:
    d, a, b = _aligned(da, a, db, b)
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            del out[k]
    return _reduced(d, out)


def _scale(d: int, m: dict, n: int) -> TermMap:
    return (d, {k: c * n for k, c in m.items()}) if n else (1, {})


def _shift(d: int, m: dict, r: Exponent) -> TermMap:
    if not isinstance(r, (int, Fraction)):
        r = Fraction(r)
    if r.denominator == 1:
        # gcd(d, k + r*d) == gcd(d, k): the map stays reduced
        s = r.numerator * d
        return d, {k + s: c for k, c in m.items()}
    e = lcm(d, r.denominator)
    f, s = e // d, r.numerator * (e // r.denominator)
    return _reduced(e, {k * f + s: c for k, c in m.items()})


def _mul(da: int, a: dict, db: int, b: dict, cut: Fraction | None = None) -> TermMap:
    d, a, b = _aligned(da, a, db, b)
    if len(a) > len(b):
        a, b = b, a
    keys = sorted(b)
    row = [(k, b[k]) for k in keys]
    bound = None if cut is None else _bound(cut, d)
    # b is walked in key order, so under a cut each row stops at the first
    # key whose product exponent reaches the bound.
    acc: dict[int, int] = {}
    get = acc.get
    for ka, ca in a.items():
        for kb, cb in (row if bound is None else row[:bisect_left(keys, bound - ka)]):
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return _reduced(d, {k: c for k, c in acc.items() if c})


def _coeff(d: int, m: dict, e: Exponent) -> int:
    if type(e) is int:
        return m.get(e * d, 0)
    e = Fraction(e)
    f, r = divmod(d, e.denominator)
    return 0 if r else m.get(e.numerator * f, 0)


def _format(d: int, m: dict) -> str:
    """Canonical text, in one pass over the sorted keys: each term as a sign
    and its body (``c``, ``q^e``, ``c*q^e``, with ``q`` for q^1 and
    ``q^(p/r)`` for a fraction in lowest terms).  Every term gets a
    `` + `` or `` - ``, and the first one's is cut once at the end."""
    if not m:
        return "0"
    out = []
    append = out.append
    for k in sorted(m):
        c = m[k]
        if c > 0:
            sign = " + "
        else:
            sign, c = " - ", -c
        if d == 1:
            e = k
        elif k % d == 0:
            e = k // d
        else:
            g = gcd(k, d)
            e = f"({k // g}/{d // g})"
        if e == 0:
            append(f"{sign}{c}")
        elif c == 1:
            append(f"{sign}q" if e == 1 else f"{sign}q^{e}")
        else:
            append(f"{sign}{c}*q" if e == 1 else f"{sign}{c}*q^{e}")
    text = "".join(out)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _product_order(x: "QPoly", y: "QPoly") -> Fraction:
    """Truncation order of x*y, one factor a series: the lesser order, and
    below it where a series' unknown terms, at its order and above, meet the
    other factor's least term, known or unknown (a series' unknown terms
    start at its order).  Only a negative least term reaches below the
    lesser order."""
    out = x.order if y.order is None else y.order if x.order is None else min(x.order, y.order)
    for s, t in ((x, y), (y, x)):
        if s.order is None:
            continue
        if t._m and min(t._m) < 0:
            out = min(out, s.order + t.min_exponent())
        elif not t._m and t.order is not None and t.order < 0:
            out = min(out, s.order + t.order)
    return out


class QPoly:
    """Sparse polynomial in q with rational exponents and integer coefficients.

    Immutable by convention: no public method mutates the term map.  Zero
    coefficients are never stored; the zero polynomial has an empty map.
    The constructor takes a mapping or an iterable of (exponent, coeff)
    pairs; repeated exponents are summed.

    ``order`` is None for an exact polynomial; a ``QSeries`` is the same
    term map with a truncation order.  A sum carries the lesser order of its
    operands, a polynomial counting as exact; a product, the order below
    which every term is known (``_product_order``).
    """

    __slots__ = ("_d", "_m")
    order: Fraction | None = None

    def __init__(self, terms: Terms | None = None):
        self._d, self._m = _clean(terms or ())

    @staticmethod
    def _of(d: int, m: dict[int, int], order: Fraction | None = None) -> "QPoly":
        if order is None:
            out = QPoly.__new__(QPoly)
        else:
            out = QSeries.__new__(QSeries)
            out.order = order
        out._d = d
        out._m = m
        return out

    @property
    def terms(self) -> dict[Fraction, int]:
        """A fresh Fraction exponent -> coefficient dict of the nonzero terms."""
        return {Fraction(k, self._d): c for k, c in self._m.items()}

    def _at(self, order: Fraction | None) -> TermMap:
        """Term map cut at ``order``: None only for a polynomial, otherwise
        at most a series' own order."""
        if order == self.order:
            return self._d, self._m
        return _below(self._d, self._m, order)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "QPoly":
        """The zero polynomial: one shared instance, as nothing mutates a
        term map in place."""
        return _ZERO

    @staticmethod
    def one() -> "QPoly":
        return QPoly._of(1, {0: 1})

    @staticmethod
    def q_power(e: Exponent, coeff: int = 1) -> "QPoly":
        return QPoly([(e, coeff)])

    @staticmethod
    def from_coeffs(coeffs: Iterable[int], start: Exponent = 0) -> "QPoly":
        """Dense constructor: coefficient i belongs to q^(start + i)."""
        return QPoly._of(*_dense(coeffs, start))

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.order, other.order  # the lesser; None is exact
        order = b if a is None else a if b is None else min(a, b)
        return QPoly._of(*_add(*self._at(order), *other._at(order)), order)

    def __neg__(self) -> "QPoly":
        return QPoly._of(*_scale(self._d, self._m, -1), self.order)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            return QPoly._of(*_scale(self._d, self._m, other), self.order)
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = (self._d, self._m), (other._d, other._m)
        if self.order is None and other.order is None:
            return QPoly._of(*_mul(*a, *b))
        order = _product_order(self, other)
        # A polynomial factor is cut where its terms times the series
        # factor's least term reach the order; _mul cuts the products.
        if self.order is None:
            a = self._at(order - (other.min_exponent() or 0))
        if other.order is None:
            b = other._at(order - (self.min_exponent() or 0))
        return QPoly._of(*_mul(*a, *b, order), order)

    __rmul__ = __mul__

    # -- structural operations ----------------------------------------

    def substitute_qinv(self) -> "QPoly":
        """Replace q by 1/q: every exponent e becomes -e.  A polynomial
        only: a series' unknown terms would land below its known ones."""
        if self.order is not None:
            raise ValueError("q -> 1/q needs a polynomial, not a truncated series")
        if not self._m:
            return self
        return QPoly._of(self._d, {-k: c for k, c in self._m.items()})

    def shift(self, r: Exponent) -> "QPoly":
        """Multiply by q^r; a truncation order shifts along."""
        if self.order is None:
            return QPoly._of(*_shift(self._d, self._m, r)) if self._m else self
        if not isinstance(r, (int, Fraction)):
            r = Fraction(r)
        return QPoly._of(*_shift(self._d, self._m, r), self.order + r)

    def eval_q1(self) -> int:
        """Sum of all coefficients (the q -> 1 specialization)."""
        return sum(self._m.values())

    def coeff(self, e: Exponent) -> int:
        return _coeff(self._d, self._m, e)

    def min_exponent(self) -> Fraction | None:
        return Fraction(min(self._m), self._d) if self._m else None

    def truncate(self, order: Exponent) -> "QSeries":
        """The series of this value below ``order``, which may not exceed
        a series' own order."""
        order = Fraction(order)
        if self.order is not None and order > self.order:
            raise ValueError(f"cannot extend truncation order {self.order} to {order}")
        return QPoly._of(*self._at(order), order)

    to_series = truncate

    # -- comparison / display -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return (self.order == other.order and self._d == other._d
                and self._m == other._m)

    def __hash__(self) -> int:
        return hash((self._d, frozenset(self._m.items())))

    def __len__(self) -> int:
        """Number of nonzero terms (below the truncation order)."""
        return len(self._m)

    def __str__(self) -> str:
        if self.order is None:
            return _format(self._d, self._m)
        return f"{_format(self._d, self._m)} + O(q^{self.order})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


_ZERO = QPoly._of(1, {})


class QSeries(QPoly):
    """Truncated power series: a ``QPoly`` whose stored exponents are all
    strictly below ``order`` (a Fraction)."""

    __slots__ = ("order",)

    def __init__(self, terms: Terms | None, order: Exponent):
        self.order = Fraction(order)
        self._d, self._m = _clean(terms or (), self.order)

    @staticmethod
    def zero(order: Exponent) -> "QSeries":
        return QPoly._of(1, {}, Fraction(order))

    @staticmethod
    def one(order: Exponent) -> "QSeries":
        return QSeries([(0, 1)], order)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse up to the truncation order.

        Requires exponents >= 0 and constant term +1 or -1; Newton-free
        direct recursion, one exponent at a time in increasing order.  A
        series truncated at order <= 0 keeps no terms, and neither does its
        inverse.
        """
        if self._m and min(self._m) < 0:
            raise ValueError("series inversion needs exponents >= 0, "
                             f"got q^{self.min_exponent()}")
        if self.order <= 0:
            return QSeries.zero(self.order)
        d, m = self._d, self._m
        c0 = m.get(0, 0)
        if c0 not in (1, -1):
            raise NonUnitConstantTerm(
                f"constant term is {c0}, need +1 or -1 for series inversion"
            )
        # t solves s*t = 1: the coefficient of q^k in s*t vanishes for
        # 0 < k < bound, so c0*t_k = -sum over source terms k_s <= k of
        # c_s*t_{k-k_s}, with 1/c0 == c0.
        src = sorted((k, c) for k, c in m.items() if k)
        inv = {0: c0}
        for k in range(1, _bound(self.order, d)):
            acc = 0
            for ks, cs in src:
                if ks > k:
                    break
                acc += cs * inv.get(k - ks, 0)
            if acc:
                inv[k] = -acc * c0
        return QSeries._of(*_reduced(d, inv), self.order)


class DivergentProduct(Exception):
    """Infinite Pochhammer product whose terms do not converge under truncation."""


def pochhammer(a_exponent: Exponent, a_sign: int, step: Exponent,
               order: Exponent) -> QSeries:
    """Truncated (sign * q^a ; q^step)_infinity = prod_{j >= 0} (1 - sign *
    q^(a + j*step)).  Requires step > 0 and a_exponent > 0, so that all but
    finitely many factors are 1 below the truncation order."""
    a = Fraction(a_exponent)
    step = Fraction(step)
    order = Fraction(order)
    if a_sign not in (1, -1):
        raise ValueError("a_sign must be +1 or -1")
    if step <= 0 or a <= 0:
        raise DivergentProduct("infinite product needs step > 0 and a_exponent > 0")
    result = QSeries.one(order)
    while a < order:
        result = result * QSeries(((0, 1), (a, -a_sign)), order)
        a += step
    return result


def pochhammer_multi(exponents: Iterable[Exponent], step: Exponent,
                     order: Exponent) -> QSeries:
    """(q^a1, q^a2, ...; q^step)_infinity, truncated."""
    if order <= 0:  # nothing is known, and a product would lower the order
        return QSeries.zero(order)
    result = QSeries.one(order)
    for a in exponents:
        result = result * pochhammer(a, 1, step, order)
    return result


@lru_cache(maxsize=None)
def euler_inverse(order: Exponent) -> QSeries:
    """1/(q;q)_infinity truncated, cached: the partition generating function
    sum p(n) q^n.  Euler's pentagonal number theorem, (q;q)_infinity = sum
    over all integers k of (-1)^k q^(k(3k-1)/2), gives the recurrence
    p(n) = sum_{k >= 1} (-1)^(k+1) (p(n - k(3k-1)/2) + p(n - k(3k+1)/2)),
    O(n^1.5) integer additions in all (Andrews, The Theory of Partitions,
    ch. 1)."""
    order = Fraction(order)
    if order <= 0:
        return QSeries.zero(order)
    p = [1]
    for n in range(1, _bound(order, 1)):
        acc = 0
        for k in count(1):
            g = k * (3 * k - 1) // 2  # the pentagonal numbers g and g + k
            if g > n:
                break
            t = p[n - g] + p[n - g - k] if g + k <= n else p[n - g]
            acc += t if k & 1 else -t
        p.append(acc)
    return QPoly._of(*_dense(p, 0), order)
