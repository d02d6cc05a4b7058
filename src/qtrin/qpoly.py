"""Exact Laurent polynomials and truncated power series in q.

Exponents are exact rationals, coefficients arbitrary-precision integers.
Exponents are accepted and returned as ``Fraction`` (or int), but each
object stores one dense coefficient row ``(d, lo, s, c)``: ``c`` is a tuple
and ``c[i]`` the coefficient of q^((lo + i*s)/d).  One type, ``QPoly``,
underpins everything else in the package: its ``order`` is None for an
exact polynomial, and a ``QSeries`` is a ``QPoly`` with a truncation order.

A row is canonical, so equal values have equal rows, and ``==`` and
``hash`` are tuple operations: ``c`` has nonzero ends; ``s`` is the gcd of
the differences between the keys lo + i*s of the nonzero entries, and
``d`` for a single term; gcd(d, lo, s) == 1; zero is (1, 0, 1, ()).  A row
spans the value's exponents on its step, zeros included, so its cost
follows that span and not the number of terms: 1 + q + q^(10^9) would need
a row of 10^9 entries.  No qtrin computation builds such a value; the
Gaussian sums, products and series it makes fill their rows nearly
everywhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, repeat
from math import gcd, lcm
from operator import add, mul
from typing import Union

Exponent = Union[int, Fraction]
Terms = Union[Mapping[Exponent, int], Iterable[tuple[Exponent, int]]]
Row = tuple[int, int, int, tuple[int, ...]]


# -- the row kernel ---------------------------------------------------
#
# Binary routines first put both rows over lcm(d1, d2) and on a common
# step; a truncation order ``cut`` becomes the integer key bound
# ceil(cut * d) once per call.  Only this module builds or walks a row: the
# class below wraps one and calls these routines, a series passing its
# truncation order as ``cut``.

_ZERO_ROW: Row = (1, 0, 1, ())


def _bound(cut: Fraction, d: int) -> int:
    """Least integer k with k/d >= cut."""
    return -(-cut.numerator * d // cut.denominator)


def _canonical(d: int, lo: int, s: int, c: Sequence[int]) -> Row:
    """Canonical row of the value with coefficient c[i] at q^((lo + i*s)/d):
    zero ends cut off, the step widened to the gcd of the nonzero entries'
    offsets, and d, lo, s divided by their gcd."""
    if not c or not c[0] or not c[-1]:
        hi = len(c)
        while hi and not c[hi - 1]:
            hi -= 1
        if not hi:
            return _ZERO_ROW
        i = 0
        while not c[i]:
            i += 1
        c = c[i:hi]
        lo += i * s
    if len(c) == 1:
        s = d
    elif 0 in c:  # every nonzero entry may sit on a wider step
        h = 0
        for i, x in enumerate(c):
            if x:
                h = gcd(h, i)
                if h == 1:
                    break
        if h > 1:
            c = c[::h]
            s *= h
    g = gcd(d, lo, s)
    if g > 1:
        d, lo, s = d // g, lo // g, s // g
    return d, lo, s, c if type(c) is tuple else tuple(c)


def _clean(terms: Terms, cut: Fraction | None = None) -> Row:
    """Row of a mapping or of (exponent, coeff) pairs: repeated exponents
    summed, zero coefficients and exponents >= cut dropped."""
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
    keys = [k for k, c in m.items() if c]
    if not keys:
        return _ZERO_ROW
    lo = min(keys)
    s = gcd(*[k - lo for k in keys]) or d
    c = [0] * ((max(keys) - lo) // s + 1)
    for k in keys:
        c[(k - lo) // s] = m[k]
    return _canonical(d, lo, s, c)


def _below(row: Row, cut: Fraction) -> Row:
    """The row's entries below q^cut: a slice."""
    d, lo, s, c = row
    n = (_bound(cut, d) - lo + s - 1) // s  # the entries with key < bound
    if n >= len(c):
        return row
    return _canonical(d, lo, s, c[:n]) if n > 0 else _ZERO_ROW


def _common(a: Row, b: Row) -> tuple:
    """Both rows over lcm(d1, d2): d, then each row's lo, step and entries."""
    da, la, sa, ca = a
    db, lb, sb, cb = b
    if da == db:
        return da, la, sa, ca, lb, sb, cb
    d = lcm(da, db)
    fa, fb = d // da, d // db
    return d, la * fa, sa * fa, ca, lb * fb, sb * fb, cb


def _add(a: Row, b: Row) -> Row:
    if not a[3]:
        return b
    if not b[3]:
        return a
    d, la, sa, ca, lb, sb, cb = _common(a, b)
    # the common step; a single term's own step constrains nothing
    g = gcd(sa if len(ca) > 1 else 0, sb if len(cb) > 1 else 0, lb - la)
    if not g:  # two single terms on one key
        return _canonical(d, la, d, (ca[0] + cb[0],))
    ra = sa // g if len(ca) > 1 else 1
    rb = sb // g if len(cb) > 1 else 1
    lo = min(la, lb)
    ia, ib = (la - lo) // g, (lb - lo) // g
    ea, eb = ia + (len(ca) - 1) * ra + 1, ib + (len(cb) - 1) * rb + 1
    acc = [0] * max(ea, eb)
    acc[ia:ea:ra] = ca
    acc[ib:eb:rb] = map(add, acc[ib:eb:rb], cb)
    return _canonical(d, lo, g, acc)


def _scale(row: Row, n: int) -> Row:
    d, lo, s, c = row
    return (d, lo, s, tuple(map(mul, c, repeat(n)))) if n else _ZERO_ROW


def _shift(row: Row, r: Exponent) -> Row:
    d, lo, s, c = row
    if not c:
        return row
    if r.denominator == 1:
        # gcd(d, lo + r*d, s) == gcd(d, lo, s): the row stays canonical
        return d, lo + r.numerator * d, s, c
    e = lcm(d, r.denominator)
    f = e // d
    lo, s = lo * f + r.numerator * (e // r.denominator), s * f
    g = gcd(e, lo, s)
    return e // g, lo // g, s // g, c


def _mul(a: Row, b: Row, cut: Fraction | None = None) -> Row:
    """Product of two rows, below q^cut when a cut is given: for each
    nonzero entry of the shorter row, one C-level pass adds its multiple of
    the other row, spread onto the common step, into the accumulator."""
    if not a[3] or not b[3]:
        return _ZERO_ROW
    d, la, sa, ca, lb, sb, cb = _common(a, b)
    if len(ca) > len(cb):
        la, sa, ca, lb, sb, cb = lb, sb, cb, la, sa, ca
    g = gcd(sa if len(ca) > 1 else 0, sb if len(cb) > 1 else 0) or d
    ra = sa // g if len(ca) > 1 else 0
    rb = sb // g if len(cb) > 1 else 1
    if rb > 1:
        row = [0] * ((len(cb) - 1) * rb + 1)
        row[::rb] = cb
    else:
        row = cb
    lo = la + lb
    w = len(row)
    n = (len(ca) - 1) * ra + w
    if cut is not None:
        n = min(n, (_bound(cut, d) - lo + g - 1) // g)
        if n <= 0:
            return _ZERO_ROW
    acc = [0] * n
    for i, x in enumerate(ca):
        if x:
            o = i * ra
            if o >= n:
                break
            acc[o:o + w] = map(add, acc[o:o + w], map(mul, row, repeat(x)))
    return _canonical(d, lo, g, acc)


def _coeff(row: Row, e: Exponent) -> int:
    d, lo, s, c = row
    if type(e) is int:
        k = e * d
    else:
        e = Fraction(e)
        f, r = divmod(d, e.denominator)
        if r:
            return 0
        k = e.numerator * f
    i, r = divmod(k - lo, s)
    return c[i] if not r and 0 <= i < len(c) else 0


def _format(row: Row) -> str:
    """Canonical text, in one pass over the row: each term as a sign and its
    body (``c``, ``q^e``, ``c*q^e``, with ``q`` for q^1 and ``q^(p/r)`` for
    a fraction in lowest terms).  Every term gets a `` + `` or `` - ``, and
    the first one's is cut once at the end."""
    d, lo, s, c = row
    if not c:
        return "0"
    out = []
    append = out.append
    k = lo - s
    for x in c:
        k += s
        if not x:
            continue
        if x > 0:
            sign = " + "
        else:
            sign, x = " - ", -x
        if d == 1:
            e = k
        elif k % d == 0:
            e = k // d
        else:
            g = gcd(k, d)
            e = f"({k // g}/{d // g})"
        if e == 0:
            append(f"{sign}{x}")
        elif x == 1:
            append(f"{sign}q" if e == 1 else f"{sign}q^{e}")
        else:
            append(f"{sign}{x}*q" if e == 1 else f"{sign}{x}*q^{e}")
    text = "".join(out)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _product_order(x: "QPoly", y: "QPoly") -> Fraction:
    """Truncation order of x*y, one factor a series: the lesser order, and
    below it where a series' unknown terms, at its order and above, meet the
    other factor's least term, known or unknown (a series' unknown terms
    start at its order).  Only a negative least term reaches below the
    lesser order."""
    out = x.order if y.order is None else y.order if x.order is None else min(x.order, y.order)
    for u, t in ((x, y), (y, x)):
        if u.order is None:
            continue
        _, lo, _, c = t._row
        if c and lo < 0:
            out = min(out, u.order + t.min_exponent())
        elif not c and t.order is not None and t.order < 0:
            out = min(out, u.order + t.order)
    return out


class QPoly:
    """Polynomial in q with rational exponents and integer coefficients.

    Immutable by convention: no public method mutates the row.  The
    constructor takes a mapping or an iterable of (exponent, coeff) pairs;
    repeated exponents are summed and zero coefficients dropped.

    ``order`` is None for an exact polynomial; a ``QSeries`` is the same
    row with a truncation order.  A sum carries the lesser order of its
    operands, a polynomial counting as exact; a product, the order below
    which every term is known (``_product_order``).
    """

    __slots__ = ("_row",)
    order: Fraction | None = None

    def __init__(self, terms: Terms | None = None):
        self._row = _clean(terms or ())

    @staticmethod
    def _of(row: Row, order: Fraction | None = None) -> "QPoly":
        if order is None:
            out = QPoly.__new__(QPoly)
        else:
            out = QSeries.__new__(QSeries)
            out.order = order
        out._row = row
        return out

    def _at(self, order: Fraction | None) -> Row:
        """Row cut at ``order``: None only for a polynomial, otherwise at
        most a series' own order."""
        if order == self.order:
            return self._row
        return _below(self._row, order)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "QPoly":
        """The zero polynomial: one shared instance, as nothing mutates a
        row in place."""
        return _ZERO

    @staticmethod
    def one() -> "QPoly":
        return QPoly._of((1, 0, 1, (1,)))

    @staticmethod
    def from_coeffs(coeffs: Iterable[int], start: Exponent = 0) -> "QPoly":
        """Dense constructor: coefficient i belongs to q^(start + i).  A
        list or tuple becomes the row as it is, with no copy of the terms
        but the one into a tuple."""
        if not isinstance(start, (int, Fraction)):
            start = Fraction(start)
        d = start.denominator
        if not isinstance(coeffs, (list, tuple)):
            coeffs = list(coeffs)
        return QPoly._of(_canonical(d, start.numerator, d, coeffs))

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.order, other.order  # the lesser; None is exact
        order = b if a is None else a if b is None else min(a, b)
        return QPoly._of(_add(self._at(order), other._at(order)), order)

    def __neg__(self) -> "QPoly":
        return QPoly._of(_scale(self._row, -1), self.order)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            return QPoly._of(_scale(self._row, other), self.order)
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self._row, other._row
        if self.order is None and other.order is None:
            return QPoly._of(_mul(a, b))
        order = _product_order(self, other)
        # A polynomial factor is cut where its terms times the series
        # factor's least term reach the order; _mul cuts the products.
        if self.order is None:
            a = self._at(order - (other.min_exponent() or 0))
        if other.order is None:
            b = other._at(order - (self.min_exponent() or 0))
        return QPoly._of(_mul(a, b, order), order)

    __rmul__ = __mul__

    # -- structural operations ----------------------------------------

    def substitute_qinv(self) -> "QPoly":
        """Replace q by 1/q: every exponent e becomes -e, and the row is
        reversed.  A polynomial only: a series' unknown terms would land
        below its known ones."""
        if self.order is not None:
            raise ValueError("q -> 1/q needs a polynomial, not a truncated series")
        d, lo, s, c = self._row
        if not c:
            return self
        return QPoly._of((d, -lo - (len(c) - 1) * s, s, c[::-1]))

    def shift(self, r: Exponent) -> "QPoly":
        """Multiply by q^r, sharing the row's coefficients; a truncation
        order shifts along."""
        if not isinstance(r, (int, Fraction)):
            r = Fraction(r)
        if self.order is None:
            return QPoly._of(_shift(self._row, r)) if self._row[3] else self
        return QPoly._of(_shift(self._row, r), self.order + r)

    def coeff(self, e: Exponent) -> int:
        return _coeff(self._row, e)

    def min_exponent(self) -> Fraction | None:
        d, lo, _, c = self._row
        return Fraction(lo, d) if c else None

    def truncate(self, order: Exponent) -> "QSeries":
        """The series of this value below ``order``, which may not exceed
        a series' own order."""
        order = Fraction(order)
        if self.order is not None and order > self.order:
            raise ValueError(f"cannot extend truncation order {self.order} to {order}")
        return QPoly._of(self._at(order), order)

    # -- comparison / display -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.order == other.order and self._row == other._row

    def __hash__(self) -> int:
        return hash(self._row)

    def __len__(self) -> int:
        """Number of nonzero terms (below the truncation order)."""
        c = self._row[3]
        return len(c) - c.count(0) if c else 0

    def __str__(self) -> str:
        if self.order is None:
            return _format(self._row)
        return f"{_format(self._row)} + O(q^{self.order})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


_ZERO = QPoly._of(_ZERO_ROW)


class QSeries(QPoly):
    """Truncated power series: a ``QPoly`` whose stored exponents are all
    strictly below ``order`` (a Fraction)."""

    __slots__ = ("order",)

    def __init__(self, terms: Terms | None, order: Exponent):
        self.order = Fraction(order)
        self._row = _clean(terms or (), self.order)

    @staticmethod
    def zero(order: Exponent) -> "QSeries":
        return QPoly._of(_ZERO_ROW, Fraction(order))


def _times_one_minus(c: list[int], j: int) -> None:
    """c times (1 - q^j), mod q^len(c), in place."""
    c[j:] = [x - y for x, y in zip(c[j:], c)]


def _over_one_minus(c: list[int], j: int) -> None:
    """c divided by (1 - q^j), mod q^len(c), in place: a running sum per
    residue mod j while j^2 < len(c), else one block of j at a time."""
    if j * j < len(c):
        for r in range(j):
            c[r::j] = accumulate(c[r::j])
    else:
        for i in range(j, len(c), j):
            c[i:i + j] = map(add, c[i:i + j], c[i - j:i])


def product_series(up: Iterable[int], down: Iterable[int], order: Exponent,
                   start: QPoly | None = None) -> QSeries:
    """``start`` (1 when None) times prod_{j in up} (1 - q^j) over
    prod_{j in down} (1 - q^j) below q^order, for integers j >= 1: one int
    list of the start's entries below the order, on the step 1/d of its
    exponents, multiplied and divided in place.  A start known below a
    lesser order cuts the product there."""
    up, down = tuple(up), tuple(down)
    if any(not isinstance(j, int) or j < 1 for j in up + down):
        raise ValueError("a factor (1 - q^j) needs an integer j >= 1")
    order = Fraction(order)
    if start is None:
        start = QPoly.one()
    elif start.order is not None:
        order = min(order, start.order)
    d, lo, s, c = start._row
    n = _bound(order, d) - lo  # the entries from q^(lo/d) up
    if n <= 0:
        return QSeries.zero(order)
    x = [0] * n
    c = c[:(n - 1) // s + 1]
    x[:len(c) * s:s] = c
    for j in up:
        _times_one_minus(x, j * d)
    for j in down:
        _over_one_minus(x, j * d)
    return QPoly._of(_canonical(d, lo, 1, x), order)


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
    return QPoly._of(_canonical(1, 0, 1, p), order)
