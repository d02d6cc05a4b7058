"""Exact sparse Laurent polynomials and truncated power series in q.

Exponents are exact rationals (Fraction), coefficients arbitrary-precision
integers.  These two types underpin everything else in the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Exponent = Union[int, Fraction]


class NonUnitConstantTerm(Exception):
    """Series inversion requires a constant term of +1 or -1."""


def _fmt_term(exp: Fraction, coeff: int, first: bool) -> str:
    c = abs(coeff)
    if exp == 0:
        body = str(c)
    else:
        if exp == 1:
            qpart = "q"
        elif exp.denominator == 1:
            qpart = f"q^{exp.numerator}"
        else:
            qpart = f"q^({exp.numerator}/{exp.denominator})"
        body = qpart if c == 1 else f"{c}*{qpart}"
    if first:
        return body if coeff > 0 else f"-{body}"
    return (" + " if coeff > 0 else " - ") + body


class QPoly:
    """Sparse polynomial in q with rational exponents and integer coefficients.

    Immutable by convention: no public method mutates ``terms``.  Zero
    coefficients are never stored; the zero polynomial has an empty map.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, int] | None = None):
        clean: dict[Fraction, int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    f = Fraction(e)
                    clean[f] = clean.get(f, 0) + c
                    if clean[f] == 0:
                        del clean[f]
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "QPoly":
        return QPoly()

    @staticmethod
    def one() -> "QPoly":
        return QPoly({Fraction(0): 1})

    @staticmethod
    def q_power(e: Exponent, coeff: int = 1) -> "QPoly":
        return QPoly({Fraction(e): coeff})

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        out = QPoly.__new__(QPoly)
        out.terms = terms
        return out

    def __neg__(self) -> "QPoly":
        out = QPoly.__new__(QPoly)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if isinstance(other, int):
            return QPoly({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        acc: dict[Fraction, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = acc.get(e, 0) + ca * cb
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        out = QPoly.__new__(QPoly)
        out.terms = acc
        return out

    __rmul__ = __mul__

    # -- structural operations ----------------------------------------

    def substitute_qinv(self) -> "QPoly":
        """Replace q by 1/q: every exponent e becomes -e."""
        out = QPoly.__new__(QPoly)
        out.terms = {-e: c for e, c in self.terms.items()}
        return out

    def shift(self, r: Exponent) -> "QPoly":
        """Multiply by q^r."""
        r = Fraction(r)
        out = QPoly.__new__(QPoly)
        out.terms = {e + r: c for e, c in self.terms.items()}
        return out

    def eval_q1(self) -> int:
        """Sum of all coefficients (the q -> 1 specialization)."""
        return sum(self.terms.values())

    def coeff(self, e: Exponent) -> int:
        return self.terms.get(Fraction(e), 0)

    def min_exponent(self) -> Fraction | None:
        return min(self.terms) if self.terms else None

    def max_exponent(self) -> Fraction | None:
        return max(self.terms) if self.terms else None

    def is_zero(self) -> bool:
        return not self.terms

    def to_series(self, order: Exponent) -> "QSeries":
        order = Fraction(order)
        return QSeries({e: c for e, c in self.terms.items() if e < order}, order)

    # -- comparison / display -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, e in enumerate(sorted(self.terms)):
            parts.append(_fmt_term(e, self.terms[e], i == 0))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"QPoly({self})"


class QSeries:
    """Truncated power series: same term map plus a truncation order.

    All stored exponents are strictly below ``order``.  Binary operations
    carry order = min of the operand orders.
    """

    __slots__ = ("terms", "order")

    def __init__(self, terms: Mapping[Exponent, int] | None, order: Exponent):
        self.order = Fraction(order)
        clean: dict[Fraction, int] = {}
        if terms:
            for e, c in terms.items():
                f = Fraction(e)
                if c and f < self.order:
                    clean[f] = clean.get(f, 0) + c
                    if clean[f] == 0:
                        del clean[f]
        self.terms = clean

    @staticmethod
    def one(order: Exponent) -> "QSeries":
        return QSeries({0: 1}, order)

    @staticmethod
    def zero(order: Exponent) -> "QSeries":
        return QSeries({}, order)

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return QSeries(terms, order)

    def __neg__(self) -> "QSeries":
        return QSeries({e: -c for e, c in self.terms.items()}, self.order)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other: "QSeries | QPoly | int") -> "QSeries":
        if isinstance(other, int):
            return QSeries({e: c * other for e, c in self.terms.items()}, self.order)
        if isinstance(other, QPoly):
            other = other.to_series(self.order)
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        acc: dict[Fraction, int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = ea + eb
                if e >= order:
                    continue
                s = acc.get(e, 0) + ca * cb
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        return QSeries(acc, order)

    __rmul__ = __mul__

    def shift(self, r: Exponent) -> "QSeries":
        """Multiply by q^r; the truncation order shifts along."""
        r = Fraction(r)
        return QSeries({e + r: c for e, c in self.terms.items()}, self.order + r)

    def truncate(self, order: Exponent) -> "QSeries":
        order = Fraction(order)
        if order > self.order:
            raise ValueError(f"cannot extend truncation order {self.order} to {order}")
        return QSeries(self.terms, order)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse up to the truncation order.

        Requires constant term +1 or -1; Newton-free direct recursion on
        sorted exponents.
        """
        c0 = self.terms.get(Fraction(0), 0)
        if c0 not in (1, -1):
            raise NonUnitConstantTerm(
                f"constant term is {c0}, need +1 or -1 for series inversion"
            )
        # t solves s*t = 1: process target exponents in increasing order.
        src = sorted((e, c) for e, c in self.terms.items() if e != 0)
        inv: dict[Fraction, int] = {Fraction(0): c0}
        # Exponents of the inverse live in the additive monoid generated by
        # the exponents of s; build them breadth-first below the order.
        frontier = [Fraction(0)]
        seen = {Fraction(0)}
        while frontier:
            nxt = []
            for e in frontier:
                for es, _ in src:
                    f = e + es
                    if f < self.order and f not in seen:
                        seen.add(f)
                        nxt.append(f)
            frontier = nxt
        for e in sorted(seen - {Fraction(0)}):
            acc = 0
            for es, cs in src:
                acc += cs * inv.get(e - es, 0)
            # coefficient of q^e in s*t must vanish: c0*t_e + acc = 0
            t_e = -acc * c0  # c0 in {1,-1} so 1/c0 == c0
            if t_e:
                inv[e] = t_e
        return QSeries(inv, self.order)

    def coeff(self, e: Exponent) -> int:
        return self.terms.get(Fraction(e), 0)

    def min_exponent(self) -> Fraction | None:
        return min(self.terms) if self.terms else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.order, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            body = "0"
        else:
            body = "".join(
                _fmt_term(e, self.terms[e], i == 0)
                for i, e in enumerate(sorted(self.terms))
            )
        return f"{body} + O(q^{self.order})"

    def __repr__(self) -> str:
        return f"QSeries({self})"


class DivergentProduct(Exception):
    """Infinite Pochhammer product whose terms do not converge under truncation."""


def pochhammer(
    a_exponent: Exponent,
    a_sign: int,
    step: Exponent,
    n: int | None,
    order: Exponent,
) -> QSeries:
    """Truncated (sign * q^a ; q^step)_n = prod_j (1 - sign * q^(a + j*step)).

    ``n=None`` means the infinite product; it then requires step > 0 and
    a_exponent > 0 so that all but finitely many factors are 1 below the
    truncation order.
    """
    a = Fraction(a_exponent)
    step = Fraction(step)
    order = Fraction(order)
    if a_sign not in (1, -1):
        raise ValueError("a_sign must be +1 or -1")
    result = QSeries.one(order)
    if n is None:
        if step <= 0 or a <= 0:
            raise DivergentProduct(
                "infinite product needs step > 0 and a_exponent > 0"
            )
        j = 0
        while a + j * step < order:
            result = result * QSeries({0: 1, a + j * step: -a_sign}, order)
            j += 1
        return result
    if n < 0:
        raise ValueError("finite Pochhammer length must be nonnegative")
    for j in range(n):
        result = result * QSeries({0: 1, a + j * step: -a_sign}, order)
    return result


def pochhammer_multi(
    exponents: Iterable[Exponent], step: Exponent, order: Exponent
) -> QSeries:
    """(q^a1, q^a2, ...; q^step)_infinity, truncated."""
    result = QSeries.one(order)
    for a in exponents:
        result = result * pochhammer(a, 1, step, None, order)
    return result


def euler_inverse(order: Exponent) -> QSeries:
    """1/(q;q)_infinity, the partition generating function, truncated."""
    return pochhammer(1, 1, 1, None, order).inverse()
