"""q-binomials, q-trinomial coefficients T and their four-parameter refinement.

All results are exact QPoly values.  The q-trinomials, the refined
coefficient and the sums of refinements that the paper's invariance
identities take are evaluated straight from their defining sums on one
positive-sum kernel, ``positive_sum``, with no recurrences; a sum over
cached sides, such as T-invariance's left side, a theta sum or a k-series
side, takes each side as kernel factors.  Cut at a truncation order, with
1/(q)_n as a Gaussian (``_euler_pairs``), the same kernel evaluates every
positive series sum: the fermionic sides of qtrin.fermionic, the string
functions' n-sum and two series sides of qtrin.verify.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb
from typing import Iterable, Sequence

from .qpoly import QPoly, _over_one_minus, _times_one_minus


def _gauss(n: int, a: int, k: int | None = None) -> tuple[int, ...]:
    """Dense coefficients of the Gaussian polynomial [n, a] from q^0 up, all
    of them or the first k; empty unless 0 <= a <= n.

    A cut is built to k rounded up to a power of two (_build), so that one
    pair seen at many cuts shares a few cached builds; a cut whose rounding
    reaches the middle of [n, a] reads the whole polynomial, whose build
    costs no more.
    """
    if a < 0 or n < 0 or a > n:
        return ()
    a = min(a, n - a)  # [n, a] = [n, n-a]
    if k is not None:
        h = 1 << (k - 1).bit_length()
        if 2 * h <= a * (n - a):
            return _build(n, a, h)[:k]
    return _build(n, a, None)[:k]


# At step j the packed path of _build makes about log2(m/j) passes over its
# m slots of w bytes, the list path one pass and one running sum over m
# entries.  Whole builds, packed time over list time, on CPython 3.11
# (2-vCPU x86-64 VM): 0.68 at [100, 50] (h slots of w bytes: 16 KB), 0.75 at
# [120, 60] (27 KB), 1.0 at [150, 75] (53 KB), 1.4 at [200, 100] (125 KB),
# 2.1-2.6 at [1043, 44] (725 KB).
_PACKED_BYTES = 1 << 15


@lru_cache(maxsize=None)
def _build(n: int, a: int, h: int | None) -> tuple[int, ...]:
    """The first h coefficients of [n, a], 0 <= a <= n - a; all of them when
    h is None.

    The product formula [n, a] = prod_{j=1..a} (1 - q^(b+j)) / (1 - q^j),
    b = n - a (Andrews, ch. 3).  After step j it holds [b+j, j], of degree
    jb, so every division is exact.  Both steps are lower-triangular in the
    exponent, so step j works mod q^m, m = min(h, jb + 1).  [n, a] is
    palindromic: uncut, its lower half (h = ab/2 + 1) is built and mirrored.

    Up to _PACKED_BYTES the build is one integer at q = 2^(8w), w bytes
    enough for comb(n, a): the kernel's Kronecker substitution (below;
    Harvey 2009), applied to the Gaussian itself.
    Z[q]/(q^m) -> Z/2^(8wm) is a ring map, and every coefficient of [b+j, j]
    lies in [0, 2^(8w)), so the residue mod 2^(8wm) is the packed quotient.
    Times (1 - q^s) is one shift and subtract; divided by (1 - q^j) is times
    (1 + q^j)(1 + q^(2j))(1 + q^(4j))... below q^m, one shift and add each.
    Above it the build is a list, stepped by qpoly's two list steps, which
    ``product_series`` takes too.
    """
    b = n - a
    whole = h is None
    if whole:
        h = a * b // 2 + 1
    w = _slot_bytes(comb(n, a))
    if h * w <= _PACKED_BYTES:
        slot = 8 * w
        x = 1
        for j in range(1, a + 1):
            m = min(h, j * b + 1)
            mask = (1 << (slot * m)) - 1
            if b + j < m:
                x -= x << (slot * (b + j))
            t = j
            while t < m:
                x = (x + (x << (slot * t))) & mask
                t *= 2
        c = _unpacked(x, h, w)
    else:
        c = [1]
        for j in range(1, a + 1):
            m = min(h, j * b + 1)
            c += [0] * (m - len(c))
            _times_one_minus(c, b + j)
            _over_one_minus(c, j)
    if whole:
        c += c[:a * b + 1 - h][::-1]
    return tuple(c)


def qbinomial(n: int, a: int) -> QPoly:
    """Gaussian polynomial [n, a]; zero unless 0 <= a <= n.  Its coefficients
    are read from the cached build (_build)."""
    return QPoly.from_coeffs(_gauss(n, a))


@lru_cache(maxsize=None)
def qtrinomial2(L: int, a: int) -> QPoly:
    """Round-bracket q-trinomial: sum_k q^{k(k+a)} [L, k] [L-k, k+a], one
    kernel call over _trinomial2_terms."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    return positive_sum(_trinomial2_terms(L, a), 2)


@lru_cache(maxsize=None)
def qtrinomial_T(L: int, a: int) -> QPoly:
    """The T(L, a) q-trinomial (half-integer exponents in general).

    Sum over n from 0 to L-|a| with n+a+L even of q^{n^2/2} (q)_L /
    ((q)_x (q)_y (q)_n), x = (L-a-n)/2, y = (L+a-n)/2; the multinomial is
    [L,n][L-n,x].  One kernel call over _trinomial_terms.
    """
    if L < 0:
        raise ValueError("L must be nonnegative")
    return positive_sum(_trinomial_terms(L, a), 2)


# -- the positive-sum kernel -------------------------------------------
#
# A term (e, factors) of a sum over the exponent denominator d stands for
# q^(e/d) times the product of its factors.  A factor is the key of a cached
# positive coefficient list (_factor): a Gaussian polynomial (n, a), or part
# j of a cached side (side, args, j), a kernel sum kept as its parts, one
# (e, c) per class mod 1 (_parts), such as refined_T (_refined) or a k-series
# side.  A part's c start at its least exponent e, which the caller folds
# into its own (_side_factors).  Every such product, and so every sum of
# them, has nonnegative coefficients, none above its value at q = 1.  The
# kernel sizes its slots by that value (a product of each factor's sum of
# coefficients), which is what makes Kronecker substitution sign-free here.

# unsigned array typecodes by itemsize: the slot widths of one machine word
_WORDS = {array(code).itemsize: code for code in "BHILQ"}
# Slots count from the least significant end of an integer, so in a native
# byte string of a big-endian machine they come last first.
_BIG = sys.byteorder == "big"


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for coefficients up to ``bound``: 1, 2, 4 or 8, or the
    exact byte count above 8."""
    w = (bound.bit_length() + 7) // 8
    return w if w > 8 else 1 << (w - 1).bit_length()


def _factor(f: tuple, k: int | None = None) -> tuple[int, ...]:
    """The coefficients of the kernel factor ``f`` from its least exponent,
    all of them or the first k: of [n, a] for a Gaussian (n, a), read from
    its cut build (_gauss), or of part j of side(*args) for (side, args, j)."""
    if len(f) == 2:
        return _gauss(*f, k)
    side, args, j = f
    return side(*args)[j][1][:k]


def _side_factors(side, args: tuple) -> list[tuple[int, tuple]]:
    """(e, (side, args, j)) for each part j of the cached side side(*args),
    at q^(e/den): its kernel factor and the exponent a caller adds."""
    return [(part[0], (side, args, j)) for j, part in enumerate(side(*args))]


@lru_cache(maxsize=None)
def _packed(f: tuple, w: int, k: int | None = None) -> int:
    """The kernel factor ``f`` at q = 2^(8w): one integer with a w-byte slot
    per coefficient, of its first k coefficients (all when k is None)."""
    c = _factor(f, k)
    code = _WORDS.get(w)
    if code is None:
        return int.from_bytes(b"".join([x.to_bytes(w, "little") for x in c]), "little")
    return int.from_bytes(array(code, c[::-1] if _BIG else c).tobytes(), sys.byteorder)


@lru_cache(maxsize=None)
def _cut_value(f: tuple, k: int | None = None) -> int:
    """The sum of the first k coefficients of the kernel factor ``f``, all of
    them when k is None: the kernel's bound for one factor of a term cut to
    k slots, or of an uncut side's part (an uncut [n, a] sums to comb(n, a))."""
    return sum(_factor(f, k))


def _slots(data: bytes, w: int) -> list[int]:
    """The little-endian w-byte slots of ``data``, in order: one array cast
    for a machine word."""
    code = _WORDS.get(w)
    if code is None:
        return [int.from_bytes(data[i:i + w], "little") for i in range(0, len(data), w)]
    if _BIG:
        words = array(code, data)
        words.byteswap()
        return words.tolist()
    return memoryview(data).cast(code).tolist()


def _unpacked(total: int, size: int, w: int) -> list[int]:
    """The ``size`` w-byte slots of ``total``, least significant first."""
    return _slots(total.to_bytes(size * w, "little"), w)


def positive_sum(terms: Iterable[tuple[int, Sequence[tuple]]],
                 den: int, order: Fraction | int | None = None) -> QPoly:
    """Sum over (e, factors) of q^(e/den) times the product of the kernel
    factors of ``factors``: Gaussians (n, a), 0 <= a <= n, and parts of
    cached sides (side, args, j); with an ``order``, the QSeries of that sum
    below q^order.  Exponents that differ by non-integers are summed one
    class mod 1 at a time.

    Kronecker substitution: q becomes 2^(8w), with w bytes enough for the
    sum's value at q = 1, which bounds every coefficient of the sum and of
    each partial product, so no slot carries into the next.  Each factor is
    one cached integer, each term one big-integer product shifted to its
    slot, and the sum is unpacked once.  Under an order each term keeps only
    its slots below it (see _parts).
    """
    if order is None:
        return _poly(_parts([(e, factors, None) for e, factors in terms], den), den)
    order = Fraction(order)
    num, od = order.numerator * den, order.denominator
    # a term at q^(e/den) keeps its first k = ceil(order - e/den) slots
    return _poly(_parts([(e, factors, k) for e, factors in terms
                         if (k := (num - e * od - 1) // (od * den) + 1) > 0], den),
                 den).truncate(order)


def _parts(terms: list[tuple[int, Sequence[tuple], int | None]],
           den: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """positive_sum of (e, factors, k) terms, each cut to its first k slots
    (whole when k is None), as its parts: one (e, c) per class of exponents
    mod 1, from the least one's up, for q^(e/den) times the polynomial with
    the coefficients c from q^0 up, c[0] and c[-1] nonzero.  A cut term's
    factors and partial products are cut to its k slots, and its bound, the
    product of its cut factors' values at q = 1, bounds every kept coefficient."""
    parts = []
    while terms:
        e0 = terms[0][0]
        bound = 0
        for e, factors, k in terms:
            if e < e0:
                e0 = e
            v = 1
            for f in factors:  # an uncut Gaussian's value needs no cache
                v *= comb(*f) if k is None and len(f) == 2 else _cut_value(f, k)
            bound += v
        w = _slot_bytes(bound)
        slot = 8 * w
        total = 0
        rest = []  # terms of other classes mod 1
        for t in terms:
            e, factors, k = t
            s, part = divmod(e - e0, den)
            if part:
                rest.append(t)
                continue
            p = 1
            if k is None:
                for f in factors:
                    p *= _packed(f, w)
            else:
                top = 0  # the degree of the product so far
                for f in factors:  # the factor's degree over its least exponent
                    d = f[1] * (f[0] - f[1]) if len(f) == 2 else len(_factor(f)) - 1
                    top += d
                    if top < k:
                        p *= _packed(f, w)
                    else:  # cut the factor and the product to k slots
                        p = p * _packed(f, w, k if k <= d else None) & ((1 << (slot * k)) - 1)
                        top = k - 1
            total += p << (slot * s)
        # no slot carries, so the top nonzero slot holds the sum's highest bit
        parts.append((e0, tuple(_unpacked(total, -(-total.bit_length() // slot), w))))
        terms = rest
    return tuple(parts)


def _poly(parts: Sequence[tuple[int, Sequence[int]]], den: int) -> QPoly:
    """The QPoly of a kernel sum's parts (_parts) over the denominator den."""
    polys = [QPoly.from_coeffs(c, _start(e, den)) for e, c in parts]
    return sum(polys[1:], polys[0]) if polys else QPoly.zero()


def _euler_pairs(ns: Iterable[int], order: Fraction) -> tuple[tuple[int, int], ...]:
    """1/((q)_{n_1} (q)_{n_2} ...) as kernel pairs for a sum cut at ``order``
    whose exponents are >= 0.  Below q^(c+1), 1/(q)_n is the Gaussian [n+c,
    n], c = ceil(order) - 1: both count the partitions into at most n parts,
    [n+c, n] only those with parts at most c (Andrews, ch. 3)."""
    c = ceil(order) - 1
    return tuple((n + c, n) for n in ns if n)


@lru_cache(maxsize=None)
def _start(e: int, den: int) -> int | Fraction:
    """The exponent e/den: an int when den divides e, else one cached
    Fraction."""
    return e // den if e % den == 0 else Fraction(e, den)


def _trinomial_terms(L: int, a: int):
    """The defining sum of qtrinomial_T(L, a) as kernel terms over 2."""
    return ((n * n, ((L, n), (L - n, (L - a - n) // 2)))
            for n in range((L + a) % 2, L - abs(a) + 1, 2))


def _trinomial2_terms(L: int, a: int):
    """The defining sum of qtrinomial2(L, a) as kernel terms over 2, k from
    max(0, -a) to (L-a)/2."""
    return ((2 * k * (k + a), ((L, k), (L - k, k + a)))
            for k in range(max(0, -a), (L - a) // 2 + 1))


def _refined_terms(L: int, M: int, a: int, b: int) -> list[tuple[int, tuple]]:
    """The defining sum of refined_T(L, M, a, b) as kernel terms: for n from
    0 to min(L-|a|, M) with n+a+L even, q^{n^2/2} [M, n]
    [M+b+(L-a-n)/2, M+b] [M-b+(L+a-n)/2, M-b].  Every caller keeps
    (a, b) inside the support |a| <= L, |b| <= M."""
    return [(n * n, ((M, n), (M + b + (L - a - n) // 2, M + b),
                     (M - b + (L + a - n) // 2, M - b)))
            for n in range((L + a) % 2, min(L - abs(a), M) + 1, 2)]


def refined_T(L: int, M: int, a: int, b: int) -> QPoly:
    """The refined q-trinomial coefficient with bounds L, M and charges a, b,
    evaluated from its defining sum (_refined_terms) in one packed integer
    (_refined).  It vanishes outside its support |a| <= L, |b| <= M, and
    there the shared zero polynomial is returned before the caches: they
    hold only in-support values, and the kernel is never called outside."""
    if L < 0 or M < 0:
        raise ValueError("L and M must be nonnegative")
    if abs(a) > L or abs(b) > M:
        return QPoly.zero()
    parts = _refined(L, M, a, b)
    return parts[0][2] if parts else QPoly.zero()


@lru_cache(maxsize=None)
def _refined(L: int, M: int, a: int, b: int) -> tuple[tuple[int, tuple[int, ...], QPoly], ...]:
    """refined_T inside its support as a side over 2 of one part (_parts)
    that also holds its QPoly: ((e, c, q^(e/2) times the polynomial with the
    coefficients c from q^0 up),), c[0] nonzero; () when it is zero.  The
    kernel factor (_refined, (L, M, a, b), 0) reads c, and refined_T returns
    the QPoly, which shares it.

    Its terms (_refined_terms) have one shape, three Gaussians, and one
    class mod 1 (n has the parity of L + a), so they are summed here
    straight into one packed integer, with slots sized by the sum's value at
    q = 1 (see positive_sum).  The first term, of the least n, gives the
    least exponent, with the constant term 1 of its Gaussians.
    """
    terms = _refined_terms(L, M, a, b)
    if not terms:
        return ()
    w = _slot_bytes(sum([comb(*f) * comb(*g) * comb(*h) for _, (f, g, h) in terms]))
    slot = 8 * w
    e0 = terms[0][0]
    total = 0
    for e, (f, g, h) in terms:
        total += _packed(f, w) * _packed(g, w) * _packed(h, w) << (slot * ((e - e0) // 2))
    c = tuple(_unpacked(total, -(-total.bit_length() // slot), w))
    return ((e0, c, QPoly.from_coeffs(c, _start(e0, 2))),)


def invariance_sum(L: int, M: int, a: int, b: int) -> QPoly:
    """Left side of T-invariance (Theorem 1): the sum over i from |b| to
    min(L-|a|, M) of q^{i^2/2} [L+M-i, L] refined_T(L-i, i, a, b), one
    kernel call whose terms are a Gaussian times a refinement factor."""
    terms = []
    for i in range(abs(b), min(L - abs(a), M) + 1):
        args = (L - i, i, a, b)
        for e, _, _ in _refined(*args):  # keyed here, saving a _side_factors call per i
            terms.append((i * i + e, ((L + M - i, L), (_refined, args, 0)), None))
    return _poly(_parts(terms, 2), 2)


def refinement_sum(L: int, a: int, b: int, swap: bool) -> QPoly:
    """T(L, a) as a sum of refinements: over i from |b| to L-|a-b| of
    q^{(i^2-b^2)/2} refined_T(L-i, i, a-b, b).  With ``swap`` each refinement
    is refined_T(i, L-i, b, a-b) and the sum is the round-bracket trinomial
    (L, a) instead.  One kernel call over the refinements' defining sums:
    these refinements are seldom shared between points, so expanding them
    costs less than building each as a factor."""
    return positive_sum(
        ((i * i - b * b + e2, pairs)
         for i in range(abs(b), L - abs(a - b) + 1)
         for e2, pairs in _refined_terms(
             *((i, L - i, b, a - b) if swap else (L - i, i, a - b, b)))), 2)
