import hashlib
import math
from fractions import Fraction
from itertools import product
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Poly, symbols

from qcomb_reference import (abp_lhs_reference, con10_lhs_reference,
                             invariance_sum_reference, mtlim_product_reference,
                             positive_sum_reference,
                             qtrinomial2_reference, qtrinomial_T_reference,
                             refined_T_reference, refinement_sum_reference)
from qpoly_reference import inverse, mul, parse, pochhammer
from qtrin import qcomb, verify
from qtrin.qpoly import QPoly
from qtrin.qcomb import (_gauss, _slot_bytes, invariance_sum, positive_sum,
                         qbinomial, qtrinomial2, qtrinomial_T, refined_T,
                         refinement_sum)


def _qbin_oracle(n, a):
    """(q)_n / ((q)_a (q)_{n-a}) via exact series division in the reference
    term maps, below q^(a(n-a) + 1), which holds the whole quotient."""
    if a < 0 or a > n:
        return QPoly.zero()
    order = a * (n - a) + 1
    den = mul(pochhammer(1, 1, 1, a, order), pochhammer(1, 1, 1, n - a, order), order)
    return QPoly(mul(pochhammer(1, 1, 1, n, order), inverse(den, order), order))


def test_qbinomial_against_factorial_formula():
    for n in range(9):
        for a in range(n + 1):
            assert qbinomial(n, a) == _qbin_oracle(n, a)


def _qpascal_rows(nmax, kmax):
    """Rows m = 0..nmax of the q-Pascal triangle, built row by row: row m
    holds [m, k] for k <= min(m, kmax) as coefficient lists, from row m-1 by
    the rule [m, k] = [m-1, k-1] + q^k [m-1, k], which shares nothing with
    the product formula qbinomial uses."""
    row = [[1]]
    yield 0, row
    for m in range(1, nmax + 1):
        nxt = [[1]]
        for k in range(1, min(m, kmax) + 1):
            if k == m:
                nxt.append([1])
                continue
            left, right = row[k - 1], row[k]
            coeffs = left + [0] * (k * (m - k) + 1 - len(left))
            coeffs[k:k + len(right)] = map(add, coeffs[k:k + len(right)], right)
            nxt.append(coeffs)
        row = nxt
        yield m, row


@pytest.fixture(params=["packed", "list"])
def build_path(request, monkeypatch):
    """Every Gaussian built on one path of qcomb._build, whatever its size:
    one packed integer, or a list."""
    limit = math.inf if request.param == "packed" else 0
    monkeypatch.setattr(qcomb, "_PACKED_BYTES", limit)
    qcomb._build.cache_clear()
    yield request.param
    qcomb._build.cache_clear()


def test_qbinomial_against_q_pascal():
    # every a up to n = 30; a = n // 2 and a = 3 up to n = 72, so the build
    # packs at every slot width: comb(n, n // 2) takes 1, 2, 4 and 8 bytes
    # (the array paths) and, from n = 68 (comb(72, 36) is about 2^68.7), 9
    # bytes (the exact-byte path)
    widths = set()
    for n, row in _qpascal_rows(72, 36):
        for a in range(n + 1) if n <= 30 else (3, n // 2):
            assert _gauss(n, a) == tuple(row[a]), (n, a)
            if n <= 30:
                assert qbinomial(n, a) == QPoly(enumerate(row[a])), (n, a)
        widths.add(_slot_bytes(math.comb(n, n // 2)))
    assert widths == {1, 2, 4, 8, 9}


def test_qbinomial_on_each_side_of_the_packed_size():
    # the half of [175, 30] that _build makes is packed, that of [176, 30]
    # (15 more slots of 15 bytes) is a list
    size = {n: (30 * (n - 30) // 2 + 1) * _slot_bytes(math.comb(n, 30)) for n in (175, 176)}
    assert size[175] <= qcomb._PACKED_BYTES < size[176]
    qcomb._build.cache_clear()
    for n, row in _qpascal_rows(176, 30):
        if n in size:
            assert _gauss(n, 30) == tuple(row[30]), n
            assert sum(parse(str(qbinomial(n, 30))).values()) == math.comb(n, 30)


def test_cut_builds_are_prefixes_of_the_whole(build_path):
    # k from 1 to ab + 2 crosses the rounding of a cut up to a power of two
    # and the middle of [n, a], from where the whole polynomial, checked
    # here too, is read
    for n, row in _qpascal_rows(40, 40):
        for a in range(n + 1):
            whole = tuple(row[a])
            for k in range(1, a * (n - a) + 3):
                assert _gauss(n, a, k) == whole[:k], (n, a, k)


def _at_most_parts(n, c):
    """The number of partitions of m into at most n parts, m = 0..c: by
    conjugation, into parts of size at most n, which join one at a time."""
    p = [1] + [0] * c
    for part in range(1, n + 1):
        for m in range(part, c + 1):
            p[m] += p[m - part]
    return p


def test_gaussian_prefix_counts_partitions():
    # below q^(c+1), [n+c, n] is 1/(q)_n: both count the partitions of m into
    # at most n parts, the rule _euler_pairs rests on
    for n in range(31):
        for c in range(31):
            got = _gauss(n + c, n, c + 1)
            assert got + (0,) * (c + 1 - len(got)) == tuple(_at_most_parts(n, c)), (n, c)
            if n:
                assert qcomb._euler_pairs((n,), Fraction(c + 1)) == ((n + c, n),)


@st.composite
def _gauss_args(draw):
    n = draw(st.integers(0, 120))
    a = draw(st.integers(0, n))
    return n, a, draw(st.integers(1, a * (n - a) + 2))


@settings(deadline=None)
@given(_gauss_args())
def test_gauss_palindromic_counting_and_cut(args):
    n, a, k = args
    whole = _gauss(n, a)
    assert whole == whole[::-1]
    assert sum(whole) == math.comb(n, a)
    assert _gauss(n, a, k) == whole[:k]


def test_qbinomial_against_sympy_division():
    q = symbols("q")

    def qfac(k):
        return math.prod([Poly(1 - q**i, q) for i in range(1, k + 1)], start=Poly(1, q))

    for n, a in ((7, 3), (12, 5), (19, 9), (24, 1), (30, 14), (30, 30)):
        quot, rem = qfac(n).div(qfac(a) * qfac(n - a))
        assert rem.is_zero
        expect = QPoly(enumerate(int(c) for c in reversed(quot.all_coeffs())))
        assert qbinomial(n, a) == expect, (n, a)


def test_qbinomial_large_case_shape():
    n, a = 79, 38
    p = qbinomial(n, a)
    coeffs = [p.coeff(k) for k in range(a * (n - a) + 1)]
    assert p == QPoly(enumerate(coeffs))  # degree a(n-a), nothing below 0
    assert coeffs[0] == coeffs[-1] == 1
    assert coeffs == coeffs[::-1]
    assert sum(parse(str(p)).values()) == math.comb(n, a)


def test_qbinomial_edge_cases():
    assert qbinomial(5, -1) == QPoly.zero()
    assert qbinomial(3, 4) == QPoly.zero()
    assert qbinomial(0, 0) == QPoly.one()
    assert str(qbinomial(4, 2)) == "1 + q + 2*q^2 + q^3 + q^4"


@given(st.integers(0, 10), st.integers(0, 10))
def test_qbinomial_symmetry_and_counting(n, a):
    assert qbinomial(n, a) == qbinomial(n, n - a if a <= n else -1)
    if 0 <= a <= n:
        assert sum(parse(str(qbinomial(n, a))).values()) == math.comb(n, a)


def test_trinomial_counting_at_q1():
    # (1+x+x^2)^L expanded: coefficient of x^{L+a}
    for L in range(7):
        coeffs = [1]
        for _ in range(L):
            nxt = [0] * (len(coeffs) + 2)
            for i, c in enumerate(coeffs):
                nxt[i] += c
                nxt[i + 1] += c
                nxt[i + 2] += c
            coeffs = nxt
        for a in range(-L, L + 1):
            assert sum(parse(str(qtrinomial2(L, a))).values()) == coeffs[L + a]
            assert sum(parse(str(qtrinomial_T(L, a))).values()) == coeffs[L + a]


@given(st.integers(0, 8), st.integers(-8, 8))
def test_trinomial_negation_symmetry(L, a):
    assert qtrinomial2(L, a) == qtrinomial2(L, -a)
    assert qtrinomial_T(L, a) == qtrinomial_T(L, -a)


def test_T_two_routes_agree():
    # T(L,a) = q^{(L-a)(L+a)/2} times the round-bracket trinomial at 1/q
    for L in range(8):
        for a in range(-L, L + 1):
            dual = qtrinomial2(L, a).substitute_qinv().shift(
                Fraction((L - a) * (L + a), 2))
            assert qtrinomial_T(L, a) == dual


def test_T_worked_value():
    assert str(qtrinomial_T(4, 2)) == "1 + q + 2*q^2 + 2*q^3 + 2*q^4 + q^5 + q^6"


def test_refined_vanishes_outside_support():
    assert refined_T(3, 3, 4, 0) == QPoly.zero()
    assert refined_T(3, 3, 0, 4) == QPoly.zero()
    assert refined_T(2, 5, -3, 1) == QPoly.zero()


@settings(max_examples=60)
@given(st.integers(0, 6), st.integers(0, 6),
       st.integers(-3, 3), st.integers(-3, 3))
def test_refined_duality(L, M, a, b):
    t = refined_T(L, M, a, b)
    assert t.substitute_qinv() == t.shift(a * b - M * L)


@settings(max_examples=60)
@given(st.integers(0, 6), st.integers(0, 6),
       st.integers(-3, 3), st.integers(-3, 3))
def test_refined_sign_symmetry(L, M, a, b):
    assert refined_T(L, M, a, b) == refined_T(L, M, -a, -b)


def test_refined_small_values():
    # via the defining sum, worked by hand
    assert refined_T(0, 0, 0, 0) == QPoly.one()
    assert str(refined_T(2, 2, 0, 2)) == "1 + q + 2*q^2 + q^3 + q^4"
    assert str(refined_T(3, 1, 2, 0).shift(Fraction(-1, 2))) == "1 + q + q^2"


def test_refined_at_the_support_edge_against_reference(monkeypatch):
    # |a| = L, |b| = M is the last point of the support, one past it the
    # refinement is zero, and there the kernel is never called; the box
    # |a| <= L + 2, |b| <= M + 2 at L, M <= 5 crosses each side of the
    # support test, which refined_T makes before its check of the bounds
    pairs = [(L, M) for L in range(11) for M in range(11)]
    edge = [(L, M, sa * x, sb * y) for L, M in pairs
            for x in (L, L + 1) for y in (M, M + 1) for sa in (1, -1) for sb in (1, -1)]
    edge += [(L, M, a, b) for L in range(6) for M in range(6)
             for a in range(-L - 2, L + 3) for b in range(-M - 2, M + 3)]
    for args in edge:
        assert refined_T(*args) == refined_T_reference(*args)

    def refuse(*args):
        raise AssertionError("kernel called outside the support")
    # _refined packs its Gaussians and unpacks its sum; outside the support
    # the shared zero comes before its cache, which gains no entry
    monkeypatch.setattr(qcomb, "_packed", refuse)
    monkeypatch.setattr(qcomb, "_unpacked", refuse)
    qcomb._refined.cache_clear()
    for L, M, a, b in edge:
        if abs(a) > L or abs(b) > M:
            assert refined_T(L, M, a, b) is QPoly.zero()
    assert qcomb._refined.cache_info().currsize == 0


@st.composite
def _refined_args(draw):
    L = draw(st.integers(0, 10))
    M = draw(st.integers(0, 10))
    charge = st.integers(-L - 2, L + 2)
    return L, M, draw(charge), draw(charge)


@settings(max_examples=300)
@given(_refined_args())
def test_refined_against_reference_sum(args):
    assert refined_T(*args) == refined_T_reference(*args)


def test_refined_wide_coefficients_against_reference():
    t = refined_T(40, 38, 2, -3)
    assert max(parse(str(t)).values()).bit_length() == 109
    assert t == refined_T_reference(40, 38, 2, -3)


@pytest.mark.parametrize("args, at_1, top", [
    # the value at q = 1, which sets the slot width, at 2^8 - 1 and 2^8
    ((3, 9, 0, 9), 255, 17),
    ((4, 4, 1, 1), 256, 38),
    # the largest coefficient at 2^8 - 1, 2^8 and 2^16
    ((3, 29, 1, 17), 9555, 2**8 - 1),
    ((3, 19, 1, 3), 6426, 2**8),
    ((8, 28, 5, 22), 2832984, 2**16),
])
def test_refined_near_slot_boundaries_against_reference(args, at_1, top):
    t = refined_T(*args)
    assert (sum(parse(str(t)).values()), max(parse(str(t)).values())) == (at_1, top)
    assert t == refined_T_reference(*args)


def _dense_sum(summands):
    out = []
    for s, factors in summands:
        prod = [1]
        for f in factors:
            nxt = [0] * (len(prod) + len(f) - 1)
            for i, x in enumerate(prod):
                for j, y in enumerate(f):
                    nxt[i + j] += x * y
            prod = nxt
        out += [0] * (s + len(prod) - len(out))
        for i, c in enumerate(prod):
            out[s + i] += c
    return out


@pytest.mark.parametrize("x, y", [(15, 17), (16, 16), (255, 257), (256, 256)])
def test_packed_sum_slot_width_boundaries(x, y):
    # The kernel sizes its slots by the sum's value at q = 1, here x*y:
    # 2^8 - 1, 2^8, 2^16 - 1 or 2^16.  [x, 1][y, 1] spreads that value over
    # x + y - 1 slots; x*y copies of q^(1/2) [1, 1] put all of it in one.
    spread = [(0, ((x, 1), (y, 1)))]
    expect = _dense_sum([(0, [(1,) * x, (1,) * y])])
    assert sum(expect) == x * y and max(expect) == min(x, y)
    assert positive_sum(spread, 2) == QPoly.from_coeffs(expect)
    heap = [(1, ((1, 1),))] * (x * y)
    expect = _dense_sum([(0, [(1,)])] * (x * y))
    assert max(expect) == x * y
    assert positive_sum(heap, 2) == QPoly.from_coeffs(expect, Fraction(1, 2))


@pytest.mark.parametrize("args, width", [
    ((3, 3), 1), ((3, 6), 2), ((6, 21), 4), ((15, 33), 8), ((26, 26), 10)])
def test_refined_at_each_slot_width_against_reference(args, width):
    t = refined_T(*args, 0, 0)
    assert _slot_bytes(sum(parse(str(t)).values())) == width
    assert t == refined_T_reference(*args, 0, 0)


def test_refined_rejects_negative_bounds():
    # a negative bound is refused at every charge, in the support test's
    # box and outside it
    for L, M in product(range(-3, 4), repeat=2):
        if L >= 0 and M >= 0:
            continue
        for a, b in product(range(-3, 4), repeat=2):
            with pytest.raises(ValueError, match="L and M must be nonnegative"):
                refined_T(L, M, a, b)


def test_positive_sum_edge_cases():
    assert positive_sum([], 2) == QPoly.zero()
    assert positive_sum([(-3, ())], 2) == QPoly([(Fraction(-3, 2), 1)])
    # exponents that differ by non-integers are summed one class at a time
    halves = [(0, ()), (1, ())]
    assert positive_sum(halves, 2) == positive_sum_reference(halves, 2)
    # over the denominator 6 the start 4/6 is kept in lowest terms
    sixths = positive_sum([(4, ((2, 1),)), (10, ())], 6)
    assert sixths.min_exponent() == Fraction(2, 3)
    assert str(sixths) == "q^(2/3) + 2*q^(5/3)"
    assert sixths == QPoly.from_coeffs([1, 2], Fraction(2, 3))
    # over the denominator 4, against the same sum built by hand
    quarters = positive_sum([(3, ((3, 1), (2, 1))), (7, ((4, 2),)), (-1, ())], 4)
    by_hand = (qbinomial(3, 1) * qbinomial(2, 1)).shift(Fraction(3, 4)) \
        + qbinomial(4, 2).shift(Fraction(7, 4)) + QPoly([(Fraction(-1, 4), 1)])
    assert quarters == by_hand
    assert str(quarters) == str(by_hand)
    # q^(1/6) and q^(1/3) differ by q^(1/6): no one slot grid holds both
    sixths = [(1, ()), (2, ((1, 1),))]
    assert positive_sum(sixths, 6) == positive_sum_reference(sixths, 6)


@st.composite
def _kernel_terms(draw):
    # exponents base + den*j with one to three odd bases, so over den 2, 4
    # or 6 the sum starts at a fractional power of q and may mix classes
    # mod 1; and a truncation order or none
    den = draw(st.sampled_from((2, 4, 6)))
    bases = draw(st.lists(st.integers(-6, 6).map(lambda b: 2 * b + 1), min_size=1, max_size=3))
    pair = st.integers(0, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))
    term = st.tuples(st.tuples(st.sampled_from(bases), st.integers(-3, 3))
                     .map(lambda bj: bj[0] + den * bj[1]),
                     st.lists(pair, max_size=3).map(tuple))
    cut = st.none() | st.builds(Fraction, st.integers(-8, 30), st.sampled_from((1, 2, 3, 4)))
    return draw(st.lists(term, min_size=1, max_size=5)), den, draw(cut)


@settings(max_examples=200, deadline=None)
@given(_kernel_terms())
def test_positive_sum_at_odd_starts_against_reference(args):
    terms, den, cut = args
    want = positive_sum_reference(terms, den)
    if cut is None:
        got = positive_sum(terms, den)
        assert got.min_exponent() == Fraction(min(e for e, _ in terms), den)
    else:
        got, want = positive_sum(terms, den, cut), want.truncate(cut)
        assert got.order == cut
    assert got == want and str(got) == str(want)


def _R(*args):
    """The kernel factor of the refinement refined_T(*args), a nonzero side
    of one part."""
    return (qcomb._refined, args, 0)


@st.composite
def _mixed_terms(draw):
    # terms over 2 whose factors are Gaussians and nonzero refinements (a
    # zero one is a side with no parts, so no factor), and a truncation
    # order or none
    gauss = st.integers(0, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))
    refinement = st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
        lambda LM: st.tuples(st.just(LM[0]), st.just(LM[1]), st.integers(-LM[0], LM[0]),
                             st.integers(-LM[1], LM[1]))).filter(
        lambda args: refined_T_reference(*args)).map(lambda args: _R(*args))
    term = st.tuples(st.integers(-6, 12), st.lists(gauss | refinement, max_size=3).map(tuple))
    cut = st.none() | st.builds(Fraction, st.integers(-4, 40), st.sampled_from((1, 2)))
    return draw(st.lists(term, min_size=1, max_size=5)), draw(cut)


@pytest.mark.parametrize("w", [1, 2, 4, 8, 9, 16])
@settings(max_examples=40, deadline=None)
@given(_mixed_terms())
# a refinement of one coefficient next to a factor wider than the other
# terms' slots, uncut and cut at an order
@example(([(0, ()), (0, (_R(1, 0, 1, 0), _R(5, 5, 0, 0)))], None))
@example(([(0, ((40, 20), _R(1, 0, 1, 0)))], None))
@example(([(0, ()), (2, (_R(1, 0, 1, 0), (40, 20)))], Fraction(30)))
def test_mixed_factors_at_each_slot_width_against_reference(w, args):
    # Gaussian and refinement factors in one kernel call, packed at least w
    # bytes wide, which is exact when w is wider than needed: 1, 2, 4 and 8
    # take the array paths, 9 and 16 the byte-slice path
    terms, cut = args
    slot_bytes = qcomb._slot_bytes
    want = positive_sum_reference(terms, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcomb, "_slot_bytes", lambda bound: max(slot_bytes(bound), w))
        if cut is None:
            got = positive_sum(terms, 2)
        else:
            got, want = positive_sum(terms, 2, cut), want.truncate(cut)
    assert got == want and str(got) == str(want)


def test_refinement_factor_reads_refined_T():
    # a refinement is a side of one part: its coefficients from its least
    # exponent, which a caller folds into the term's exponent, and their sum
    # as its bound at q = 1; the part also holds refined_T's QPoly
    for args in ((3, 1, 2, 0), (4, 4, 1, -2), (8, 6, 0, 3), (26, 26, 0, 0)):
        ((e, c, t),) = qcomb._refined(*args)
        assert t is refined_T(*args)
        assert t == QPoly.from_coeffs(c, Fraction(e, 2)) and c[0] == 1
        assert t.min_exponent() == Fraction(e, 2)
        assert qcomb._side_factors(qcomb._refined, args) == [(e, _R(*args))]
        assert qcomb._cut_value(_R(*args)) == sum(c) == sum(parse(str(t)).values())
        assert positive_sum([(e, (_R(*args),))], 2) == t
    # zero inside the support: L - |a| odd and M = 0, a side with no parts
    assert qcomb._refined(3, 0, 0, 0) == ()
    assert qcomb._side_factors(qcomb._refined, (3, 0, 0, 0)) == []
    assert refined_T(3, 0, 0, 0) == QPoly.zero()


def test_invariance_sum_against_reference_up_to_12():
    for L in range(13):
        for M in range(13):
            for a in (-3, -1, 0, 2, 4):
                for b in (-3, -1, 0, 2, 4):
                    assert invariance_sum(L, M, a, b) == invariance_sum_reference(
                        L, M, a, b), (L, M, a, b)


@pytest.mark.parametrize("w", [1, 2, 4, 8])
def test_cut_sum_at_each_slot_width_against_reference(w):
    # (1 + q)^(8w) = [2, 1]^(8w) at q^(X - j), j < 8w, puts C(8w, j) at q^X
    # each: the sum there, the last slot below the cut, is 2^(8w) - 1, the
    # largest coefficient a w-byte slot holds.  The uncut sum is 8w * 2^(8w)
    # at q = 1, which needs wider slots.
    X = 8 * w
    terms = [(2 * (X - j), ((2, 1),) * (8 * w)) for j in range(8 * w)]
    got = positive_sum(terms, 2, X + 1)
    assert got.coeff(X) == max(parse(str(got)).values()) == 2 ** (8 * w) - 1
    assert _slot_bytes(sum(parse(str(positive_sum(terms, 2))).values())) > w
    assert got == positive_sum_reference(terms, 2).truncate(X + 1)


def test_cut_sums_of_deep_gaussians_against_reference():
    # [n + c, n] of degree nc, 60 to 500, in sums cut far below that degree
    pairs = [(3, 20), (5, 40), (10, 50), (2, 30), (8, 25)]
    terms = [(i * i, ((n + c, n), (c + 2, 2))) for i, (n, c) in enumerate(pairs)]
    terms.append((3, tuple((n + c, n) for n, c in pairs[:3])))
    for order in (1, Fraction(5, 2), 12, 40):
        got = positive_sum(terms, 2, order)
        want = positive_sum_reference(terms, 2).truncate(order)
        assert got == want and str(got) == str(want), order


@st.composite
def _sum_args(draw):
    L = draw(st.integers(0, 10))
    M = draw(st.integers(0, 10))
    charge = st.integers(0, L + 2)
    return L, M, draw(charge), draw(charge), draw(st.sampled_from((1, -1)))


@settings(max_examples=150, deadline=None)
@given(_sum_args())
def test_invariance_sum_against_reference(args):
    L, M, a, b, s = args
    assert invariance_sum(L, M, s * a, s * b) == invariance_sum_reference(
        L, M, s * a, s * b)


@settings(max_examples=150, deadline=None)
@given(_sum_args(), st.booleans())
def test_refinement_sum_against_reference(args, swap):
    L, _, a, b, s = args
    assert refinement_sum(L, s * a, s * b, swap) == refinement_sum_reference(
        L, s * a, s * b, swap)


@st.composite
def _bound_and_charge(draw, top):
    L = draw(st.integers(0, top))
    return L, draw(st.integers(-L - 2, L + 2))


@settings(max_examples=100, deadline=None)
@given(_bound_and_charge(30))
def test_trinomials_against_reference(args):
    L, a = args
    assert qtrinomial_T(L, a) == qtrinomial_T_reference(L, a)
    assert qtrinomial2(L, a) == qtrinomial2_reference(L, a)


@settings(max_examples=60, deadline=None)
@given(_bound_and_charge(14))
def test_con10_lhs_against_reference(args):
    L, b = args
    lhs, _ = verify.REGISTRY["con10"].evaluate({"L": L, "b": b}, None)
    assert lhs == con10_lhs_reference(L, b)


@pytest.mark.parametrize("b", range(-4, 5))
def test_abp_lhs_against_reference(b):
    for order in (0, 1, Fraction(5, 2), 12, 40):
        lhs, _ = verify.REGISTRY["abp"].evaluate({"b": b}, Fraction(order))
        want = abp_lhs_reference(b, order)
        assert lhs == want and str(lhs) == str(want)


def test_mtlim_product_form_against_reference():
    for point, (L, a, b) in enumerate(verify._MTLIM_POINTS):
        for order in (1, Fraction(5, 2), 10, 20):
            _, rhs = verify.REGISTRY["limit-mTlim"].evaluate(
                {"point": point, "form": 1}, Fraction(order))
            want = mtlim_product_reference(L, a, min(Fraction(L), Fraction(order)))
            assert rhs == want and str(rhs) == str(want)


def test_trinomials_output_digest():
    # sha256 of str() of each trinomial for L <= 30 and |a| <= L+2, one line
    # each, in loop order; computed with the QPoly product loops the kernel
    # replaced
    expect = {
        qtrinomial_T: "41e459620e617a0ab2e9f219d6f2b8b93bb6c9a5511ec5d8b688944b0a5ad7e4",
        qtrinomial2: "d91df9aa8df1b03dad000ac6102d05c4054da301c5f41391aeebe2813e3de85e",
    }
    for trinomial, digest in expect.items():
        h = hashlib.sha256()
        for L in range(31):
            for a in range(-L - 2, L + 3):
                h.update(f"{trinomial(L, a)}\n".encode())
        assert h.hexdigest() == digest, trinomial.__name__


def test_sums_with_wide_coefficients():
    # coefficients above 64 bits take the byte-slice path of the kernel
    t = invariance_sum(25, 25, 1, 0)
    assert max(parse(str(t)).values()).bit_length() == 66
    assert t == invariance_sum_reference(25, 25, 1, 0)
    # the refinement sums against the trinomials they add up to, and the
    # trinomials, a second kernel sum each, against their term-by-term
    # references
    for swap, trinomial, reference in ((False, qtrinomial_T, qtrinomial_T_reference),
                                       (True, qtrinomial2, qtrinomial2_reference)):
        t = refinement_sum(48, 2, 1, swap)
        assert max(parse(str(t)).values()).bit_length() == 65
        assert t == trinomial(48, 2)
        assert trinomial(48, 2) == reference(48, 2)


def test_invariance_sums_output_digest():
    # sha256 of str(lhs) for thm1, mTtoT and mTtot over their full registry
    # grids, one line per point in grid order; computed with the term-by-term
    # QPoly-sum evaluation the kernel replaced
    expect = {
        "thm1": "70d16323c9e1655896be49dcafaf9e790343e56fff599d2522e02bea5f11b732",
        "mTtoT": "8664aaf399395e2debe93e047603ac6a65d3591c7213d0609823f03cca030456",
        "mTtot": "6e66ad098b4add62f1dd0483eabf52c0f63aa542f1e50fd8ef150b616dd71f38",
    }
    for name, digest in expect.items():
        d = verify.REGISTRY[name]
        h = hashlib.sha256()
        for values in product(*d.grid.values()):
            p = dict(zip(d.grid, values))
            if d.point_filter is None or d.point_filter(p):
                h.update(f"{d.evaluate(p, None)[0]}\n".encode())
        assert h.hexdigest() == digest, name


def test_refined_T_output_digest():
    # sha256 of str(refined_T(L, M, a, b)), one line each, in loop order;
    # computed with the QPoly-sum evaluation the packed kernel replaced
    h = hashlib.sha256()
    for L in range(9):
        for M in range(9):
            for a in range(-10, 11):
                for b in range(-10, 11):
                    h.update(f"{refined_T(L, M, a, b)}\n".encode())
    assert h.hexdigest() == (
        "7668d92ce23851000329fe754f06dc850da88094dd1fd128e76fd71165dabc25")
