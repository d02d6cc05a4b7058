from fractions import Fraction
from math import ceil, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtrin.qpoly import QPoly, QSeries, euler_inverse, product_series

import qpoly_reference as ref

# each value stores its exponents over one denominator, so inputs mix several
DENOMINATORS = [1, 2, 3, 4, 6, 8]
exponents = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENOMINATORS))
orders = st.builds(Fraction, st.integers(-4, 12), st.sampled_from(DENOMINATORS))
# single digits, several digits and ~100-bit values, as Gaussians print
coefficients = st.one_of(st.integers(-9, 9), st.integers(-10**6, 10**6),
                         st.integers(-2**100, 2**100))
term_maps = st.dictionaries(exponents, coefficients, max_size=6)
polys = term_maps.map(QPoly)


def test_zero_coefficients_dropped():
    p = QPoly({Fraction(1): 3, Fraction(2): 0})
    assert Fraction(2) not in ref.parse(str(p))
    assert QPoly({Fraction(0): 5}) - QPoly({Fraction(0): 5}) == QPoly.zero()
    # (exponent, coeff) pairs: repeated exponents are summed
    pairs = QPoly([(1, 2), (Fraction(1, 2), 3), (1, -2), (0, 0)])
    assert pairs == QPoly({Fraction(1, 2): 3}) and len(pairs) == 1
    assert QSeries([(0, 1), (2, 1), (Fraction(4), 1)], 3) == QSeries({0: 1, 2: 1}, 3)


def test_str_canonical_form():
    p = QPoly({Fraction(0): 1, Fraction(1): 1, Fraction(2): 2,
               Fraction(5, 2): -1, Fraction(3): -4})
    assert str(p) == "1 + q + 2*q^2 - q^(5/2) - 4*q^3"
    assert str(QPoly.zero()) == "0"
    assert str(QPoly({Fraction(1): -1})) == "-q"


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QPoly.zero() == a
    assert a * QPoly.one() == a


@given(polys)
def test_qinv_involution(p):
    assert p.substitute_qinv().substitute_qinv() == p


@given(polys, exponents)
def test_shift_is_multiplication_by_power(p, e):
    assert p.shift(e) == p * QPoly([(e, 1)])


@given(polys, orders, st.integers(-9, 9))
def test_integer_shift_matches_fraction_shift(p, order, n):
    # an int shift, or a Fraction one with denominator 1, skips the lcm
    # path; equality compares the stored denominator and map, so the result
    # must also be reduced
    for r in (Fraction(n), Fraction(2 * n, 2)):
        assert p.shift(n) == p.shift(r)
        assert hash(p.shift(n)) == hash(p.shift(r))
        s = p.truncate(order)
        assert s.shift(n) == s.shift(r)
        assert s.shift(r).order == s.shift(n).order == order + n


def test_shared_zero_stays_zero():
    zero = QPoly.zero()
    assert zero is QPoly.zero()
    p = QPoly({0: 1, Fraction(1, 2): -3, Fraction(7, 3): 2})
    assert zero + p == p + zero == p
    assert zero - p == -p and p - zero == p and zero - zero == zero
    assert zero * p == p * zero == zero * 5 == -zero == zero
    assert zero.shift(3) == zero.shift(Fraction(-5, 6)) == zero
    assert zero.substitute_qinv() == zero
    # the zero fast paths hand back the shared instance, built nowhere
    assert zero.shift(Fraction(1, 2)) is zero and zero.substitute_qinv() is zero
    assert zero.truncate(4) == QSeries.zero(4)
    assert p.truncate(4) * zero == QSeries.zero(4)
    # serving as an operand left the shared zero as it was
    assert zero == QPoly() and hash(zero) == hash(QPoly())
    assert str(zero) == "0" and len(zero) == 0 and zero.min_exponent() is None


def test_series_addition_takes_min_order():
    a = QSeries({Fraction(0): 1}, Fraction(5))
    b = QSeries({Fraction(0): 1}, Fraction(3))
    assert (a + b).order == Fraction(3)


def test_pochhammer_finite_matches_product():
    # The finite product is a test oracle (qpoly_reference.pochhammer), the
    # one 1/(q)_n of the series references.  (q;q)_3 = (1-q)(1-q^2)(1-q^3)
    expect = QPoly({Fraction(0): 1})
    for j in (1, 2, 3):
        expect = expect * QPoly({Fraction(0): 1, Fraction(j): -1})
    got = ref.pochhammer(1, 1, 1, 3, 20)
    assert QSeries(got, 20) == expect.truncate(Fraction(20))
    # a first factor 1 - q^0 makes the product vanish; 1 + q^0 is 2
    assert ref.pochhammer(0, 1, 1, 2, 5) == {}
    assert QSeries(ref.pochhammer(0, -1, 1, 2, 5), 5) == QSeries([(0, 2), (1, 2)], 5)


def test_pochhammer_truncation_compatibility():
    # (q;q)_inf, and the E8 product side's quotient, at order 10 are the
    # ones at order 25 cut at 10
    e8 = [j for j in range(1, 25) if j % 8 in (3, 4, 5) or j % 16 in (2, 14)]
    for up, down in ((range(1, 25), ()), ((), e8), (range(1, 25), e8)):
        lo = product_series(up, down, 10)
        assert lo == product_series(up, down, 25).truncate(10)
        assert lo.order == 10 and lo.coeff(0) == 1


def test_infinite_product_requires_positive_exponent():
    # a factor 1 - q^j with j < 1 has no infinite product below any order,
    # and a j that is no int is refused too, even one of integral value
    for up, down in (((0,), ()), ((), (1, -3)), ((2, 0), (2,)), ((1.5,), ()), ((), (2.0,))):
        with pytest.raises(ValueError, match="j >= 1"):
            product_series(up, down, 10)


# the j of factors (1 - q^j), and starts of any exponents and sign, or none
factor_lists = st.lists(st.integers(1, 40), max_size=6)
starts = st.one_of(st.none(), polys, st.builds(QSeries, term_maps, orders))


@given(factor_lists, factor_lists, orders, starts)
@example([], [], Fraction(0), None)
@example([3], [3, 4, 5, 2, 14], Fraction(37, 2), None)
@example([1], [2], Fraction(-5, 2), QPoly({-3: 1, Fraction(-1, 2): 2}))
@settings(max_examples=60)
def test_product_series_matches_reference(up, down, order, start):
    # the reference: the finite product of each factor, the down factors'
    # product inverted, all below the order less the start's least
    # exponent, where the start's terms times them stay below the order
    want_order = order if start is None or start.order is None else min(order, start.order)
    base = {Fraction(0): 1} if start is None else ref.parse(str(start))
    cut = want_order - min(min(base, default=0), 0)
    up_product, down_product = ref.clean([(0, 1)], cut), ref.clean([(0, 1)], cut)
    for j in up:
        up_product = ref.mul(up_product, ref.pochhammer(j, 1, j, 1, cut), cut)
    for j in down:
        down_product = ref.mul(down_product, ref.pochhammer(j, 1, j, 1, cut), cut)
    quotient = ref.mul(up_product, ref.inverse(down_product, cut), cut) if cut > 0 else {}
    want = ref.mul(base, quotient, want_order)
    got = product_series(up, down, order, start)
    assert type(got) is QSeries and got.order == want_order
    assert str(got) == f"{ref.fmt(want)} + O(q^{want_order})"


@given(factor_lists, orders, starts)
def test_product_series_up_equals_down_is_one(js, order, start):
    # each factor divided out again, in one call or in two
    assert product_series(js, js, order) == QSeries([(0, 1)], order)
    if start is not None:
        back = product_series(js, (), order, product_series((), js, order, start))
        assert back == product_series(js, js, order, start) == start.truncate(
            order if start.order is None else min(order, start.order))


def test_product_series_on_both_division_branches():
    # division by 1 - q^j runs per residue mod j while j^2 < n (n the
    # entries below the order) and one block of j at a time otherwise
    for order, n in ((30, 30), (Fraction(37, 2), 19), (60, 60)):
        js = (1, 2, 5, 6, 9, 10, 11, 18, 19, 29, 30, 45)
        assert {j * j < n for j in js} == {True, False}
        for j in js:
            got = product_series((), (j,), order)
            want = ref.inverse(ref.pochhammer(j, 1, j, 1, order), order)
            assert ref.parse(str(got)) == want and got.order == order, (order, j)
            # and times the factor again, through a start
            assert product_series((j,), (), order, got) == QSeries([(0, 1)], order)
        den = {Fraction(0): 1}
        for j in js:
            den = ref.mul(den, ref.pochhammer(j, 1, j, 1, order), order)
        assert ref.parse(str(product_series((), js, order))) == ref.inverse(den, order)


def test_euler_inverse_counts_partitions():
    s = euler_inverse(12)
    # p(0..11)
    expect = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56]
    assert [s.coeff(Fraction(n)) for n in range(12)] == expect


@pytest.mark.parametrize("order", [-3, 0, Fraction(1, 2), 1, Fraction(7, 3),
                                   Fraction(241, 20), 130, 600])
def test_euler_inverse_against_references(order):
    # Two references: the partition counts by counting change, and the path
    # the pentagonal recurrence replaced, the finite product (q;q)_n
    # inverted.  That path is qpoly_reference.euler_inverse, whose
    # dict products grow as the cube of the order, so at 600 it is
    # product_series dividing by every 1 - q^j, j < 600, in turn.
    got = euler_inverse(order)
    counts = ref.clean(enumerate(ref.partition_counts(max(ceil(order), 0))))
    old = (ref.euler_inverse(order) if order <= 130
           else ref.parse(str(product_series((), range(1, ceil(order)), order))))
    for want in (counts, old):
        assert str(got) == f"{ref.fmt(want)} + O(q^{Fraction(order)})"
    assert got.order == Fraction(order)


def test_series_str_shows_order():
    s = QSeries({Fraction(0): 1, Fraction(1): 2}, Fraction(3))
    assert str(s).endswith("O(q^3)")


def test_term_map_stays_inside_qpoly():
    # The coefficient row is internal to qpoly's kernel; every other module
    # goes through the QPoly/QSeries methods, so the representation can
    # change inside qpoly alone: the row itself (``_row``, the one slot of a
    # value), the raw wrapper ``_of`` and the cut ``_at`` stay in qpoly.
    # Tests read a value's terms from its text (qpoly_reference.parse).
    import ast
    from pathlib import Path

    import qtrin

    assert QPoly.__slots__ == ("_row",) and QSeries.__slots__ == ("order",)
    private = ("_row", "_of", "_at")
    modules = sorted(Path(qtrin.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    trees = {path.name: ast.parse(path.read_text()) for path in modules}
    leaks = [
        f"{name}:{node.lineno}:{node.attr}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in private and name != "qpoly.py"
    ]
    assert leaks == []
    # No public name without a caller: every public module-level function
    # or class is referenced somewhere in the package (as a name, an
    # attribute or an import) or exported in qtrin.__all__, and every public
    # method or property is read as an attribute somewhere in the package.
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    uncalled = []
    for name, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
                continue
            if top.name not in names | attrs | set(qtrin.__all__):
                uncalled.append(f"{name}:{top.name}")
            if isinstance(top, ast.ClassDef):
                uncalled += [f"{name}:{top.name}.{node.name}" for node in top.body
                             if isinstance(node, ast.FunctionDef)
                             and not node.name.startswith("_") and node.name not in attrs]
    assert uncalled == []
    # Sums of q-powers times Gaussian products go through qcomb's
    # positive-sum kernel; the QPoly product of a Gaussian vector, a second
    # evaluator of those sums, stays deleted.
    second_path = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if "qbinomial_vector" in (getattr(node, key, None)
                                  for key in ("name", "id", "attr", "asname"))
    ]
    assert second_path == []


# -- differential tests against the Fraction-keyed reference ------------


@given(term_maps, term_maps, exponents)
def test_poly_ops_match_reference(a, b, r):
    a, b = ref.clean(a.items()), ref.clean(b.items())
    pa, pb = QPoly(a), QPoly(b)
    assert ref.parse(str(pa)) == a
    assert ref.parse(str(pa + pb)) == ref.add(a, b)
    assert ref.parse(str(pa - pb)) == ref.add(a, ref.neg(b))
    prod = pa * pb
    assert ref.parse(str(prod)) == ref.mul(a, b)
    # the same value built another way compares and hashes equal
    again = QPoly(ref.mul(a, b))
    assert prod == again and hash(prod) == hash(again)
    assert ref.parse(str(pa.shift(r))) == ref.shift(a, r)
    assert ref.parse(str(pa.substitute_qinv())) == ref.qinv(a)
    assert str(pa) == ref.fmt(a)
    assert pa.min_exponent() == min(a, default=None)
    for e in (r, *a, *b):
        assert pa.coeff(e) == a.get(e, 0)


@given(term_maps, term_maps, orders, orders, exponents)
# negative least exponents, whose products with the other factor's unknown
# terms set the product's order
@example({Fraction(-2): 1}, {Fraction(0): 1}, Fraction(5), Fraction(1), Fraction(0))
@example({Fraction(-1): 1}, {Fraction(0): 1}, Fraction(0), Fraction(2), Fraction(0))
@example({Fraction(0): 1}, {Fraction(-1): 1}, Fraction(2), Fraction(0), Fraction(-1, 2))
def test_series_ops_match_reference(a, b, oa, ob, r):
    sa, sb = QSeries(a, oa), QSeries(b, ob)
    ra, rb = ref.clean(a.items(), oa), ref.clean(b.items(), ob)
    cut = min(oa, ob)
    assert ref.parse(str(sa)) == ra and sa.order == oa
    assert (ref.parse(str(sa + sb)), (sa + sb).order) == (ref.add(ra, rb, cut), cut)
    assert ref.parse(str(sa - sb)) == ref.add(ra, ref.neg(rb), cut)
    o = ref.mul_order(ra, oa, rb, ob)
    assert (ref.parse(str(sa * sb)), (sa * sb).order) == (ref.mul(ra, rb, o), o)
    assert ref.parse(str(QPoly(a).truncate(ob))) == ref.clean(a.items(), ob)
    assert ref.parse(str(sa.truncate(cut))) == ref.clean(ra.items(), cut)
    assert sa.truncate(cut) == QSeries(ra, cut)
    assert hash(sa.truncate(cut)) == hash(QSeries(ra, cut))
    assert (ref.parse(str(sa.shift(r))), sa.shift(r).order) == (ref.shift(ra, r), oa + r)
    assert str(sa) == f"{ref.fmt(ra)} + O(q^{oa})"
    assert sa.min_exponent() == min(ra, default=None)
    for e in (r, *a, *b):
        assert sa.coeff(e) == ra.get(e, 0)
    # a polynomial operand on either side: a sum has the series' order, and
    # a product the order its unknown terms reach, never above the series'
    pa, pb, rpb = QPoly(a), QPoly(b), ref.clean(b.items())
    for x in (sa + pb, pb + sa):
        assert (ref.parse(str(x)), x.order) == (ref.add(ra, rpb, oa), oa)
    assert (ref.parse(str(sa - pb)), (sa - pb).order) == (ref.add(ra, ref.neg(rpb), oa), oa)
    assert (ref.parse(str(pb - sa)), (pb - sa).order) == (ref.add(rpb, ref.neg(ra), oa), oa)
    o = ref.mul_order(ra, oa, rpb, None)
    for x in (sa * pb, pb * sa):
        assert (ref.parse(str(x)), x.order) == (ref.mul(ra, rpb, o), o)
    # one type: a series is a QPoly with an order, and never equals a polynomial
    assert isinstance(sa, QPoly) and type(sa) is QSeries and type(pa * pb) is QPoly
    assert pa != QSeries(a, oa) and QSeries(a, oa) != pa and pa != pa.truncate(oa)
    assert repr(sa) == f"QSeries({sa})" and repr(pa) == f"QPoly({pa})"
    with pytest.raises(ValueError):
        sa.substitute_qinv()


def test_product_order_with_negative_exponents():
    # an unknown term of one factor, times a negative power of the other,
    # lands below the lesser order
    assert str(QSeries({-2: 1}, 5) * QSeries({0: 1}, 1)) == "q^-2 + O(q^-1)"
    # a polynomial factor keeps the terms that meet the series' least term
    assert str(QSeries({-1: 1}, 0) * QPoly({0: 1})) == "q^-1 + O(q^0)"
    assert str(QPoly({-1: 1}) * QSeries({0: 1}, 2)) == "q^-1 + O(q^1)"
    # the unknown terms of two series meet at the sum of their orders
    assert str(QSeries.zero(-1) * QSeries.zero(-1)) == "0 + O(q^-2)"
    assert str(QSeries({-3: 1}, -1) * QSeries.zero(-1)) == "0 + O(q^-4)"
    # so at an order <= 0 a product over factors 1 - q^j is the empty
    # series, and a start's negative powers alone are known
    for order in (0, -1, Fraction(-5, 2)):
        assert product_series((1, 4), (2, 5), order) == QSeries.zero(order)
        assert product_series((1, 4), (2,), order, euler_inverse(5)) == QSeries.zero(order)
    assert str(product_series((1,), (2,), 0, QPoly({-2: 1}))) == "q^-2 - q^-1 + O(q^0)"
    # with exponents >= 0 a product keeps the lesser order
    assert (QSeries({0: 1, 1: 1}, 5) * QSeries({2: 1}, 3)).order == 3
    assert (QSeries({1: 1}, 4) * QPoly({3: 1})).order == 4


@given(st.lists(st.integers(-3, 3), max_size=8),
       st.one_of(st.integers(-6, 6),
                 st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6]))),
       st.booleans())
@example([], Fraction(1, 3), False)
@example([0, 0, 0], Fraction(-5, 6), False)
@example([0, 0, 0, 0], Fraction(2, 6), True)
@example([0, 1, 0, 2, 0], Fraction(-1, 2), True)
def test_from_coeffs_matches_reference(coeffs, start, as_generator):
    # zeros anywhere, all-zero and empty input, int and Fraction starts
    # (2/6 arrives reduced, numerators may be negative), lists and
    # generators.  Equal values store equal denominators, so a zero result
    # equal to QPoly.zero() has d == 1.
    want = ref.clean((start + i, c) for i, c in enumerate(coeffs))
    p = QPoly.from_coeffs((c for c in coeffs) if as_generator else coeffs, start)
    assert ref.parse(str(p)) == want
    assert p == QPoly(want) and hash(p) == hash(QPoly(want))
    assert str(p) == ref.fmt(want)
    assert (p == QPoly.zero()) == (not want)


def _checked(p):
    # the row is the one the definition gives, and len() counts its terms
    d, lo, s, c = p._row
    assert type(c) is tuple and d >= 1 and s >= 1
    assert not c or (c[0] and c[-1] and gcd(d, lo, s) == 1)
    terms = ref.parse(str(p))
    assert p._row == ref.row(terms)
    assert len(p) == len(terms)
    return p


@given(term_maps, term_maps, exponents, orders,
       st.lists(st.integers(-2, 2), max_size=8),
       st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6])))
# cancellation that widens the step: 1 + q + q^2 - q is 1 + q^2, on step 2
@example({Fraction(0): 1, Fraction(2): 1}, {Fraction(1): 1}, Fraction(0), Fraction(4), [], 0)
# and that lowers the denominator: 1 + q^(1/2) + q - q^(1/2)
@example({Fraction(0): 1, Fraction(1): 1}, {Fraction(1, 2): 1}, Fraction(1, 2), Fraction(1),
         [0, 1, 0, 0, 2, 0], Fraction(-1, 2))
def test_rows_are_canonical(a, b, r, order, coeffs, start):
    # equal values have equal rows, so they compare and hash equal however
    # they were built
    pa, pb = QPoly(a), QPoly(b)
    ra, rb = ref.clean(a.items()), ref.clean(b.items())
    assert len(_checked(pa)) == len(ra) and len(_checked(pb)) == len(rb)
    assert len(_checked(pa + pb)) == len(ref.add(ra, rb))
    assert len(_checked(pa * pb)) == len(ref.mul(ra, rb))
    back = _checked((pa + pb) - pb)
    assert back == pa and hash(back) == hash(pa)
    there = _checked(pa.shift(r))
    again = _checked(there.shift(-r))
    assert again == pa and hash(again) == hash(pa)
    flipped = _checked(pa.substitute_qinv())
    twice = _checked(flipped.substitute_qinv())
    assert twice == pa and hash(twice) == hash(pa)
    sa, sb = QSeries(a, order), QSeries(b, order)
    for s in (sa, sa + sb, sa * sb, pa.truncate(order), (sa + sb) - sb, sa.shift(r)):
        _checked(s)
    # interior and edge zeros, fractional starts
    p = _checked(QPoly.from_coeffs(coeffs, start))
    want = ref.clean((start + i, c) for i, c in enumerate(coeffs))
    assert len(p) == len(want) and p == QPoly(want) and hash(p) == hash(QPoly(want))


def test_equal_values_through_different_denominators():
    half, third = QPoly([(Fraction(1, 2), 1)]), QPoly([(Fraction(1, 3), 1)])
    assert half * half == QPoly([(1, 1)]) and hash(half * half) == hash(QPoly([(1, 1)]))
    assert half.shift(Fraction(1, 2)) == QPoly([(1, 1)])
    mixed = (half + third) - third
    assert mixed == half and hash(mixed) == hash(half)
    cut = QSeries([(Fraction(1, 2), 1), (Fraction(2, 3), 1)], 1).truncate(Fraction(2, 3))
    assert cut == QSeries([(Fraction(1, 2), 1)], Fraction(2, 3))
    assert hash(cut) == hash(QSeries([(Fraction(1, 2), 1)], Fraction(2, 3)))
    # an exponent whose denominator does not divide the stored one has no term
    assert half.coeff(Fraction(1, 3)) == 0 and half.coeff(Fraction(1, 2)) == 1
    assert (half * half).coeff(Fraction(1, 2)) == 0 and (half * half).coeff(1) == 1
    assert QSeries([(Fraction(3, 4), 5)], 2).coeff(Fraction(1, 8)) == 0
    assert QPoly.zero() == half - half and hash(QPoly.zero()) == hash(half - half)
