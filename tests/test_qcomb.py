import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, symbols

from qtrin.qpoly import QPoly, pochhammer
from qtrin.qcomb import qbinomial, qtrinomial2, qtrinomial_T, refined_T


def _qbin_oracle(n, a):
    """(q)_n / ((q)_a (q)_{n-a}) via exact series division."""
    if a < 0 or a > n:
        return QPoly.zero()
    order = Fraction(n * n + 1)
    num = pochhammer(1, 1, 1, n, order)
    den = pochhammer(1, 1, 1, a, order) * pochhammer(1, 1, 1, n - a, order)
    quot = num * den.inverse()
    return QPoly(quot.terms)


def test_qbinomial_against_factorial_formula():
    for n in range(9):
        for a in range(n + 1):
            assert qbinomial(n, a) == _qbin_oracle(n, a)


def _qpascal_table(nmax):
    """Every [m, k] for m <= nmax as a coefficient list, by the q-Pascal rule
    [m, k] = [m-1, k-1] + q^k [m-1, k], which shares nothing with the
    product formula qbinomial uses."""
    table = {}
    for m in range(nmax + 1):
        for k in range(m + 1):
            if k == 0 or k == m:
                table[(m, k)] = [1]
                continue
            left = table[(m - 1, k - 1)]
            right = table[(m - 1, k)]
            coeffs = [0] * (k * (m - k) + 1)
            for i, c in enumerate(left):
                coeffs[i] += c
            for i, c in enumerate(right):
                coeffs[i + k] += c
            table[(m, k)] = coeffs
    return table


def test_qbinomial_against_q_pascal():
    for (n, a), coeffs in _qpascal_table(30).items():
        assert qbinomial(n, a) == QPoly(enumerate(coeffs)), (n, a)


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
    assert p.eval_q1() == math.comb(n, a)


def test_qbinomial_edge_cases():
    assert qbinomial(5, -1) == QPoly.zero()
    assert qbinomial(3, 4) == QPoly.zero()
    assert qbinomial(0, 0) == QPoly.one()
    assert str(qbinomial(4, 2)) == "1 + q + 2*q^2 + q^3 + q^4"


@given(st.integers(0, 10), st.integers(0, 10))
def test_qbinomial_symmetry_and_counting(n, a):
    assert qbinomial(n, a) == qbinomial(n, n - a if a <= n else -1)
    if 0 <= a <= n:
        assert qbinomial(n, a).eval_q1() == math.comb(n, a)


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
            assert qtrinomial2(L, a).eval_q1() == coeffs[L + a]
            assert qtrinomial_T(L, a).eval_q1() == coeffs[L + a]


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
