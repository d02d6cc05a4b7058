import re
from fractions import Fraction
from math import ceil

import pytest

import pins
import qpoly_reference as ref
from qcomb_reference import string_function_reference, theta_sum_reference
from qtrin.qpoly import QSeries
from qtrin import bosonic, fermionic, verify
from string_reps import checked_string_function


def test_string_function_three_representations():
    for sigma in (0, 1):
        s = checked_string_function(sigma, 30)
        assert s.order == Fraction(30)
    with pytest.raises(ValueError):
        bosonic.string_function(2, 10)


def test_string_function_order_zero_is_empty():
    for sigma in (0, 1):
        for order in (0, -3):
            assert bosonic.string_function(sigma, order) == QSeries.zero(order)


def _partition_counts(n_max):
    """p(0..n_max) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= n:
                    p[n] += sign * p[n - g]
            k += 1
    return p


def test_string_functions_against_partition_oracle():
    # c_0 + c_1 = (-q^{1/2}; q)_inf / (q)_inf.  In powers of x = q^{1/2}
    # that is (partitions into distinct odd parts) times p(m) x^{2m}; c_0
    # holds the even powers of x, c_1 the odd ones.
    order = 24
    size = 2 * order
    odd = [1] + [0] * (size - 1)
    for part in range(1, size, 2):
        for s in range(size - 1, part - 1, -1):
            odd[s] += odd[s - part]
    p = _partition_counts(order)
    total = [sum(odd[x - 2 * m] * p[m] for m in range(x // 2 + 1))
             for x in range(size)]
    for sigma in (0, 1):
        got = [0] * size
        for e, c in ref.parse(str(bosonic.string_function(sigma, order))).items():
            assert (2 * e).denominator == 1
            got[int(2 * e)] = c
        assert got == [t if x % 2 == sigma else 0 for x, t in enumerate(total)]


def test_string_function_leading_terms():
    c0 = bosonic.string_function(0, 8)
    assert c0.coeff(Fraction(0)) == 1
    c1 = bosonic.string_function(1, 8)
    assert c1.min_exponent() == Fraction(1, 2)


def test_virasoro_vacuum_character_ising():
    # (3,4) vacuum module: classic free-fermion counting
    chi = bosonic.virasoro_char(3, 4, 1, 1, 12)
    expect = [1, 0, 1, 1, 2, 2, 3, 3, 5, 5, 7, 8]
    assert [chi.coeff(Fraction(n)) for n in range(12)] == expect


def test_virasoro_label_validation():
    with pytest.raises(ValueError, match=re.escape("need coprime 2 <= p < p', got (2,4)")):
        bosonic.virasoro_char(2, 4, 1, 1, 10)   # gcd > 1
    with pytest.raises(ValueError, match=re.escape("labels (r,s)=(3,1) out of range for (3,4)")):
        bosonic.virasoro_char(3, 4, 3, 1, 10)   # r out of range
    with pytest.raises(ValueError, match=re.escape("labels (r,s)=(1,4) out of range for (3,4)")):
        bosonic.virasoro_char(3, 4, 1, 4, 10)   # s out of range


def test_virasoro_char_every_label_at_order_130():
    # every label of the nine compute-mix models: Rocha-Caridi's theta
    # exponents times the partition counts p(0..n-1), in plain dicts
    order = 130
    for p, pp, r, s in pins.char_labels():
        alpha = Fraction((pp * r - p * s) ** 2 - 1, 4 * p * pp)
        n = ceil(order - alpha)
        theta = {}
        for j in range(-n, n + 1):  # both exponents are >= |j|
            for e, sign in ((j * (p * pp * j + pp * r - p * s), 1),
                            ((p * j + r) * (pp * j + s), -1)):
                if e < n:
                    theta[e] = theta.get(e, 0) + sign
        parts = ref.partition_counts(n)
        want = {}
        for e, c in theta.items():
            for k in range(e, n):
                want[k] = want.get(k, 0) + c * parts[k - e]
        got = bosonic.virasoro_char(p, pp, r, s, order)
        assert got.order == order, (p, pp, r, s)
        assert ref.parse(str(got)) == {alpha + k: c for k, c in want.items() if c}, (p, pp, r, s)


def test_virasoro_swapped_labels_agree():
    a = bosonic.virasoro_char(5, 4, 2, 1, 10)
    b = bosonic.virasoro_char(4, 5, 1, 2, 10)
    assert a == b


def test_branching_label_validation():
    with pytest.raises(ValueError, match="^sigma must be 0 or 1$"):
        bosonic.branching_function(4, 6, 1, 1, 2, 10)
    with pytest.raises(ValueError, match=re.escape("labels (r,s)=(0,1) out of range")):
        bosonic.branching_function(4, 6, 0, 1, 0, 10)


def test_branching_b35_matches_characters():
    for sigma in (0, 1):
        lhs = bosonic.branching_function(3, 5, 1, 1, sigma, 16)
        rhs = bosonic.virasoro_char(4, 5, 2 * sigma + 1, 1, 16)
        assert lhs == rhs


def test_kseries_lhs_depth0_against_theta_sum_reference():
    # every point of L, M <= 8, twice the registry grid, against the sum
    # over a j-window wider than any support
    for which in (1, 2, 3):
        for L in range(9):
            for M in range(9):
                assert bosonic.kseries_lhs(which, 0, L, M) == theta_sum_reference(
                    which, 0, L, M), (which, L, M)


def test_kseries_lhs_against_theta_sum_reference():
    # k = 1 and 2 on the rectangles L <= A - k + 1, M <= P, A = P(k+1) - 2,
    # where the family-specific rows are nonzero
    for w in (1, 2, 3):
        P = fermionic._FAMILIES[w].P
        for k in (1, 2):
            A = P * (k + 1) - 2
            for L in range(A - k + 2):
                for M in range(P + 1):
                    assert bosonic.kseries_lhs(w, k, L, M) == theta_sum_reference(
                        w, k, L, M), (w, k, L, M)


# Every character and branching label the registry's series identities use.
_REGISTRY_CHI_LABELS = (
    (3, 4, 1, 1), (3, 4, 2, 1), (4, 5, 1, 1), (4, 5, 3, 1), (4, 13, 1, 3),
    (5, 4, 1, 1), (5, 16, 1, 3), (6, 5, 1, 1), (6, 7, 1, 1), (6, 7, 5, 1),
    (7, 22, 1, 3), (7, 22, 6, 3), (8, 7, 1, 1), (8, 7, 7, 1), (9, 13, 2, 3),
    (11, 16, 2, 3), (15, 22, 2, 3), (15, 22, 2, 19),
)
_REGISTRY_BRANCH_LABELS = tuple(
    label + (sigma,)
    for label in ((3, 5, 1, 1), (4, 6, 1, 1), (5, 13, 1, 3), (6, 8, 1, 1),
                  (6, 8, 1, 7), (6, 16, 1, 3), (8, 22, 1, 3), (8, 22, 7, 3))
    for sigma in (0, 1)
)


def test_character_theta_widening_invariance(monkeypatch):
    chi = [bosonic.virasoro_char(*label, 20) for label in _REGISTRY_CHI_LABELS]
    branch = [bosonic.branching_function(*label, 20)
              for label in _REGISTRY_BRANCH_LABELS]
    orig = bosonic._rocha_caridi

    def wide(p, pp, r, s, cutoff):
        # a larger cutoff gives a window at least 3 wider on each side
        J = max(j for j, _, _ in orig(p, pp, r, s, cutoff))
        terms = list(orig(p, pp, r, s, 4 * cutoff + 16 * p * pp))
        assert max(j for j, _, _ in terms) >= J + 3
        return terms
    monkeypatch.setattr(bosonic, "_rocha_caridi", wide)
    for label, want in zip(_REGISTRY_CHI_LABELS, chi):
        assert bosonic.virasoro_char(*label, 20) == want, label
    for label, want in zip(_REGISTRY_BRANCH_LABELS, branch):
        assert bosonic.branching_function(*label, 20) == want, label


def test_invariance_check_helper():
    # the invariance sum at (L, M, a, b) = (4, 4, 2, 1) and (5, 3, -2, -2)
    for L, M, a, b, s in ((4, 4, 2, 1, 1), (5, 3, 2, 2, -1)):
        point = {"L": L, "M": M, "a": a, "b": b, "s": s}
        r = verify.verify_identity(
            "thm1", grid={k: (v,) for k, v in point.items()})
        assert r.points == 1 and r.passed
        assert verify.REGISTRY["thm1"].evaluate(point, Fraction(0))[1]


def test_abp_and_con_checks():
    r = verify.verify_identity("abp", grid={"b": (-3, 0, 2)}, order=10)
    assert r.points == 3 and r.passed
    r = verify.verify_identity(
        "con10", grid={"L": range(6), "b": range(-5, 6)})
    assert r.points == 36 and r.passed


def test_conj_identities_small_grid():
    for which in (1, 2, 3):
        for L in range(4):
            for M in range(4):
                assert (bosonic.kseries_lhs(which, 0, L, M)
                        == fermionic.kseries_rhs(which, 0, L, M)), (which, L, M)


def test_e8_character_product_form():
    # 1/((q^3, q^4, q^5; q^8)_inf (q^2, q^14; q^16)_inf), every factor below
    # q^14 in the reference's finite products, inverted there
    chi = bosonic.virasoro_char(3, 4, 1, 1, 14)
    den = {Fraction(0): 1}
    for a, step in ((3, 8), (4, 8), (5, 8), (2, 16), (14, 16)):
        den = ref.mul(den, ref.pochhammer(a, 1, step, 2, 14), 14)
    assert chi == QSeries(ref.inverse(den, 14), 14)


def test_character_alpha_beyond_order_gives_zero():
    # minimal conformal weight exceeds the truncation order
    chi = bosonic.virasoro_char(7, 22, 6, 3, 8)
    assert chi == QSeries.zero(Fraction(8))


def test_branching_normalization():
    # sigma=0 functions start at 1 for the (p, p+2) vacuum labels
    b = bosonic.branching_function(4, 6, 1, 1, 0, 10)
    assert b.coeff(Fraction(0)) == 1


def test_string_equals_euler_quotient():
    # c_0 + c_1 jointly exhaust the free-boson counting:
    # c_0 + c_1 = (-q^(1/2); q)_inf / (q)_inf
    order = Fraction(15)
    total = bosonic.string_function(0, order) + bosonic.string_function(1, order)
    plus = ref.pochhammer(Fraction(1, 2), -1, 1, 15, order)  # (-q^(1/2); q)_inf
    expect = ref.mul(plus, ref.euler_inverse(order), order)
    assert total == QSeries(expect, order)


def test_string_function_sum_against_reference():
    # the n-sum is one kernel call; the reference inverts each (q)_n
    for sigma in (0, 1):
        for order in (0, 1, Fraction(5, 2), 13, 54):
            got = bosonic.string_function(sigma, order)
            want = string_function_reference(sigma, order)
            assert got == want and str(got) == str(want), (sigma, order)
