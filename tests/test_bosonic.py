from fractions import Fraction

import pytest

from qtrin.qpoly import QSeries, euler_inverse, pochhammer_multi
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
        for e, c in bosonic.string_function(sigma, order).terms.items():
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
    with pytest.raises(bosonic.InvalidCharLabel):
        bosonic.virasoro_char(2, 4, 1, 1, 10)   # gcd > 1
    with pytest.raises(bosonic.InvalidCharLabel):
        bosonic.virasoro_char(3, 4, 3, 1, 10)   # r out of range
    with pytest.raises(bosonic.InvalidCharLabel):
        bosonic.virasoro_char(3, 4, 1, 4, 10)   # s out of range


def test_virasoro_swapped_labels_agree():
    a = bosonic.virasoro_char(5, 4, 2, 1, 10)
    b = bosonic.virasoro_char(4, 5, 1, 2, 10)
    assert a == b


def test_branching_label_validation():
    with pytest.raises(bosonic.InvalidBranchLabel):
        bosonic.branching_function(4, 6, 1, 1, 2, 10)
    with pytest.raises(bosonic.InvalidBranchLabel):
        bosonic.branching_function(4, 6, 0, 1, 0, 10)


def test_branching_b35_matches_characters():
    for sigma in (0, 1):
        lhs = bosonic.branching_function(3, 5, 1, 1, sigma, 16)
        rhs = bosonic.virasoro_char(4, 5, 2 * sigma + 1, 1, 16)
        assert lhs == rhs


def test_conj_lhs_theta_widening_invariance():
    for which in (1, 2, 3):
        for L, M in ((0, 0), (2, 3), (4, 4), (5, 2)):
            assert (bosonic.conj_lhs(which, L, M)
                    == bosonic.conj_lhs(which, L, M, widen=3))


def test_kseries_lhs_theta_widening_invariance():
    for fam in ("E8-flower", "E7-flower2", "E6-monster"):
        for k in (1, 2):
            for L, M in ((0, 0), (2, 2), (3, 1)):
                assert (bosonic.kseries_lhs(fam, k, L, M)
                        == bosonic.kseries_lhs(fam, k, L, M, widen=3))


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
                assert (bosonic.conj_lhs(which, L, M)
                        == fermionic.conj_rhs(which, L, M)), (which, L, M)


def test_e8_character_product_form():
    chi = bosonic.virasoro_char(3, 4, 1, 1, 14)
    prod = (pochhammer_multi((3, 4, 5), 8, Fraction(14))
            * pochhammer_multi((2, 14), 16, Fraction(14))).inverse()
    assert chi == prod


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
    from qtrin.qpoly import pochhammer
    expect = pochhammer(Fraction(1, 2), -1, 1, None, order) * euler_inverse(order)
    assert total == expect
