from fractions import Fraction

import pytest

from qtrin.qpoly import QPoly
from qtrin.qcomb import qbinomial
from qtrin import fermionic


def _q(e, c=1):
    return QPoly.q_power(Fraction(e), c)


def test_E7_F3_reference_expansions():
    expect0 = (_q(6) + _q(6) * qbinomial(5, 2) + _q(4) * qbinomial(5, 1)
               + _q(2) * qbinomial(3, 1) + QPoly.one())
    assert fermionic.f_poly("E7", 3, 0) == expect0
    expect1 = (_q(Fraction(27, 2)) + _q(Fraction(19, 2)) * qbinomial(3, 1)
               + _q(Fraction(15, 2)) + _q(Fraction(11, 2)) * qbinomial(5, 1)
               + _q(Fraction(7, 2)) * qbinomial(3, 1)
               + _q(Fraction(3, 2)) * qbinomial(7, 1))
    assert fermionic.f_poly("E7", 3, 1) == expect1


def test_f_poly_base_cases():
    for name in ("A5", "D6", "E7"):
        assert fermionic.f_poly(name, 0, 0) == QPoly.one()
        assert fermionic.f_poly(name, 0, 1) == QPoly.zero()


def test_f_poly_nonnegative_coefficients():
    for name in ("A5", "D6", "E7"):
        for M in range(5):
            for sigma in (0, 1):
                p = fermionic.f_poly(name, M, sigma)
                assert all(c > 0 for c in p.terms.values())


def test_f_poly_sigma_parity_of_exponents():
    # sigma=1 contributions sit on half-odd-integer powers for E7
    p = fermionic.f_poly("E7", 3, 1)
    assert all(e.denominator == 2 for e in p.terms)


def test_conj_rhs_degenerate_cases():
    assert fermionic.conj_rhs(1, 0, 0) == QPoly.one()
    assert fermionic.conj_rhs(2, 0, 0) == QPoly.one()
    assert fermionic.conj_rhs(3, 0, 0) == QPoly.one()


def test_kseries_rhs_k1_reduces_to_plain_sum():
    # at k=1 there is no r-chain; the two routes must agree at the
    # shared point of the parameter space
    for fam in ("E8-flower", "E7-flower2", "E6-monster"):
        p = fermionic.kseries_rhs(fam, 1, 0, 0)
        assert p.coeff(Fraction(0)) == 1


def test_fermionic_char_sum_positive_and_unit_start():
    for fam in ("E8", "E7", "E6"):
        s = fermionic.fermionic_char_sum(fam, Fraction(10))
        assert s.coeff(Fraction(0)) == 1
        assert all(c > 0 for c in s.terms.values())


def test_fermionic_char_sum_sigma_one_shifted():
    s = fermionic.fermionic_char_sum("E7", Fraction(10), sigma=1)
    m = s.min_exponent()
    assert m is not None and m > 0


def test_fsum_family_lhs_positive():
    for fam in (1, 2, 3):
        for k in (1, 2):
            for sigma in (0, 1):
                s = fermionic.fsum_family_lhs(fam, k, sigma, Fraction(6))
                assert all(c > 0 for c in s.terms.values())


def test_x_series_lhs_unit_start():
    for fam in (1, 2, 3):
        s = fermionic.x_series_lhs(fam, 2, Fraction(6))
        assert s.coeff(Fraction(0)) == 1


def test_bad_family_names():
    with pytest.raises(ValueError):
        fermionic.kseries_rhs("nope", 1, 1, 1)
    with pytest.raises((KeyError, ValueError)):
        fermionic.fermionic_char_sum("nope", Fraction(5))


def test_family_table_pairs_each_algebra_with_its_cut_diagram():
    # each family's small algebra is its large one with the marked source
    # vertex removed, labels kept in order
    from qtrin.liealg import algebra

    for f in fermionic._FAMILIES.values():
        big, small = algebra(f.large), algebra(f.small)
        assert f.vertex in big.marked_vertices
        keep = [i for i in range(big.rank) if i != f.vertex - 1]
        assert ([[big.incidence[i][j] for j in keep] for i in keep]
                == [list(row) for row in small.incidence])
