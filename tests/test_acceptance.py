"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with -v or -s to see them).  Polynomial checks
are exact; series checks are exact per coefficient up to the stated order.
"""

import time
from fractions import Fraction

from qtrin.qpoly import QPoly, QSeries
from qtrin.qcomb import qbinomial, qtrinomial_T, refined_T
from qtrin.liealg import algebra
from qtrin.mnsys import solve_mn, solve_mn_bruteforce
from qtrin import bosonic, fermionic, verify
from string_reps import checked_string_function


def _report(num: int, label: str, ok: bool, seconds: float):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{label}]: {state} ({seconds:.2f}s)")
    assert ok, f"criterion {num} ({label}) failed"


def _run(num: int, label: str, names: list[str], budget: float):
    start = time.perf_counter()
    reports = [verify.verify_identity(n, level="full") for n in names]
    took = time.perf_counter() - start
    ok = all(r.passed for r in reports) and took < budget
    _report(num, label, ok, took)


def test_criterion_01_worked_decompositions():
    start = time.perf_counter()
    q = lambda e, c=1: QPoly.q_power(Fraction(e), c)
    ok = str(qtrinomial_T(4, 2)) == "1 + q + 2*q^2 + 2*q^3 + 2*q^4 + q^5 + q^6"
    # b = 0 split: 1 + q(1+q+q^2) + q^2(1+q+2q^2+q^3+q^4)
    ok &= refined_T(4, 0, 2, 0) == QPoly.one()
    ok &= refined_T(3, 1, 2, 0).shift(Fraction(1, 2)) == \
        q(1) * (QPoly.one() + q(1) + q(2))
    ok &= refined_T(2, 2, 2, 0).shift(2) == \
        q(2) * (QPoly.one() + q(1) + q(2, 2) + q(3) + q(4))
    # b = 1 split: (1+q+q^2) + q^2(1+q)^2 + q^4(1+q+q^2)
    ok &= refined_T(3, 1, 1, 1) == QPoly.one() + q(1) + q(2)
    ok &= refined_T(2, 2, 1, 1).shift(Fraction(3, 2)) == \
        q(2) * (QPoly.one() + q(1)) * (QPoly.one() + q(1))
    ok &= refined_T(1, 3, 1, 1).shift(4) == q(4) * (QPoly.one() + q(1) + q(2))
    # b = 2 split: (1+q+2q^2+q^3+q^4) + q^3(1+q+q^2) + q^6
    ok &= refined_T(2, 2, 0, 2) == \
        QPoly.one() + q(1) + q(2, 2) + q(3) + q(4)
    ok &= refined_T(1, 3, 0, 2).shift(Fraction(5, 2)) == \
        q(3) * (QPoly.one() + q(1) + q(2))
    ok &= refined_T(0, 4, 0, 2).shift(6) == q(6)
    for b in (0, 1, 2):
        s = QPoly.zero()
        for i in range(b, 4 - abs(2 - b) + 1):
            s = s + refined_T(4 - i, i, 2 - b, b).shift(
                Fraction(i * i - b * b, 2))
        ok &= s == qtrinomial_T(4, 2)
    _report(1, "worked example decompositions", ok,
            time.perf_counter() - start)


def test_criterion_02_invariance_theorem_full_grid():
    _run(2, "invariance sum, full grid", ["thm1"], 30.0)


def test_criterion_03_duality_symmetry_vanishing():
    _run(3, "duality/symmetry/vanishing", ["dual", "symmetry", "vanish"], 10.0)


def test_criterion_04_refinement_sums():
    _run(4, "refinement sums", ["mTtoT", "mTtot"], 10.0)


def test_criterion_05_binomial_sum_and_tail():
    _run(5, "binomial sum + tail series", ["con10", "abp"], 10.0)


def test_criterion_06_mn_reference_solutions():
    start = time.perf_counter()
    sols = solve_mn(algebra("E7"), 6, 1)
    even = [s for s in sols if (s.n[0] + s.n[2] + s.n[6]) % 2 == 0]
    odd = [s for s in sols if (s.n[0] + s.n[2] + s.n[6]) % 2 == 1]
    ok = len(sols) == 11 and len(even) == 5 and len(odd) == 6
    ok &= "m=9e1+12e2+15e3+18e4+12e5+6e6+9e7 n=0" in {
        s.basis_str() for s in even}
    ok &= "m=0 n=3e1" in {s.basis_str() for s in odd}
    _report(6, "eleven (m,n)-solutions with parity split", ok,
            time.perf_counter() - start)


def test_criterion_07_f_polynomial_expansions():
    start = time.perf_counter()
    q = lambda e: QPoly.q_power(Fraction(e))
    f0 = (q(6) + q(6) * qbinomial(5, 2) + q(4) * qbinomial(5, 1)
          + q(2) * qbinomial(3, 1) + QPoly.one())
    f1 = (q(Fraction(27, 2)) + q(Fraction(19, 2)) * qbinomial(3, 1)
          + q(Fraction(15, 2)) + q(Fraction(11, 2)) * qbinomial(5, 1)
          + q(Fraction(7, 2)) * qbinomial(3, 1)
          + q(Fraction(3, 2)) * qbinomial(7, 1))
    ok = fermionic.f_poly("E7", 3, 0) == f0
    ok &= fermionic.f_poly("E7", 3, 1) == f1
    _report(7, "F-polynomial worked expansions", ok,
            time.perf_counter() - start)


def test_criterion_08_polynomial_conjectures():
    _run(8, "three polynomial conjectures", ["conj1", "conj2", "conj3"],
         300.0)


def test_criterion_09_iterated_k_series():
    _run(9, "iterated k-series", ["flower-k1", "flower-k2", "flower2-k1",
                                  "flower2-k2", "monster-k1", "monster-k2"],
         300.0)


def test_criterion_10_series_identities():
    _run(10, "series identities", ["E8", "E7conj-s0", "E7conj-s1", "E6",
                                   "D6-B46-fermionic", "A5-B68-fermionic",
                                   "B35-eq-chi45", "B46-simplification-s0",
                                   "B46-simplification-s1"], 120.0)


def test_criterion_11_chain_series():
    _run(11, "character chain series", ["X-k2", "X-k3", "X2-k2", "X2-k3",
                                        "X3-k2", "X3-k3"], 300.0)


def test_criterion_12_f_sum_families():
    _run(12, "F-sum families", ["fam1-k1", "fam1-k2", "fam2-k1", "fam2-k2",
                                "fam3-k1", "fam3-k2"], 300.0)


def test_criterion_13_limit_stabilization():
    _run(13, "limit stabilization", ["limit-tlim", "limit-Tlim",
                                     "limit-mTlim"], 60.0)


def test_criterion_14_string_function_representations():
    start = time.perf_counter()
    ok = True
    for sigma in (0, 1):
        s = checked_string_function(sigma, 30)   # raises unless all three agree
        ok &= s.order == Fraction(30)
    _report(14, "string function representations", ok,
            time.perf_counter() - start)


def test_criterion_15_property_suites():
    import random
    start = time.perf_counter()
    rng = random.Random(20260826)
    ok = True

    def rand_poly():
        return QPoly({Fraction(rng.randint(-5, 5), rng.choice((1, 2))):
                      rng.randint(-6, 6) for _ in range(rng.randint(0, 5))})

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        ok &= a * (b + c) == a * b + a * c
        ok &= (a * b) * c == a * (b * c)
        ok &= a.substitute_qinv().substitute_qinv() == a
    for _ in range(20):
        terms = {Fraction(0): 1}
        terms.update({Fraction(rng.randint(1, 8), 2): rng.randint(-4, 4)
                      for _ in range(4)})
        s = QSeries(terms, Fraction(9))
        ok &= s * s.inverse() == QSeries.one(Fraction(9))
    # enumeration completeness against the box oracle
    for name, i in (("A5", 3), ("D6", 5)):
        g = algebra(name)
        for N in range(0, 9, 2):
            fast = {(s.m, s.n) for s in solve_mn(g, N, i)}
            slow = {(s.m, s.n) for s in solve_mn_bruteforce(g, N, i, N // 2)}
            ok &= fast == slow
    # theta-range widening invariance
    for which in (1, 2, 3):
        ok &= bosonic.conj_lhs(which, 4, 4) == \
            bosonic.conj_lhs(which, 4, 4, widen=2)
    # mutation detection
    p = qtrinomial_T(5, 1)
    mutated = p + QPoly.q_power(Fraction(3, 2))
    ok &= verify.compare_sides(p, p) is None
    ok &= verify.compare_sides(p, mutated) == (Fraction(3, 2), 0, 1)
    took = time.perf_counter() - start
    ok &= took < 120.0
    _report(15, "property suites", ok, took)
