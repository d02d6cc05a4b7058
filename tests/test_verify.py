import dataclasses
import json
from collections import Counter
from fractions import Fraction
from itertools import product
from math import ceil

import pytest

import pins
import qpoly_reference as ref
from qtrin.qpoly import QPoly, QSeries
from qtrin import verify


EXPECTED = {
    "dual", "symmetry", "vanish", "mTtoT", "mTtot", "thm1", "con10", "abp",
    "conj1", "conj2", "conj3", "flower-k1", "flower-k2", "flower2-k1",
    "flower2-k2", "monster-k1", "monster-k2", "E8", "E7conj-s0", "E7conj-s1",
    "E6", "B35-eq-chi45", "B46-simplification-s0", "B46-simplification-s1",
    "D6-B46-fermionic", "A5-B68-fermionic", "fam1-k1", "fam1-k2", "fam2-k1",
    "fam2-k2", "fam3-k1", "fam3-k2", "X-k2", "X-k3", "X2-k2", "X2-k3",
    "X3-k2", "X3-k3", "limit-tlim", "limit-Tlim", "limit-mTlim",
}


def test_registry_is_exactly_the_fixed_list():
    assert set(verify.REGISTRY) == EXPECTED
    assert len(verify.REGISTRY) == 41


def test_registry_names_are_unique(monkeypatch):
    # a repeated name would silently replace an entry of the registry dict
    real, built = verify.IdentityDescriptor, []

    def record(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(verify, "IdentityDescriptor", record)
    verify._build_registry()
    assert len(built) == len({d.name for d in built}) == 41


def test_registry_metadata_well_formed():
    for d in verify.REGISTRY.values():
        assert d.kind in ("polynomial-exact", "series-truncated")
        assert d.status in ("proved-in-paper", "conjectured-in-paper")
        assert d.grid


def test_unknown_identity_raises():
    with pytest.raises(ValueError, match="^no identity named 'no-such-identity'$"):
        verify.verify_identity("no-such-identity")
    with pytest.raises(ValueError, match="^identity 'dual' has no grid parameter 'zz'$"):
        verify.verify_identity("dual", grid={"zz": (0, 1)})


def test_comparison_engine_detects_mutations():
    a = QPoly({Fraction(0): 1, Fraction(2): 5, Fraction(7, 2): -3})
    assert verify.compare_sides(a, a) is None
    b = QPoly({Fraction(0): 1, Fraction(2): 4, Fraction(7, 2): -3})
    got = verify.compare_sides(a, b)
    assert got == (Fraction(2), 5, 4)
    # a dropped term is also a mutation
    c = QPoly({Fraction(0): 1, Fraction(2): 5})
    assert verify.compare_sides(a, c) == (Fraction(7, 2), -3, 0)


def test_comparison_respects_series_order():
    a = QSeries({Fraction(0): 1, Fraction(4): 9}, Fraction(5))
    b = QSeries({Fraction(0): 1}, Fraction(3))
    # the difference at q^4 is beyond b's reliable range
    assert verify.compare_sides(a, b) is None
    c = QSeries({Fraction(0): 2}, Fraction(3))
    assert verify.compare_sides(a, c) == (Fraction(0), 1, 2)


def test_comparison_of_poly_against_series():
    p = QPoly({Fraction(0): 1, Fraction(2): 5, Fraction(7, 2): -3})
    # the polynomial is cut at the series order; q^(7/2) lies above it
    assert verify.compare_sides(p, QSeries({0: 1, 2: 5}, 3)) is None
    assert verify.compare_sides(p, QSeries({0: 1, 2: 4}, 3)) == (Fraction(2), 5, 4)
    assert verify.compare_sides(QSeries({0: 1, 2: 4}, 3), p) == (Fraction(2), 4, 5)
    assert verify.compare_sides(p, QSeries({0: 1}, Fraction(5, 2))) == (Fraction(2), 5, 0)


def test_comparison_of_series_with_different_orders():
    a = QSeries({0: 1, 1: -2}, 2)
    # b agrees with a below a's order 2 and differs at it and above it
    b = QSeries({0: 1, 1: -2, 2: 7, 3: 1}, 4)
    assert verify.compare_sides(a, b) is None
    assert verify.compare_sides(b, a) is None
    c = QSeries({0: 1, 1: 3, 2: 7}, 4)
    assert verify.compare_sides(a, c) == (Fraction(1), -2, 3)
    assert verify.compare_sides(c, a) == (Fraction(1), 3, -2)
    d = QSeries({Fraction(1, 2): 1, 1: -2, 3: 1}, 4)
    assert verify.compare_sides(a, d) == (Fraction(0), 1, 0)
    assert verify.compare_sides(d, a) == (Fraction(0), 0, 1)


def test_choice_parameter_outside_registry_is_rejected():
    assert verify.verify_identity("limit-mTlim", grid={"point": (2,)}).passed
    for grid in ({"point": (3,)}, {"point": (-1, 0)}, {"form": (0, 2)}):
        with pytest.raises(ValueError):
            verify.verify_identity("limit-mTlim", grid=grid)


def test_grid_override_shrinks_run():
    full = verify.verify_identity("symmetry", level="quick")
    tiny = verify.verify_identity(
        "symmetry", grid={"L": (0, 1), "M": (0, 1), "a": (0,), "b": (0,)})
    assert tiny.points == 4
    assert tiny.points < full.points
    assert tiny.passed


def test_report_json_roundtrip():
    r = verify.verify_identity("mTtoT", level="quick")
    [back] = json.loads(verify.reports_to_json([r]))
    assert back == r.to_dict()
    # every field of the report is carried
    assert back == {"identity": "mTtoT", "status": r.status, "kind": r.kind,
                    "grid": r.grid, "points": r.points, "failures": [],
                    "millis": r.millis}


def test_failure_reporting_shape(monkeypatch):
    # sabotage one evaluator and make sure the engine reports it
    import dataclasses

    orig = verify.REGISTRY["mTtoT"]

    def broken(params, order):
        lhs, rhs = orig.evaluate(params, order)
        return lhs + QPoly({Fraction(1, 2): 1}), rhs

    monkeypatch.setitem(verify.REGISTRY, "mTtoT",
                        dataclasses.replace(orig, evaluate=broken))
    r = verify.verify_identity("mTtoT", level="quick")
    assert not r.passed
    assert len(r.failures) == r.points
    f = r.failures[0]
    assert f["exponent"] == "1/2"
    assert f["lhs"] - f["rhs"] == 1
    [back] = json.loads(verify.reports_to_json([r]))
    assert back == r.to_dict()
    assert len(back["failures"]) == r.points
    assert back["failures"][0] == {"params": f["params"], "exponent": "1/2",
                                   "lhs": f["lhs"], "rhs": f["rhs"]}


def test_order_override():
    r = verify.verify_identity("abp", order=6)
    assert r.order == 6
    assert r.passed
    # an order that is not an integer >= 1 is refused, not evaluated at one
    # order and reported at another
    for bad in (Fraction(5, 2), 2.5, 0):
        with pytest.raises(ValueError, match=f"order must be a positive integer, got {bad}$"):
            verify.verify_identity("abp", order=bad)


def test_series_sides_keep_the_asked_order_at_low_orders():
    # at orders 1 and 2 some inner series is cut at an order <= 0; a side
    # built there must still be known up to the asked order, or the
    # comparison would check nothing below it
    for name, d in verify.REGISTRY.items():
        if d.kind != "series-truncated":
            continue
        for values in product(*d.grid.values()):
            params = dict(zip(d.grid, values))
            if d.point_filter is not None and not d.point_filter(params):
                continue
            for order in (Fraction(1), Fraction(2)):
                lhs, rhs = d.evaluate(params, order)
                assert (lhs.order, rhs.order) == (order, order), (name, params, order)


def test_product_sides_against_reference_products():
    # both product forms' sides, through the registry, against the finite
    # products of their factors in the reference term maps, inverted there
    def factors(js, cut):
        out = ref.clean([(0, 1)], cut)
        for j in js:
            out = ref.mul(out, ref.pochhammer(j, 1, j, 1, cut), cut)
        return out

    for order in (Fraction(37, 2), Fraction(40)):
        n = ceil(order)
        e8 = [j for j in range(1, n) if j % 8 in (3, 4, 5) or j % 16 in (2, 14)]
        _, rhs = verify.REGISTRY["E8"].evaluate({"form": 1}, order)
        assert ref.parse(str(rhs)) == ref.inverse(factors(e8, order), order) and rhs.order == order
        inner = order - Fraction(3, 2)
        gauss = ref.mul(factors(range(24, n, 24), inner),
                        ref.inverse(factors(range(12, n, 24), inner), inner), inner)
        want = ref.shift(ref.mul(gauss, ref.euler_inverse(inner), inner), Fraction(3, 2))
        _, rhs = verify.REGISTRY["B46-simplification-s1"].evaluate({"form": 1}, order)
        assert ref.parse(str(rhs)) == want and rhs.order == order


def test_verify_all_quick_green():
    reports = verify.verify_all(level="quick")
    assert len(reports) == 41
    assert [r.identity for r in reports] == sorted(EXPECTED)
    bad = [r.identity for r in reports if not r.passed]
    assert not bad, bad
    # each identity has one grid and one order, which every level runs
    untimed = lambda r: {**r.to_dict(), "millis": 0}
    assert list(map(untimed, reports)) == list(map(untimed, verify.verify_all(level="full")))


def test_unknown_level_and_a_grid_with_no_point_are_errors():
    for level in ("deep", "Quick", ""):
        with pytest.raises(ValueError, match="^level must be one of quick, full, got "):
            verify.verify_identity("conj1", level=level)
    # a grid whose points all fall outside the identity's filter compares
    # nothing, and an empty range has no point at all
    for name, grid in (("vanish", {"L": (0,), "M": (0,), "a": (0,), "b": (0,)}),
                       ("con10", {"L": (0, 1), "b": (5, 6)}),
                       ("mTtoT", {"L": (0, 1), "a": (3, 4)}),
                       ("thm1", {"L": ()})):
        with pytest.raises(ValueError) as exc:
            verify.verify_identity(name, grid=grid)
        assert str(exc.value) == f"no point of this grid lies in the domain of {name!r}"


def test_clear_caches_empties_every_cache():
    import sys

    import qtrin

    verify.verify_all()
    caches = {f"{obj.__module__}.{obj.__qualname__}": obj
              for name, module in list(sys.modules.items())
              if name.startswith("qtrin.")
              for obj in vars(module).values() if hasattr(obj, "cache_clear")}
    assert len(caches) >= 9
    assert {n for n, f in caches.items() if f.cache_info().currsize == 0} == set()
    qtrin.clear_caches()
    assert {n for n, f in caches.items() if f.cache_info().currsize} == set()


def test_limit_Tlim_holds_for_every_charge():
    # the string-function limit needs L - |a| >= 2 * order; an L that
    # ignored |a| failed for every |a| >= 3 (at a = 3, sigma = 1, order 10:
    # 129 against 130 at q^(19/2))
    for order in (2, 10):
        r = verify.verify_identity("limit-Tlim", grid={"a": range(-8, 9)}, order=order)
        assert r.points == 17 * 4
        assert r.passed, r.failures[:1]


def test_compare_sides_gives_the_first_difference_or_none():
    # equal sides give None; unequal ones give the lowest
    # differing exponent and both coefficients there
    three = QPoly.from_coeffs([1, 2, 3])
    four = QPoly.from_coeffs([1, 2, 3, 4])
    assert verify.compare_sides(three, QPoly.from_coeffs([1, 2, 3])) is None
    assert verify.compare_sides(four, QPoly.from_coeffs([1, 2, 3, 4])) is None
    assert verify.compare_sides(three, QPoly.from_coeffs([1, 5, 3])) == (1, 2, 5)
    assert verify.compare_sides(three, three.shift(Fraction(1, 2))) == (0, 1, 0)
    # one object compared with itself, polynomial and series
    series_three = QSeries({0: 1, 1: 2, 2: 3}, 5)
    series_four = QSeries({0: 1, 1: 2, 2: 3, 3: 4}, 5)
    for same in (three, series_three, four, series_four):
        assert verify.compare_sides(same, same) is None
    # 1 + q + q^3 spans a row of four entries but has three terms; the gap
    # is compared like any other coefficient
    gap = QPoly.from_coeffs([1, 1, 0, 1])
    assert len(gap) == 3
    assert verify.compare_sides(gap, QPoly.from_coeffs([1, 1, 0, 1])) is None
    assert verify.compare_sides(gap, gap) is None
    assert verify.compare_sides(gap, QPoly.from_coeffs([1, 1, 0, 2])) == (3, 1, 2)
    assert verify.compare_sides(gap.truncate(9), gap.truncate(9)) is None


def test_full_level_report_is_pinned():
    # sha256 of the full-level JSON report with every millis set to 0,
    # computed before the grid loop and refined_T's cache were reworked; a
    # speed-up must leave every byte of it as it is
    assert pins.report_digest() == pins.PINS["report"]


def test_series_sides_are_pinned():
    # sha256 of both printed sides at every point of every series
    # identity's full-level grid, at its registry order, computed while
    # QSeries was a class of its own.  The report digest above pins only
    # pass/fail and point counts; this pins every term and every O(q^...).
    assert pins.sides_digest() == (pins.PINS["sides"], 65)


def test_deep_outputs_are_pinned():
    # sha256 of printed series well above the registry orders, computed
    # while the series sums still multiplied QSeries factors of 1/(q)_n
    assert pins.deep_digest() == pins.PINS["deep"]


def test_characters_are_pinned():
    # sha256 of virasoro_char at order 130 for every label of the nine
    # compute-mix models, and of euler_inverse at 600 and 241/20, computed
    # while 1/(q)_inf was the inverse of a Pochhammer product
    assert pins.chars_digest() == pins.PINS["chars"]


def test_mn_solve_output_is_pinned():
    # sha256 of the lines `qtrin mn-solve` prints for every vertex of every
    # algebra at N <= 10, with and without a parity form, and for E8 at
    # vertex 1 and N = 26..29, computed while the solver kept its slacks in
    # a Python list
    assert pins.mn_digest() == pins.PINS["mn"]


def test_mn_solve_filtered_output_is_pinned():
    # sha256 of the lines `qtrin mn-solve` prints for every vertex of A5 and
    # E6 at N <= 12 under the mod-3 form, alone and with a parity form,
    # computed while the filters ran over the finished solution list
    assert pins.mn_filters_digest() == pins.PINS["mn-filters"]


def test_full_level_points_are_pinned(monkeypatch):
    # every point the engine counts is evaluated, so a speed-up cannot come
    # from evaluating fewer points
    calls = Counter()
    for name, d in list(verify.REGISTRY.items()):
        def counted(params, order, name=name, evaluate=d.evaluate):
            calls[name] += 1
            return evaluate(params, order)
        monkeypatch.setitem(verify.REGISTRY, name,
                            dataclasses.replace(d, evaluate=counted))
    reports = verify.verify_all(level="full")
    assert all(r.passed for r in reports)
    points = {r.identity: r.points for r in reports}
    assert points == calls
    assert sum(points.values()) == 61_916
    assert (points["vanish"], points["dual"], points["symmetry"],
            points["thm1"]) == (44_064, 6_561, 6_561, 4_050)


@pytest.mark.parametrize("name, level, grid", [
    ("abp", "quick", None),                            # one key
    ("vanish", "quick", None),                         # four keys, a filter
    ("thm1", "full", {"L": (2, 3), "M": (0, 1, 2)}),   # five keys, overridden
])
def test_grid_loop_visits_each_point_in_order_with_its_own_dict(
        monkeypatch, name, level, grid):
    d = verify.REGISTRY[name]
    use = {**d.grid, **(grid or {})}
    expected = [dict(zip(use, v)) for v in product(*use.values())]
    if d.point_filter is not None:
        expected = [p for p in expected if d.point_filter(p)]
    seen, dicts = [], []

    def record(params, order):
        sides = d.evaluate(params, order)
        seen.append(list(params.items()))
        dicts.append(params)
        params.clear()  # a later point must not see this
        params["junk"] = 0
        return sides

    monkeypatch.setitem(verify.REGISTRY, name, dataclasses.replace(d, evaluate=record))
    report = verify.verify_identity(name, grid=grid, level=level)
    assert report.passed and report.points == len(expected)
    assert seen == [list(p.items()) for p in expected]
    assert len({id(p) for p in dicts}) == len(dicts)

    def sabotaged(params, order):
        lhs, rhs = d.evaluate(params, order)
        return lhs, rhs + QPoly.one()

    monkeypatch.setitem(verify.REGISTRY, name, dataclasses.replace(d, evaluate=sabotaged))
    report = verify.verify_identity(name, grid=grid, level=level)
    assert [f["params"] for f in report.failures] == expected
    assert [list(f["params"].items()) for f in report.failures] == seen
