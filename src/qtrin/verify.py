"""Identity registry and grid-verification engine.

Every checked identity lives in a registry entry describing its kind
(exact polynomial vs truncated series), its proof status, and a default
parameter grid.  The engine evaluates both sides at every grid point and
produces a machine-readable report.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from . import bosonic, fermionic
from .qcomb import qbinomial, qtrinomial2, qtrinomial_T, refined_T
from .qpoly import QPoly, QSeries, euler_inverse, pochhammer, pochhammer_multi


class UnknownIdentity(Exception):
    pass


class RunawayComputation(Exception):
    """A single grid point exceeded the configured term-count ceiling."""


TERM_CEILING = 500_000

Params = dict[str, int]
SidePair = tuple[QPoly | QSeries, QPoly | QSeries]


@dataclass(frozen=True)
class IdentityDescriptor:
    name: str
    kind: str    # "polynomial-exact" | "series-truncated"
    status: str  # "proved-in-paper" | "conjectured-in-paper" | "derived-chain"
    grid: dict[str, tuple[int, ...]]
    evaluate: Callable[[Params, Fraction], SidePair]
    order: int = 12           # default truncation order for series kind
    quick_grid: dict[str, tuple[int, ...]] | None = None
    quick_order: int | None = None
    point_filter: Callable[[Params], bool] | None = None
    note: str = ""


@dataclass
class Failure:
    params: Params
    exponent: str
    lhs_coeff: int
    rhs_coeff: int

    def to_dict(self) -> dict:
        return {
            "params": self.params,
            "exponent": self.exponent,
            "lhs": self.lhs_coeff,
            "rhs": self.rhs_coeff,
        }


@dataclass
class VerificationReport:
    identity: str
    status: str
    kind: str
    grid: dict[str, list[int]]
    order: int | None
    points: int
    failures: list[Failure] = field(default_factory=list)
    millis: int = 0
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        d = {
            "identity": self.identity,
            "status": self.status,
            "kind": self.kind,
            "grid": self.grid,
            "points": self.points,
            "failures": [f.to_dict() for f in self.failures],
            "millis": self.millis,
        }
        if self.order is not None:
            d["order"] = self.order
        if self.note:
            d["note"] = self.note
        return d

    @staticmethod
    def from_dict(d: dict) -> "VerificationReport":
        return VerificationReport(
            identity=d["identity"],
            status=d["status"],
            kind=d["kind"],
            grid={k: list(v) for k, v in d["grid"].items()},
            order=d.get("order"),
            points=d["points"],
            failures=[
                Failure(f["params"], f["exponent"], f["lhs"], f["rhs"])
                for f in d["failures"]
            ],
            millis=d["millis"],
            note=d.get("note", ""),
        )


def compare_sides(lhs: QPoly | QSeries, rhs: QPoly | QSeries):
    """First differing exponent and the two coefficients, or None if equal.

    Series are compared coefficientwise up to the smaller truncation order.
    """
    lt, rt = lhs.terms, rhs.terms
    orders = [s.order for s in (lhs, rhs) if isinstance(s, QSeries)]
    if orders:
        cut = min(orders)
        lt = {e: c for e, c in lt.items() if e < cut}
        rt = {e: c for e, c in rt.items() if e < cut}
    if len(lt) > TERM_CEILING or len(rt) > TERM_CEILING:
        raise RunawayComputation("term-count ceiling exceeded")
    for e in sorted(set(lt) | set(rt)):
        cl, cr = lt.get(e, 0), rt.get(e, 0)
        if cl != cr:
            return e, cl, cr
    return None


# --------------------------------------------------------------------
# Side evaluators
# --------------------------------------------------------------------


def _ev_dual(p: Params, order) -> SidePair:
    t = refined_T(p["L"], p["M"], p["a"], p["b"])
    return t.substitute_qinv(), t.shift(p["a"] * p["b"] - p["M"] * p["L"])


def _ev_symmetry(p: Params, order) -> SidePair:
    return (refined_T(p["L"], p["M"], p["a"], p["b"]),
            refined_T(p["L"], p["M"], -p["a"], -p["b"]))


def _ev_vanish(p: Params, order) -> SidePair:
    return refined_T(p["L"], p["M"], p["a"], p["b"]), QPoly.zero()


def _ev_mT(swap: bool):
    # T(L,a) as a sum of refinements; with (L,M) and (a,b) swapped in each
    # refinement the sum is the round-bracket trinomial instead.
    def ev(p: Params, order) -> SidePair:
        L, a, b = p["L"], p["a"], p["b"]
        lhs = QPoly.zero()
        for i in range(abs(b), L - abs(a - b) + 1):
            args = (i, L - i, b, a - b) if swap else (L - i, i, a - b, b)
            t = refined_T(*args)
            if t:
                lhs = lhs + t.shift(Fraction(i * i - b * b, 2))
        return lhs, (qtrinomial2 if swap else qtrinomial_T)(L, a)
    return ev


def _ev_thm1(p: Params, order) -> SidePair:
    L, M, a, b = p["L"], p["M"], p["s"] * p["a"], p["s"] * p["b"]
    lhs = QPoly.zero()
    for i in range(abs(b), min(L - abs(a), M) + 1):
        t = refined_T(L - i, i, a, b)
        if t:
            lhs = lhs + (qbinomial(L + M - i, L) * t).shift(Fraction(i * i, 2))
    rhs = refined_T(L, M, a + b, b).shift(Fraction(b * b, 2))
    return lhs, rhs


def _ev_con(p: Params, order) -> SidePair:
    L, b = p["L"], p["b"]
    lhs = QPoly.zero()
    for i in range(0, L + 1):
        f = qbinomial(L, i) * qtrinomial_T(i, b)
        if f:
            lhs = lhs + f.shift(Fraction(i * i, 2))
    return lhs, qbinomial(2 * L, L - b).shift(Fraction(b * b, 2))


def _ev_abp(p: Params, order: Fraction) -> SidePair:
    b = p["b"]
    lhs = QSeries.zero(order)
    i = 0
    while Fraction(i * i, 2) < order:
        t = qtrinomial_T(i, abs(b))
        if t:
            ser = t.to_series(order - Fraction(i * i, 2))
            if i:
                ser = ser * pochhammer(1, 1, 1, i, ser.order).inverse()
            lhs = lhs + QSeries(ser.shift(Fraction(i * i, 2)).terms, order)
        i += 1
    inner = order - Fraction(b * b, 2)
    if inner <= 0:
        return lhs, QSeries.zero(order)
    rhs = euler_inverse(inner).shift(Fraction(b * b, 2))
    return lhs, QSeries(rhs.terms, order)


def _ev_conj(which: int):
    def ev(p: Params, order) -> SidePair:
        return (bosonic.conj_lhs(which, p["L"], p["M"]),
                fermionic.conj_rhs(which, p["L"], p["M"]))
    return ev


def _ev_kseries(family: str, k: int):
    def ev(p: Params, order) -> SidePair:
        return (bosonic.kseries_lhs(family, k, p["L"], p["M"]),
                fermionic.kseries_rhs(family, k, p["L"], p["M"]))
    return ev


def _ev_E8(p: Params, order: Fraction) -> SidePair:
    lhs = fermionic.fermionic_char_sum("E8", order)
    if p["form"] == 0:
        rhs = bosonic.virasoro_char(3, 4, 1, 1, order)
    else:
        rhs = (pochhammer_multi((3, 4, 5), 8, order)
               * pochhammer_multi((2, 14), 16, order)).inverse()
    return lhs, rhs


def _ev_E7conj(sigma: int):
    def ev(p: Params, order: Fraction) -> SidePair:
        return (fermionic.fermionic_char_sum("E7", order, sigma=sigma),
                bosonic.virasoro_char(4, 5, 2 * sigma + 1, 1, order))
    return ev


def _ev_E6(p: Params, order: Fraction) -> SidePair:
    return (fermionic.fermionic_char_sum("E6", order),
            bosonic.virasoro_char(6, 7, 1, 1, order)
            + bosonic.virasoro_char(6, 7, 5, 1, order))


def _ev_B35(p: Params, order: Fraction) -> SidePair:
    s = p["sigma"]
    return (bosonic.branching_function(3, 5, 1, 1, s, order),
            bosonic.virasoro_char(4, 5, 2 * s + 1, 1, order))


def _ev_B46_s0(p: Params, order: Fraction) -> SidePair:
    lhs = bosonic.branching_function(4, 6, 1, 1, 0, order)
    acc: dict[Fraction, int] = {}
    j = 0
    while j * j < order:
        e = Fraction(j * j)
        acc[e] = acc.get(e, 0) + (-1) ** (j * j)
        j += 1
    j = 1
    while 6 * j * j < order:
        e = Fraction(6 * j * j)
        acc[e] = acc.get(e, 0) + 1
        j += 1
    return lhs, QSeries(acc, order) * euler_inverse(order)


def _ev_B46_s1(p: Params, order: Fraction) -> SidePair:
    lhs = bosonic.branching_function(4, 6, 1, 1, 1, order)
    inner = order - Fraction(3, 2)
    if p["form"] == 0:
        acc: dict[Fraction, int] = {}
        j = 0
        while 6 * j * (j + 1) < inner:
            acc[Fraction(6 * j * (j + 1))] = 1
            j += 1
        rhs = (QSeries(acc, inner) * euler_inverse(inner)).shift(Fraction(3, 2))
    else:
        rhs = (pochhammer(24, 1, 24, None, inner)
               * pochhammer(12, 1, 24, None, inner).inverse()
               * euler_inverse(inner)).shift(Fraction(3, 2))
    return lhs, rhs


def _ev_D6B46(p: Params, order: Fraction) -> SidePair:
    s = p["sigma"]
    return (fermionic.fermionic_char_sum("D6-B46", order, sigma=s),
            bosonic.branching_function(4, 6, 1, 1, s, order))


def _ev_A5B68(p: Params, order: Fraction) -> SidePair:
    s = p["sigma"]
    return (fermionic.fermionic_char_sum("A5-B68", order, sigma=s),
            bosonic.branching_function(6, 8, 1, 1, s, order)
            + bosonic.branching_function(6, 8, 1, 7, 1 - s, order))


def _fam_rhs(family: int, k: int, s: int, order: Fraction) -> QSeries:
    # With A = P(k+1) - 2: k odd gives chi^{(3,4)} times chi^{(P, A/2)}; k even
    # gives B^{(P, A)} with the sigma + k/2 shift (applied uniformly; see the
    # ledger note on the first family).  Family 3 adds the term with label
    # P - 1 and the other sigma.
    P = fermionic._FAMILIES[family].P
    A = P * (k + 1) - 2
    out = QSeries.zero(order)
    for t, r in enumerate((1, P - 1) if family == 3 else (1,)):
        if k % 2:
            out = out + (bosonic.virasoro_char(3, 4, (s + t) % 2 + 1, 1, order)
                         * bosonic.virasoro_char(P, A // 2, r, (k + 1) // 2, order))
        else:
            out = out + bosonic.branching_function(
                P, A, r, k + 1, (s + k // 2 + t) % 2, order)
    return out


def _ev_fam(family: int, k: int):
    def ev(p: Params, order: Fraction) -> SidePair:
        s = p["sigma"]
        return (fermionic.fsum_family_lhs(family, k, s, order),
                _fam_rhs(family, k, s, order))
    return ev


def _x_rhs(family: int, k: int, order: Fraction) -> QSeries:
    # With A = P(k+1) - 2: k odd gives chi^{(A/2, Pk-2)}_{(k+1)/2, k}; k even
    # gives chi^{(Pk/2-1, A)}_{k/2, k+1}.  Family 3 adds the term with the
    # label on the Pk/2 - 1 side reflected: (P-1)k - 2 or (P-1)k/2 - 1.
    P = fermionic._FAMILIES[family].P
    A = P * (k + 1) - 2
    if k % 2:
        p, pp, r, s = A // 2, P * k - 2, (k + 1) // 2, k
        reflected = (p, pp, r, pp - s)
    else:
        p, pp, r, s = P * k // 2 - 1, A, k // 2, k + 1
        reflected = (p, pp, p - r, s)
    out = bosonic.virasoro_char(p, pp, r, s, order)
    if family == 3:
        out = out + bosonic.virasoro_char(*reflected, order)
    return out


def _ev_x(family: int, k: int):
    def ev(p: Params, order: Fraction) -> SidePair:
        return fermionic.x_series_lhs(family, k, order), _x_rhs(family, k, order)
    return ev


def _ev_limit_tlim(p: Params, order: Fraction) -> SidePair:
    a = p["a"]
    L = 2 * int(order) + abs(a)
    lhs = qtrinomial2(L, a).to_series(order)
    if p["form"] == 0:
        rhs = qtrinomial2(L + 2, a).to_series(order)  # stabilization
    else:
        rhs = euler_inverse(order)
    return lhs, rhs


def _ev_limit_Tlim(p: Params, order: Fraction) -> SidePair:
    a, sigma = p["a"], p["sigma"]
    L = 2 * int(order) + ((a + sigma) % 2)
    lhs = qtrinomial_T(L, a).to_series(order)
    if p["form"] == 0:
        rhs = qtrinomial_T(L + 2, a).to_series(order)
    else:
        rhs = bosonic.string_function(sigma, order)
    return lhs, rhs


_MTLIM_POINTS = ((4, 2, 1), (5, 1, 0), (6, 2, 2))


def _ev_limit_mTlim(p: Params, order: Fraction) -> SidePair:
    L, a, b = _MTLIM_POINTS[p["point"]]
    cut = Fraction(min(Fraction(L), order))
    M = L + int(order)
    lhs = refined_T(L, M, a, b).to_series(cut)
    if p["form"] == 0:
        rhs = refined_T(L, M + 1, a, b).to_series(cut)
    else:
        qfl = pochhammer(1, 1, 1, L, cut)
        rhs = qtrinomial_T(L, a).to_series(cut) * qfl.inverse()
    return lhs, rhs


# --------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------


def _rng(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(range(lo, hi + 1))


def _build_registry() -> dict[str, IdentityDescriptor]:
    reg: list[IdentityDescriptor] = []
    big = {"L": _rng(0, 8), "M": _rng(0, 8), "a": _rng(-4, 4), "b": _rng(-4, 4)}
    small = {"L": _rng(0, 4), "M": _rng(0, 4), "a": _rng(-2, 2), "b": _rng(-2, 2)}
    reg.append(IdentityDescriptor(
        "dual", "polynomial-exact", "proved-in-paper", big, _ev_dual,
        quick_grid=small))
    reg.append(IdentityDescriptor(
        "symmetry", "polynomial-exact", "proved-in-paper", big, _ev_symmetry,
        quick_grid=small))
    reg.append(IdentityDescriptor(
        "vanish", "polynomial-exact", "proved-in-paper",
        {"L": _rng(0, 8), "M": _rng(0, 8), "a": _rng(-12, 12), "b": _rng(-12, 12)},
        _ev_vanish,
        quick_grid={"L": _rng(0, 4), "M": _rng(0, 4),
                    "a": _rng(-6, 6), "b": _rng(-6, 6)},
        point_filter=lambda p: abs(p["a"]) > p["L"] or abs(p["b"]) > p["M"]))
    tri_grid = {"L": _rng(0, 8), "a": _rng(0, 8), "b": _rng(0, 8)}
    tri_quick = {"L": _rng(0, 5), "a": _rng(0, 5), "b": _rng(0, 5)}
    tri_filter = lambda p: p["b"] <= p["a"] <= p["L"]
    reg.append(IdentityDescriptor(
        "mTtoT", "polynomial-exact", "proved-in-paper", tri_grid, _ev_mT(False),
        quick_grid=tri_quick, point_filter=tri_filter))
    reg.append(IdentityDescriptor(
        "mTtot", "polynomial-exact", "proved-in-paper", tri_grid, _ev_mT(True),
        quick_grid=tri_quick, point_filter=tri_filter))
    reg.append(IdentityDescriptor(
        "thm1", "polynomial-exact", "proved-in-paper",
        {"L": _rng(0, 8), "M": _rng(0, 8), "a": _rng(0, 4), "b": _rng(0, 4),
         "s": (1, -1)},
        _ev_thm1,
        quick_grid={"L": _rng(0, 4), "M": _rng(0, 4), "a": _rng(0, 2),
                    "b": _rng(0, 2), "s": (1, -1)}))
    reg.append(IdentityDescriptor(
        "con10", "polynomial-exact", "proved-in-paper",
        {"L": _rng(0, 8), "b": _rng(-8, 8)}, _ev_con,
        quick_grid={"L": _rng(0, 5), "b": _rng(-5, 5)},
        point_filter=lambda p: abs(p["b"]) <= p["L"]))
    reg.append(IdentityDescriptor(
        "abp", "series-truncated", "proved-in-paper",
        {"b": _rng(-4, 4)}, _ev_abp, order=12, quick_order=8))
    for w in (1, 2, 3):
        reg.append(IdentityDescriptor(
            f"conj{w}", "polynomial-exact", "conjectured-in-paper",
            {"L": _rng(0, 5), "M": _rng(0, 5)}, _ev_conj(w),
            quick_grid={"L": _rng(0, 3), "M": _rng(0, 3)}))
    for f in fermionic._FAMILIES.values():
        for k in (1, 2):
            reg.append(IdentityDescriptor(
                f"{f.name.split('-')[1]}-k{k}", "polynomial-exact",
                "conjectured-in-paper",
                {"L": _rng(0, 3), "M": _rng(0, 3)}, _ev_kseries(f.name, k),
                quick_grid={"L": _rng(0, 2), "M": _rng(0, 2)}))
    reg.append(IdentityDescriptor(
        "E8", "series-truncated", "proved-in-paper",
        {"form": (0, 1)}, _ev_E8, order=12, quick_order=8))
    for s in (0, 1):
        reg.append(IdentityDescriptor(
            f"E7conj-s{s}", "series-truncated", "conjectured-in-paper",
            {"point": (0,)}, _ev_E7conj(s), order=12, quick_order=8))
    reg.append(IdentityDescriptor(
        "E6", "series-truncated", "conjectured-in-paper",
        {"point": (0,)}, _ev_E6, order=12, quick_order=8))
    reg.append(IdentityDescriptor(
        "B35-eq-chi45", "series-truncated", "proved-in-paper",
        {"sigma": (0, 1)}, _ev_B35, order=15, quick_order=10))
    reg.append(IdentityDescriptor(
        "B46-simplification-s0", "series-truncated", "conjectured-in-paper",
        {"point": (0,)}, _ev_B46_s0, order=20, quick_order=10))
    reg.append(IdentityDescriptor(
        "B46-simplification-s1", "series-truncated", "conjectured-in-paper",
        {"form": (0, 1)}, _ev_B46_s1, order=20, quick_order=10))
    reg.append(IdentityDescriptor(
        "D6-B46-fermionic", "series-truncated", "conjectured-in-paper",
        {"sigma": (0, 1)}, _ev_D6B46, order=12, quick_order=8))
    reg.append(IdentityDescriptor(
        "A5-B68-fermionic", "series-truncated", "conjectured-in-paper",
        {"sigma": (0, 1)}, _ev_A5B68, order=12, quick_order=8))
    for fam in (1, 2, 3):
        for k in (1, 2):
            note = ""
            if fam == 1 and k % 2 == 0:
                note = ("k-even branching label uses the sigma+k/2 shift "
                        "carried explicitly by the other two families")
            if fam == 3:
                note = "run with the A5 polynomial; no discrepancy found"
            reg.append(IdentityDescriptor(
                f"fam{fam}-k{k}", "series-truncated", "conjectured-in-paper",
                {"sigma": (0, 1)}, _ev_fam(fam, k), order=8, quick_order=6,
                note=note))
    for fam in (1, 2, 3):
        for k in (2, 3):
            reg.append(IdentityDescriptor(
                f"X{fam if fam > 1 else ''}-k{k}", "series-truncated", "conjectured-in-paper",
                {"point": (0,)}, _ev_x(fam, k), order=8, quick_order=6))
    reg.append(IdentityDescriptor(
        "limit-tlim", "series-truncated", "proved-in-paper",
        {"a": (0, 1, 2), "form": (0, 1)}, _ev_limit_tlim,
        order=10, quick_order=6))
    reg.append(IdentityDescriptor(
        "limit-Tlim", "series-truncated", "proved-in-paper",
        {"a": (0, 1, 2), "sigma": (0, 1), "form": (0, 1)}, _ev_limit_Tlim,
        order=10, quick_order=6))
    reg.append(IdentityDescriptor(
        "limit-mTlim", "series-truncated", "proved-in-paper",
        {"point": (0, 1, 2), "form": (0, 1)}, _ev_limit_mTlim,
        order=10, quick_order=6))
    out = {d.name: d for d in reg}
    assert len(out) == len(reg), "duplicate identity names"
    return out


REGISTRY = _build_registry()

EXPECTED_NAMES = {
    "dual", "symmetry", "vanish", "mTtoT", "mTtot", "thm1", "con10", "abp",
    "conj1", "conj2", "conj3", "flower-k1", "flower-k2", "flower2-k1",
    "flower2-k2", "monster-k1", "monster-k2", "E8", "E7conj-s0", "E7conj-s1",
    "E6", "B35-eq-chi45", "B46-simplification-s0", "B46-simplification-s1",
    "D6-B46-fermionic", "A5-B68-fermionic", "fam1-k1", "fam1-k2", "fam2-k1",
    "fam2-k2", "fam3-k1", "fam3-k2", "X-k2", "X-k3", "X2-k2", "X2-k3",
    "X3-k2", "X3-k3", "limit-tlim", "limit-Tlim", "limit-mTlim",
}


def _grid_points(grid: Mapping[str, Sequence[int]]) -> Iterable[Params]:
    names = list(grid)
    def rec(i: int, acc: Params):
        if i == len(names):
            yield dict(acc)
            return
        for v in grid[names[i]]:
            acc[names[i]] = v
            yield from rec(i + 1, acc)
    yield from rec(0, {})


def verify_identity(
    name: str,
    grid: Mapping[str, Sequence[int]] | None = None,
    order: int | None = None,
    level: str = "full",
) -> VerificationReport:
    """Evaluate one registered identity over its grid and report failures."""
    if name not in REGISTRY:
        raise UnknownIdentity(f"no identity named {name!r}")
    d = REGISTRY[name]
    use_grid: Mapping[str, Sequence[int]]
    if grid is not None:
        use_grid = dict(d.grid)
        for key, vals in grid.items():
            if key not in use_grid:
                raise UnknownIdentity(
                    f"identity {name!r} has no grid parameter {key!r}")
            use_grid[key] = tuple(vals)
    elif level == "quick" and d.quick_grid is not None:
        use_grid = d.quick_grid
    else:
        use_grid = d.grid
    if order is not None:
        use_order = Fraction(order)
    elif level == "quick" and d.quick_order is not None:
        use_order = Fraction(d.quick_order)
    else:
        use_order = Fraction(d.order)
    start = time.perf_counter()
    points = 0
    failures: list[Failure] = []
    for params in _grid_points(use_grid):
        if d.point_filter is not None and not d.point_filter(params):
            continue
        points += 1
        lhs, rhs = d.evaluate(params, use_order)
        diff = compare_sides(lhs, rhs)
        if diff is not None:
            e, cl, cr = diff
            failures.append(Failure(dict(params), str(e), cl, cr))
    millis = int((time.perf_counter() - start) * 1000)
    return VerificationReport(
        identity=name,
        status=d.status,
        kind=d.kind,
        grid={k: list(v) for k, v in use_grid.items()},
        order=int(use_order) if d.kind == "series-truncated" else None,
        points=points,
        failures=failures,
        millis=millis,
        note=d.note,
    )


def verify_all(level: str = "quick") -> list[VerificationReport]:
    """Run every registered identity; nothing is skipped."""
    return [verify_identity(name, level=level) for name in sorted(REGISTRY)]


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def reports_from_json(text: str) -> list[VerificationReport]:
    return [VerificationReport.from_dict(d) for d in json.loads(text)]
