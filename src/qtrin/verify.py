"""Identity registry and grid-verification engine.

Every checked identity lives in a registry entry describing its kind
(exact polynomial vs truncated series), its proof status, and a default
parameter grid.  The engine evaluates both sides at every grid point and
produces a machine-readable report.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import product
from math import ceil, isqrt
from typing import Callable, Mapping, Sequence

from . import bosonic, fermionic
from .qcomb import (_euler_pairs, _refined_terms, _start, _trinomial2_terms, _trinomial_terms,
                    invariance_sum, positive_sum, qbinomial, qtrinomial2, qtrinomial_T,
                    refined_T, refinement_sum)
from .qpoly import QPoly, QSeries, euler_inverse, product_series

# Grid parameters that pick a variant (a form, a point, a sign) rather than
# a size: each registered grid lists every value the evaluator understands.
CHOICE_PARAMS = ("form", "point", "sigma", "s")

# Accepted values of verify_identity's level; both run the registry grids.
LEVELS = ("quick", "full")

Params = dict[str, int]
SidePair = tuple[QPoly, QPoly]


@dataclass(frozen=True)
class IdentityDescriptor:
    name: str
    kind: str    # "polynomial-exact" | "series-truncated"
    status: str  # "proved-in-paper" | "conjectured-in-paper"
    grid: dict[str, tuple[int, ...]]
    evaluate: Callable[[Params, Fraction], SidePair]
    order: int = 12           # default truncation order for series kind
    point_filter: Callable[[Params], bool] | None = None
    note: str = ""


@dataclass
class VerificationReport:
    """One identity's check, its fields in the order of its JSON record.  A
    failure is that record's dict of the grid point ``params``, the first
    differing ``exponent`` and the coefficients ``lhs`` and ``rhs`` there."""
    identity: str
    status: str
    kind: str
    grid: dict[str, list[int]]
    points: int
    failures: list[dict] = field(default_factory=list)
    millis: int = 0
    order: int | None = None
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if d["order"] is None:
            del d["order"]
        if not d["note"]:
            del d["note"]
        return d


def compare_sides(lhs: QPoly, rhs: QPoly):
    """First differing exponent and the two coefficients, or None if equal.

    Series are compared coefficientwise up to the smaller truncation order.
    """
    if lhs.order is not None or rhs.order is not None:
        cut = min(s.order for s in (lhs, rhs) if s.order is not None)
        lhs, rhs = lhs.truncate(cut), rhs.truncate(cut)
    if lhs == rhs:
        return None
    e = (lhs - rhs).min_exponent()
    return e, lhs.coeff(e), rhs.coeff(e)


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
        return (refinement_sum(L, a, b, swap),
                (qtrinomial2 if swap else qtrinomial_T)(L, a))
    return ev


def _ev_thm1(p: Params, order) -> SidePair:
    L, M, a, b = p["L"], p["M"], p["s"] * p["a"], p["s"] * p["b"]
    return (invariance_sum(L, M, a, b),
            refined_T(L, M, a + b, b).shift(_start(b * b, 2)))


def _ev_con(p: Params, order) -> SidePair:
    # sum_i q^{i^2/2} [L, i] T(i, b), each T(i, b) expanded into its
    # defining sum, as one kernel call
    L, b = p["L"], p["b"]
    lhs = positive_sum(((i * i + e, ((L, i),) + pairs) for i in range(L + 1)
                        for e, pairs in _trinomial_terms(i, b)), 2)
    return lhs, qbinomial(2 * L, L - b).shift(Fraction(b * b, 2))


def _ev_abp(p: Params, order: Fraction) -> SidePair:
    # sum_i q^{i^2/2} T(i, |b|) / (q)_i, each T(i, |b|) expanded into its
    # defining sum, as one kernel call
    b = p["b"]
    lhs = positive_sum(
        ((i * i + e, pairs + _euler_pairs((i,), order))
         for i in range(isqrt(max(int(2 * order), 0)) + 1)
         for e, pairs in _trinomial_terms(i, abs(b))), 2, order)
    return lhs, euler_inverse(order - Fraction(b * b, 2)).shift(Fraction(b * b, 2))


def _ev_kseries(family: int, k: int):
    def ev(p: Params, order) -> SidePair:
        return (bosonic.kseries_lhs(family, k, p["L"], p["M"]),
                fermionic.kseries_rhs(family, k, p["L"], p["M"]))
    return ev


def _ev_E8(p: Params, order: Fraction) -> SidePair:
    lhs = fermionic.fermionic_char_sum("E8", order)
    if p["form"] == 0:
        rhs = bosonic.virasoro_char(3, 4, 1, 1, order)
    else:
        # 1/((q^3, q^4, q^5; q^8)_inf (q^2, q^14; q^16)_inf)
        rhs = product_series((), [j for j in range(1, ceil(order))
                                  if j % 8 in (3, 4, 5) or j % 16 in (2, 14)], order)
    return lhs, rhs


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
    # sum_{j>=0} (-1)^j q^{j^2} + sum_{j>=1} q^{6j^2}; the order cuts both
    theta = [(j * j, (-1) ** j) for j in range(int(order) + 1)]
    theta += [(6 * j * j, 1) for j in range(1, int(order) + 1)]
    return lhs, QSeries(theta, order) * euler_inverse(order)


def _ev_B46_s1(p: Params, order: Fraction) -> SidePair:
    lhs = bosonic.branching_function(4, 6, 1, 1, 1, order)
    inner = order - Fraction(3, 2)
    if inner <= 0:  # nothing is known, and a product would lower the order
        return lhs, QSeries.zero(order)
    if p["form"] == 0:
        theta = [(6 * j * (j + 1), 1) for j in range(int(inner) + 1)]
        rhs = QSeries(theta, inner) * euler_inverse(inner)
    else:
        # Gauss: (q^24; q^24)_inf / (q^12; q^24)_inf = sum_j q^(6j(j+1))
        n = ceil(inner)
        rhs = product_series(range(24, n, 24), range(12, n, 24), inner,
                             euler_inverse(inner))
    return lhs, rhs.shift(Fraction(3, 2))


def _fam_rhs(family: int, k: int, s: int, order: Fraction) -> QSeries:
    # With A = P(k+1) - 2: k odd gives chi^{(3,4)} times chi^{(P, A/2)}; k even
    # gives B^{(P, A)}_{r, k+1} with the sigma + k/2 shift (applied uniformly;
    # see the registry note of fam1-k2), read as B^{(A, P)}_{k+1, r} where
    # A < P, which is k = 0 only, since branching_function needs p < p'.
    # Family 3 adds the term with label r = P - 1 and the other sigma.
    P = fermionic._FAMILIES[family].P
    A = P * (k + 1) - 2
    out = QSeries.zero(order)
    for t, r in enumerate((1, P - 1) if family == 3 else (1,)):
        if k % 2:
            out = out + (bosonic.virasoro_char(3, 4, (s + t) % 2 + 1, 1, order)
                         * bosonic.virasoro_char(P, A // 2, r, (k + 1) // 2, order))
        else:
            labels = (P, A, r, k + 1) if P < A else (A, P, k + 1, r)
            out = out + bosonic.branching_function(*labels, (s + k // 2 + t) % 2, order)
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
    lhs = positive_sum(_trinomial2_terms(L, a), 2, order)
    if p["form"] == 0:
        rhs = positive_sum(_trinomial2_terms(L + 2, a), 2, order)  # stabilization
    else:
        rhs = euler_inverse(order)
    return lhs, rhs


def _ev_limit_Tlim(p: Params, order: Fraction) -> SidePair:
    a, sigma = p["a"], p["sigma"]
    # L - |a| >= 2 * order, as in limit-tlim, and L + a + sigma even
    L = 2 * int(order) + abs(a) + sigma
    lhs = positive_sum(_trinomial_terms(L, a), 2, order)
    if p["form"] == 0:
        rhs = positive_sum(_trinomial_terms(L + 2, a), 2, order)
    else:
        rhs = bosonic.string_function(sigma, order)
    return lhs, rhs


_MTLIM_POINTS = ((4, 2, 1), (5, 1, 0), (6, 2, 2))


def _ev_limit_mTlim(p: Params, order: Fraction) -> SidePair:
    L, a, b = _MTLIM_POINTS[p["point"]]
    cut = Fraction(min(Fraction(L), order))
    M = L + int(order)
    lhs = positive_sum(_refined_terms(L, M, a, b), 2, cut)
    if p["form"] == 0:
        rhs = positive_sum(_refined_terms(L, M + 1, a, b), 2, cut)
    else:
        rhs = positive_sum(((e, pairs + _euler_pairs((L,), cut))
                            for e, pairs in _trinomial_terms(L, a)), 2, cut)
    return lhs, rhs


# --------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------


def _rng(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(range(lo, hi + 1))


def _build_registry() -> dict[str, IdentityDescriptor]:
    reg: list[IdentityDescriptor] = []
    big = {"L": _rng(0, 8), "M": _rng(0, 8), "a": _rng(-4, 4), "b": _rng(-4, 4)}
    reg.append(IdentityDescriptor(
        "dual", "polynomial-exact", "proved-in-paper", big, _ev_dual))
    reg.append(IdentityDescriptor(
        "symmetry", "polynomial-exact", "proved-in-paper", big, _ev_symmetry))
    reg.append(IdentityDescriptor(
        "vanish", "polynomial-exact", "proved-in-paper",
        {"L": _rng(0, 8), "M": _rng(0, 8), "a": _rng(-12, 12), "b": _rng(-12, 12)},
        _ev_vanish,
        point_filter=lambda p: abs(p["a"]) > p["L"] or abs(p["b"]) > p["M"]))
    tri_grid = {"L": _rng(0, 8), "a": _rng(0, 8), "b": _rng(0, 8)}
    tri_filter = lambda p: p["b"] <= p["a"] <= p["L"]
    reg.append(IdentityDescriptor(
        "mTtoT", "polynomial-exact", "proved-in-paper", tri_grid, _ev_mT(False),
        point_filter=tri_filter))
    reg.append(IdentityDescriptor(
        "mTtot", "polynomial-exact", "proved-in-paper", tri_grid, _ev_mT(True),
        point_filter=tri_filter))
    reg.append(IdentityDescriptor(
        "thm1", "polynomial-exact", "proved-in-paper",
        {"L": _rng(0, 8), "M": _rng(0, 8), "a": _rng(0, 4), "b": _rng(0, 4),
         "s": (1, -1)}, _ev_thm1))
    reg.append(IdentityDescriptor(
        "con10", "polynomial-exact", "proved-in-paper",
        {"L": _rng(0, 8), "b": _rng(-8, 8)}, _ev_con,
        point_filter=lambda p: abs(p["b"]) <= p["L"]))
    reg.append(IdentityDescriptor(
        "abp", "series-truncated", "proved-in-paper",
        {"b": _rng(-4, 4)}, _ev_abp, order=12))
    for w in (1, 2, 3):
        reg.append(IdentityDescriptor(
            f"conj{w}", "polynomial-exact", "conjectured-in-paper",
            {"L": _rng(0, 5), "M": _rng(0, 5)}, _ev_kseries(w, 0)))
    for w, f in fermionic._FAMILIES.items():
        for k in (1, 2):
            reg.append(IdentityDescriptor(
                f"{f.name}-k{k}", "polynomial-exact", "conjectured-in-paper",
                {"L": _rng(0, 3), "M": _rng(0, 3)}, _ev_kseries(w, k)))
    reg.append(IdentityDescriptor(
        "E8", "series-truncated", "proved-in-paper",
        {"form": (0, 1)}, _ev_E8, order=12))
    for s in (0, 1):
        reg.append(IdentityDescriptor(
            f"E7conj-s{s}", "series-truncated", "conjectured-in-paper",
            {"sigma": (s,)}, _ev_fam(1, 0), order=12))
    reg.append(IdentityDescriptor(
        "E6", "series-truncated", "conjectured-in-paper",
        {"point": (0,)}, _ev_E6, order=12))
    reg.append(IdentityDescriptor(
        "B35-eq-chi45", "series-truncated", "proved-in-paper",
        {"sigma": (0, 1)}, _ev_B35, order=15))
    reg.append(IdentityDescriptor(
        "B46-simplification-s0", "series-truncated", "conjectured-in-paper",
        {"point": (0,)}, _ev_B46_s0, order=20))
    reg.append(IdentityDescriptor(
        "B46-simplification-s1", "series-truncated", "conjectured-in-paper",
        {"form": (0, 1)}, _ev_B46_s1, order=20))
    reg.append(IdentityDescriptor(
        "D6-B46-fermionic", "series-truncated", "conjectured-in-paper",
        {"sigma": (0, 1)}, _ev_fam(2, 0), order=12))
    reg.append(IdentityDescriptor(
        "A5-B68-fermionic", "series-truncated", "conjectured-in-paper",
        {"sigma": (0, 1)}, _ev_fam(3, 0), order=12))
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
                {"sigma": (0, 1)}, _ev_fam(fam, k), order=8, note=note))
    for fam in (1, 2, 3):
        for k in (2, 3):
            reg.append(IdentityDescriptor(
                f"X{fam if fam > 1 else ''}-k{k}", "series-truncated", "conjectured-in-paper",
                {"point": (0,)}, _ev_x(fam, k), order=8))
    reg.append(IdentityDescriptor(
        "limit-tlim", "series-truncated", "proved-in-paper",
        {"a": (0, 1, 2), "form": (0, 1)}, _ev_limit_tlim, order=10))
    reg.append(IdentityDescriptor(
        "limit-Tlim", "series-truncated", "proved-in-paper",
        {"a": (0, 1, 2), "sigma": (0, 1), "form": (0, 1)}, _ev_limit_Tlim,
        order=10))
    reg.append(IdentityDescriptor(
        "limit-mTlim", "series-truncated", "proved-in-paper",
        {"point": (0, 1, 2), "form": (0, 1)}, _ev_limit_mTlim, order=10))
    return {d.name: d for d in reg}


REGISTRY = _build_registry()


def verify_identity(
    name: str,
    grid: Mapping[str, Sequence[int]] | None = None,
    order: int | None = None,
    level: str = "full",
) -> VerificationReport:
    """Evaluate one registered identity over its grid, with ``grid``'s
    parameters in place of the registry's, at ``order`` (a series identity
    only) or the registry's order, and report failures.  Every level in
    LEVELS runs the same grid; a grid with no point to check is an error,
    not a PASS."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {', '.join(LEVELS)}, got {level!r}")
    if name not in REGISTRY:
        raise ValueError(f"no identity named {name!r}")
    d = REGISTRY[name]
    use_grid = dict(d.grid)
    for key, vals in (grid or {}).items():
        if key not in use_grid:
            raise ValueError(
                f"identity {name!r} has no grid parameter {key!r}")
        if key in CHOICE_PARAMS and not set(vals) <= set(d.grid[key]):
            raise ValueError(
                f"identity {name!r} takes {key} in {sorted(d.grid[key])}, "
                f"got {min(set(vals) - set(d.grid[key]))}")
        use_grid[key] = tuple(vals)
    if order is not None and d.kind == "polynomial-exact":
        raise ValueError(f"identity {name!r} is an exact polynomial identity and takes no order")
    if order is not None and (not isinstance(order, int) or order < 1):
        raise ValueError(f"order must be a positive integer, got {order}")
    use_order = Fraction(d.order if order is None else order)
    start = time.perf_counter()
    points = 0
    failures: list[dict] = []
    keep, evaluate = d.point_filter, d.evaluate
    *head, last = use_grid
    # every point of the grid, the last parameter varying fastest: the
    # parameters of each prefix are built once, and each point gets its own
    # copy, which the evaluator and a failure record may keep; sides that
    # are one object (the shared zero outside the support) need no compare
    for prefix in product(*[use_grid[k] for k in head]):
        base = dict(zip(head, prefix))
        for x in use_grid[last]:
            params = base.copy()
            params[last] = x
            if keep is not None and not keep(params):
                continue
            points += 1
            lhs, rhs = evaluate(params, use_order)
            if lhs is rhs:
                continue
            diff = compare_sides(lhs, rhs)
            if diff is not None:
                e, cl, cr = diff
                failures.append({"params": params, "exponent": str(e), "lhs": cl, "rhs": cr})
    if not points:
        raise ValueError(f"no point of this grid lies in the domain of {name!r}")
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


def verify_all(level: str = "full") -> list[VerificationReport]:
    """Run every registered identity; nothing is skipped."""
    return [verify_identity(name, level=level) for name in sorted(REGISTRY)]


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)
