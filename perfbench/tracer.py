"""Span tracer installed from the benchmark's side of qtrin's public API.

``Tracer.install()`` replaces every public function of the eight layer
modules wherever a ``qtrin`` module binds it (so ``refined_T`` is traced
whether ``bosonic``, ``verify`` or ``cli`` calls it), the public methods of
``QPoly``/``QSeries``/``LieAlgebra``/``MNSolution``, and each registry
descriptor's ``evaluate``.  ``uninstall()`` puts the originals back.

Each call records one span: name, start, end, parent span and trace id
(one per ``cli.run`` request and one per ``verify_identity`` call).  Spans
live in flat arrays in memory and are written out once, by ``dump``.
Counting that needs to look at operands runs inside its own ``trace``
span, so it is charged to the tracer rather than to the layer.
"""

from __future__ import annotations

import bisect
import dataclasses
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

import oracles

LAYERS = ("qpoly", "qcomb", "liealg", "mnsys", "fermionic", "bosonic", "verify", "cli")
_METHODS = {
    "QPoly": ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__str__",
              "__eq__", "substitute_qinv", "shift", "to_series", "coeff"),
    "QSeries": ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__str__",
                "__eq__", "shift", "truncate", "inverse", "coeff"),
    "LieAlgebra": ("quad_form_invcartan", "quad_form_cartan", "incidence_apply",
                   "invcartan_apply"),
    "MNSolution": ("check", "basis_str"),
}
# span name -> metric group; a group's time counts only its outermost spans
_GROUPS = {
    "qpoly.QPoly.__mul__": "qpoly.poly_mul", "qpoly.QPoly.__rmul__": "qpoly.poly_mul",
    "qpoly.QSeries.__mul__": "qpoly.series_mul", "qpoly.QSeries.__rmul__": "qpoly.series_mul",
    "qpoly.QSeries.inverse": "qpoly.inverse",
    "qpoly.QPoly.__add__": "qpoly.add", "qpoly.QPoly.__sub__": "qpoly.add",
    "qpoly.QPoly.__neg__": "qpoly.add", "qpoly.QSeries.__add__": "qpoly.add",
    "qpoly.QSeries.__sub__": "qpoly.add", "qpoly.QSeries.__neg__": "qpoly.add",
    "qpoly.QPoly.__str__": "qpoly.render", "qpoly.QSeries.__str__": "qpoly.render",
    "qcomb.qtrinomial2": "qcomb.qtrinomial", "qcomb.qtrinomial_T": "qcomb.qtrinomial",
    "liealg.LieAlgebra.quad_form_invcartan": "liealg.quad_form",
    "liealg.LieAlgebra.quad_form_cartan": "liealg.quad_form",
    "mnsys.solve_mn": "mnsys.solve", "mnsys.solve_mn_filtered": "mnsys.solve",
    "bosonic.virasoro_char": "bosonic.character",
    "bosonic.branching_function": "bosonic.character",
    "bosonic.conj_lhs": "bosonic.theta", "bosonic.kseries_lhs": "bosonic.theta",
    "fermionic.fermionic_char_sum": "fermionic.char_sum",
}
_NEW_TRACE = {"cli.run", "verify.verify_identity"}


def _exponents(x) -> list:
    terms = getattr(x, "terms", None)
    if isinstance(terms, dict):
        return list(terms)
    return list(oracles.parse_series(str(x))[0])


def _order(x):
    """Truncation order of a series, None for a polynomial."""
    if hasattr(x, "order"):
        return x.order
    if hasattr(x, "terms"):
        return None
    return oracles.parse_series(str(x))[1]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.trace_id = array("l")
        self.outermost = array("b")
        self._stack: list[int] = []
        self._group_depth: Counter = Counter()
        self._traces = 0
        self.counts: Counter = Counter()
        self.max_terms = 0
        self._undo: list = []

    # -- recording ----------------------------------------------------

    def _open(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        if name in _NEW_TRACE or parent < 0:
            self._traces += 1
            tid = self._traces
        else:
            tid = self.trace_id[parent]
        group = _GROUPS.get(name, name)
        span = len(self.start)
        self.name_of.append(idx)
        self.parent.append(parent)
        self.trace_id.append(tid)
        self.outermost.append(self._group_depth[group] == 0)
        self.end.append(0.0)
        self._group_depth[group] += 1
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def _close(self, span: int, name: str) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()
        self._group_depth[_GROUPS.get(name, name)] -= 1

    def _wrap(self, fn, name: str, count=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, name)
            if count is not None:
                book = tracer._open("trace.count")
                try:
                    count(tracer, span, args, result)
                finally:
                    tracer._close(book, "trace.count")
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"qtrin.{name}") for name in LAYERS}
        targets: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    name = f"{layer}.{attr}"
                    targets[id(obj)] = self._wrap(obj, name, _COUNTERS.get(name))
                elif inspect.isclass(obj) and attr in _METHODS:
                    for meth in _METHODS[attr]:
                        orig = vars(obj).get(meth)
                        if orig is None:
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        self._set(obj, meth, self._wrap(orig, name, _COUNTERS.get(name)))
        for modname, mod in list(sys.modules.items()):
            if modname != "qtrin" and not modname.startswith("qtrin."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets:
                    self._set(mod, attr, targets[id(obj)])
        registry = mods["verify"].REGISTRY
        for key, desc in list(registry.items()):
            wrapped = dataclasses.replace(
                desc, evaluate=self._wrap(desc.evaluate, "verify.evaluate"))
            self._undo.append((registry.__setitem__, key, desc))
            registry[key] = wrapped

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((lambda a, v, o=owner: setattr(o, a, v), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for setter, key, value in reversed(self._undo):
            setter(key, value)
        self._undo.clear()

    # -- results ------------------------------------------------------

    def layer_times(self, wall: float) -> dict[str, float]:
        """Self time per layer (and the tracer's own `trace` share) plus
        `unspanned`, which together add up to ``wall``."""
        n = len(self.start)
        child = [0.0] * n
        roots = 0.0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p < 0:
                roots += dur
            else:
                child[p] += dur
        selfs: Counter = Counter()
        for i in range(n):
            layer = self.names[self.name_of[i]].split(".", 1)[0]
            selfs[layer] += self.end[i] - self.start[i] - child[i]
        selfs["unspanned"] = wall - roots
        return dict(selfs)

    def group_times(self) -> dict[str, float]:
        """Inclusive time of each metric group, outermost spans only."""
        out: Counter = Counter()
        for i in range(len(self.start)):
            if self.outermost[i]:
                name = self.names[self.name_of[i]]
                out[_GROUPS.get(name, name)] += self.end[i] - self.start[i]
        return dict(out)

    def calls(self) -> Counter:
        out: Counter = Counter()
        for i in self.name_of:
            out[self.names[i]] += 1
        return out

    def dump(self, path, extra: dict) -> None:
        """Write a JSON header line, then one `name start end parent trace_id`
        line per span (name as an index into the header's `names`)."""
        header = {"names": self.names,
                  "columns": ["name", "start", "end", "parent", "trace_id"], **extra}
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name_of[i]} {self.start[i]:.7f} {self.end[i]:.7f} "
                         f"{self.parent[i]} {self.trace_id[i]}\n")


# -- counters run after a span closes, inside a `trace.count` span ----


def _count_poly_mul(tr: Tracer, span: int, args, result) -> None:
    if result is NotImplemented:
        return
    a, b = args
    tr.counts["qpoly.poly_mul_calls"] += 1
    lb = 1 if isinstance(b, int) else len(_exponents(b))
    tr.counts["qpoly.poly_mul_pairs"] += len(_exponents(a)) * lb
    tr.max_terms = max(tr.max_terms, len(_exponents(result)))


def _count_series_mul(tr: Tracer, span: int, args, result) -> None:
    if result is NotImplemented:
        return
    a, b = args
    tr.counts["qpoly.series_mul_calls"] += 1
    ea = _exponents(a)
    if isinstance(b, int):
        tr.counts["qpoly.series_mul_pairs"] += len(ea)
        tr.counts["qpoly.series_mul_kept"] += len(ea)
        return
    order, b_order = _order(a), _order(b)
    eb = _exponents(b)
    if b_order is None:  # a polynomial operand is truncated before the product
        eb = [e for e in eb if e < order]
    else:
        order = min(order, b_order)
    eb.sort()
    tr.counts["qpoly.series_mul_pairs"] += len(ea) * len(eb)
    tr.counts["qpoly.series_mul_kept"] += sum(bisect.bisect_left(eb, order - e) for e in ea)


def _count_compare(tr: Tracer, span: int, args, result) -> None:
    cut = None
    for side in args:
        o = _order(side)
        if o is not None:
            cut = o if cut is None else min(cut, o)
    exps = set()
    for side in args:
        exps.update(e for e in _exponents(side) if cut is None or e < cut)
    tr.counts["verify.coeffs_compared"] += len(exps)


def _count_solve(tr: Tracer, span: int, args, result) -> None:
    tr.counts["mnsys.solutions"] += len(result)
    p = tr.parent[span]
    if p >= 0 and tr.names[tr.name_of[p]] == "mnsys.solve_mn_filtered":
        tr.counts["mnsys.filter_in"] += len(result)


def _count_filtered(tr: Tracer, span: int, args, result) -> None:
    tr.counts["mnsys.filter_out"] += len(result)


def _count_report(tr: Tracer, span: int, args, result) -> None:
    tr.counts["verify.points"] += result.points


_COUNTERS = {
    "qpoly.QPoly.__mul__": _count_poly_mul,
    "qpoly.QPoly.__rmul__": _count_poly_mul,
    "qpoly.QSeries.__mul__": _count_series_mul,
    "qpoly.QSeries.__rmul__": _count_series_mul,
    "verify.compare_sides": _count_compare,
    "mnsys.solve_mn": _count_solve,
    "mnsys.solve_mn_filtered": _count_filtered,
    "verify.verify_identity": _count_report,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, wall: float, untraced_wall: float,
                  cache_stats: dict[str, list[int]]) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    selfs = tr.layer_times(wall)
    groups = tr.group_times()
    calls = tr.calls()
    c = tr.counts

    def hit_ratio(cache: str) -> float:
        hits, misses = cache_stats.get(cache, (0, 0))
        return _ratio(hits, hits + misses)

    m = {
        "qpoly.poly_mul_calls": c["qpoly.poly_mul_calls"],
        "qpoly.poly_mul_s": groups.get("qpoly.poly_mul", 0.0),
        "qpoly.poly_mul_pairs": c["qpoly.poly_mul_pairs"],
        "qpoly.max_terms": tr.max_terms,
        "qpoly.series_mul_calls": c["qpoly.series_mul_calls"],
        "qpoly.series_mul_s": groups.get("qpoly.series_mul", 0.0),
        "qpoly.series_mul_pairs": c["qpoly.series_mul_pairs"],
        "qpoly.series_mul_kept_ratio": _ratio(c["qpoly.series_mul_kept"], c["qpoly.series_mul_pairs"]),
        "qpoly.inverse_calls": calls["qpoly.QSeries.inverse"],
        "qpoly.inverse_s": groups.get("qpoly.inverse", 0.0),
        "qpoly.add_s": groups.get("qpoly.add", 0.0),
        "qpoly.render_s": groups.get("qpoly.render", 0.0),
        "qcomb.qbinomial_calls": calls["qcomb.qbinomial"],
        "qcomb.qbinomial_s": groups.get("qcomb.qbinomial", 0.0),
        "qcomb.qbinomial_hit_ratio": hit_ratio("qtrin.qcomb.qbinomial"),
        "qcomb.refined_T_calls": calls["qcomb.refined_T"],
        "qcomb.refined_T_s": groups.get("qcomb.refined_T", 0.0),
        "qcomb.refined_T_hit_ratio": hit_ratio("qtrin.qcomb.refined_T"),
        "qcomb.qtrinomial_s": groups.get("qcomb.qtrinomial", 0.0),
        "liealg.quad_form_calls": (calls["liealg.LieAlgebra.quad_form_invcartan"]
                                   + calls["liealg.LieAlgebra.quad_form_cartan"]),
        "liealg.quad_form_s": groups.get("liealg.quad_form", 0.0),
        "mnsys.solve_calls": calls["mnsys.solve_mn"],
        "mnsys.solve_s": groups.get("mnsys.solve", 0.0),
        "mnsys.solutions": c["mnsys.solutions"],
        "mnsys.hit_ratio": hit_ratio("qtrin.mnsys._solve_mn_cached"),
        "mnsys.filter_kept_ratio": _ratio(c["mnsys.filter_out"], c["mnsys.filter_in"]),
        "fermionic.char_sum_s": groups.get("fermionic.char_sum", 0.0),
        "fermionic.f_poly_s": groups.get("fermionic.f_poly", 0.0),
        "bosonic.string_function_s": groups.get("bosonic.string_function", 0.0),
        "bosonic.character_s": groups.get("bosonic.character", 0.0),
        "bosonic.theta_s": groups.get("bosonic.theta", 0.0),
        "verify.points": c["verify.points"],
        "verify.evaluate_s": groups.get("verify.evaluate", 0.0),
        "verify.compare_s": groups.get("verify.compare_sides", 0.0),
        "verify.coeffs_compared": c["verify.coeffs_compared"],
        "cli.requests": calls["cli.run"],
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.count_s": selfs.get("trace", 0.0),
        "trace.unspanned_s": selfs["unspanned"],
        "trace.spans": len(tr.start),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return m
